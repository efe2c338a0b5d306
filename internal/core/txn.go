package core

import (
	"errors"
	"fmt"
	"sort"

	"unixhash/internal/oplog"
	"unixhash/internal/wal"
)

// Transactions. Begin returns a Txn that buffers intent records; nothing
// touches the table until Commit. Commit appends every op plus a commit
// frame to the write-ahead log in one contiguous write, fsyncs the log
// (sharing the fsync with concurrent committers), and only then applies
// the ops to the live table under the PR 6 bucket latches — all buckets
// involved are write-latched together, in ascending stripe order, so the
// transaction becomes visible as a unit. Durability comes from the log:
// after Commit returns, a crash at any point is repaired by Recover
// replaying the committed transactions past the last checkpoint. The
// pages themselves reach the store lazily, at the next Sync (now a
// checkpoint) — which is why a durable single Put through a transaction
// costs one sequential log append instead of a full page flush.

var (
	// ErrNoWAL reports a transaction attempt on a table opened without
	// Options.WAL.
	ErrNoWAL = errors.New("hash: transactions require Options.WAL")
	// ErrTxnDone reports reuse of a committed or rolled-back Txn.
	ErrTxnDone = errors.New("hash: transaction already committed or rolled back")
)

// Txn is an atomic batch of puts and deletes. It is not safe for
// concurrent use by multiple goroutines; independent Txns may commit
// concurrently.
type Txn struct {
	t    *Table
	ops  []wal.Op
	led  *oplog.Ledger
	done bool
}

// SetOplog attaches an op ledger to the transaction. Commit charges its
// WAL marshal/fsync, latch wait, and split-assist time to the ledger.
// A nil ledger (the default) keeps the commit path unchanged.
func (x *Txn) SetOplog(led *oplog.Ledger) { x.led = led }

// Begin starts a transaction. The table must have been opened with
// Options.WAL.
func (t *Table) Begin() (*Txn, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if err := t.checkWritable(); err != nil {
		return nil, err
	}
	if t.wal == nil {
		return nil, ErrNoWAL
	}
	if err := t.walDamaged(); err != nil {
		return nil, err
	}
	return &Txn{t: t}, nil
}

// Put buffers an insert-or-replace of key → data. Bytes are copied, so
// the caller may reuse its slices.
func (x *Txn) Put(key, data []byte) error {
	if x.done {
		return ErrTxnDone
	}
	if len(key) == 0 {
		return ErrEmptyKey
	}
	x.ops = append(x.ops, wal.Op{
		Key:  append([]byte(nil), key...),
		Data: append([]byte(nil), data...),
	})
	return nil
}

// Delete buffers a delete of key. Deleting an absent key is not an
// error at commit time — the redo-log semantics are "ensure absent".
func (x *Txn) Delete(key []byte) error {
	if x.done {
		return ErrTxnDone
	}
	if len(key) == 0 {
		return ErrEmptyKey
	}
	x.ops = append(x.ops, wal.Op{Delete: true, Key: append([]byte(nil), key...)})
	return nil
}

// Len returns the number of buffered ops.
func (x *Txn) Len() int { return len(x.ops) }

// Rollback discards the transaction. The table is untouched — no log
// record, no page mutation.
func (x *Txn) Rollback() error {
	if x.done {
		return ErrTxnDone
	}
	x.done = true
	x.ops = nil
	return nil
}

// Commit makes the transaction durable and visible: log append, log
// fsync, then application under the bucket latches. An empty transaction
// commits trivially. On a log error nothing was applied and the table is
// unchanged; if application fails after the log fsync (an I/O error from
// the buffer pool mid-transaction), the commit is durable but only
// partially visible — the table poisons its transaction path and keeps
// the log so that a reopen (or Recover) replays the commit and
// re-converges.
func (x *Txn) Commit() error {
	if x.done {
		return ErrTxnDone
	}
	x.done = true
	if len(x.ops) == 0 {
		return nil
	}
	x.t.markTrace(x.led)
	defer x.t.markTrace(x.led)
	return x.t.commitOps(x.ops, x.led)
}

func (t *Table) commitOps(ops []wal.Op, led *oplog.Ledger) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if err := t.checkWritable(); err != nil {
		return err
	}
	if t.wal == nil {
		return ErrNoWAL
	}
	if err := t.walDamaged(); err != nil {
		return err
	}
	// Bumped even if the attempt fails partway, like put: group
	// commit must only ever over-sync.
	defer t.mutSeq.Add(1)

	st := led.Now()
	commitLSN, end, err := t.wal.Append(ops)
	led.Since(oplog.PhaseWALMarshal, st)
	if err != nil {
		return fmt.Errorf("hash: txn append: %w", err)
	}
	if err := t.wal.SyncToOp(led, end); err != nil {
		return fmt.Errorf("hash: txn fsync: %w", err)
	}
	// The transaction is durable. Everything from here on is replayable
	// from the log, so a failure below must freeze appliedLSN (via the
	// damage poison) rather than roll anything back.
	if err := t.applyTxn(ops, led); err != nil {
		err = fmt.Errorf("hash: committed transaction %d applied partially (reopen or Recover to converge): %w", commitLSN, err)
		t.setWALDamaged(err)
		return err
	}
	t.appliedLSN.Store(commitLSN)
	t.m.txnCommits.Inc()

	// Split trigger, as after put's insert: the latches are released, the
	// split takes its own.
	uncontrolled := t.addedOvfl.Swap(false) && !t.controlledOnly
	if uncontrolled || t.nkeysA.Load() > int64(t.hdr.ffactor)*int64(t.geo.Load()+1) {
		st = led.Now()
		if err := t.maybeExpand(uncontrolled); err != nil {
			return err
		}
		led.Since(oplog.PhaseSplitAssist, st)
	}
	t.m.setShape(t.nkeysA.Load(), t.geo.Load())
	return nil
}

// txnTarget is one op's routing state during application.
type txnTarget struct {
	hash   uint32
	bucket uint32
	big    bool
	ref    oaddr
}

// applyTxn applies the ops to the live table as one unit. Big-pair
// chains are pre-written outside the latches (private until their ref
// lands, as in put); then every involved bucket's stripe is
// write-latched in ascending order, the routes revalidated against the
// split pointer, and the ops applied in order. A route invalidated by a
// concurrent split backs off, helps the split, and retries — the same
// protocol as lockBucket, extended to a set of buckets.
func (t *Table) applyTxn(ops []wal.Op, led *oplog.Ledger) error {
	if err := t.markDirty(); err != nil {
		return err
	}
	targets := make([]txnTarget, len(ops))
	for i := range ops {
		op := &ops[i]
		tg := &targets[i]
		tg.hash = t.hash(op.Key)
		if !op.Delete && t.isBig(len(op.Key), len(op.Data)) {
			tg.big = true
			ref, err := t.putBigPair(op.Key, op.Data)
			if err != nil {
				return err
			}
			tg.ref = ref
		}
	}

	stripes := make([]int, 0, len(ops))
	for {
		// Route every op and collect the distinct stripes, ascending.
		geo := t.geo.Load()
		stripes = stripes[:0]
		for i := range targets {
			targets[i].bucket = routeBucket(targets[i].hash, geo)
			stripes = append(stripes, int(targets[i].bucket&stripeMask))
		}
		sort.Ints(stripes)
		n := 0
		for i, s := range stripes {
			if i == 0 || s != stripes[n-1] {
				stripes[n] = s
				n++
			}
		}
		stripes = stripes[:n]
		st := led.Now()
		for _, s := range stripes {
			t.stripes[s].Lock()
		}
		led.Since(oplog.PhaseLatchWait, st)

		// Revalidate under the latches: a split may have moved a route or
		// may still be redistributing one of our buckets.
		conflict := int64(-1)
		for i := range targets {
			tg := &targets[i]
			if routeBucket(tg.hash, t.geo.Load()) != tg.bucket || t.splitInvolves(tg.bucket) {
				conflict = int64(tg.bucket)
				break
			}
		}
		if conflict >= 0 {
			for _, s := range stripes {
				t.stripes[s].Unlock()
			}
			if t.splitInvolves(uint32(conflict)) {
				t.helpSplit(uint32(conflict))
			}
			continue
		}

		var err error
		for i := range ops {
			op, tg := &ops[i], &targets[i]
			if op.Delete {
				_, err = t.deleteFromBucket(tg.bucket, tg.hash, op.Key, led)
			} else {
				err = t.putInBucket(tg.bucket, tg.hash, op.Key, op.Data, true, tg.big, tg.ref, led)
			}
			if err != nil {
				break
			}
		}
		for _, s := range stripes {
			t.stripes[s].Unlock()
		}
		return err
	}
}
