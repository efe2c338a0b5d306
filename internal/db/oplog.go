package db

import (
	"errors"

	"unixhash/internal/core"
	"unixhash/internal/oplog"
)

// Per-request attribution at the db layer. The hash adapters (single
// table and sharded) implement OpDB: each uniform operation has one
// body, an ...Op method taking an op ledger that is threaded down
// through the table's latch, WAL, filter and buffer-pool hooks. The
// plain DB methods call it with a nil ledger, which reads no clock.
// Callers that manage their own ledgers (the network server) use OpDB
// directly and record finished ledgers into an oplog.Recorder.

// OpDB is the optional ledger-carrying face of a DB. A type assertion
// feature-tests it; the btree and recno adapters do not implement it
// (their operations have no phases to attribute).
type OpDB interface {
	// GetBufOp is GetBuf with per-phase attribution into led.
	GetBufOp(led *oplog.Ledger, key, dst []byte) ([]byte, error)
	// PutOp is Put with attribution.
	PutOp(led *oplog.Ledger, key, data []byte) error
	// PutBatchOp is PutBatch with attribution; on a sharded database the
	// fan-out goroutines charge the one ledger concurrently.
	PutBatchOp(led *oplog.Ledger, pairs []Pair) error
	// DeleteOp is Delete with attribution.
	DeleteOp(led *oplog.Ledger, key []byte) error
	// BeginOp is Begin with the ledger pre-attached: Commit charges its
	// WAL marshal, fsync (group-commit join vs lead), latch and split
	// time to led.
	BeginOp(led *oplog.Ledger) (Txn, error)
}

// --- hash adapter ---

func (d *hashDB) GetBufOp(led *oplog.Ledger, key, dst []byte) ([]byte, error) {
	v, err := d.t.GetBufOp(led, key, dst)
	if errors.Is(err, core.ErrNotFound) {
		return nil, ErrNotFound
	}
	return v, err
}

func (d *hashDB) PutOp(led *oplog.Ledger, key, data []byte) error {
	return d.t.PutOp(led, key, data)
}

// PutBatchOp applies the whole batch under one table lock: pairs grouped
// by bucket, splits deferred to one pass at batch end (see
// core.Table.PutBatch).
func (d *hashDB) PutBatchOp(led *oplog.Ledger, pairs []Pair) error {
	return d.t.PutBatchOp(led, pairs)
}

func (d *hashDB) DeleteOp(led *oplog.Ledger, key []byte) error {
	err := d.t.DeleteOp(led, key)
	if errors.Is(err, core.ErrNotFound) {
		return ErrNotFound
	}
	return err
}

// BeginOp returns the core transaction itself, so the db layer adds no
// indirection on the commit path.
func (d *hashDB) BeginOp(led *oplog.Ledger) (Txn, error) {
	x, err := d.t.Begin()
	if err != nil {
		return nil, err
	}
	x.SetOplog(led)
	return x, nil
}

// --- sharded adapter ---

// route picks the shard for key, charging the routing decision to led
// and stamping the ledger with the destination shard.
func (s *Sharded) route(led *oplog.Ledger, key []byte) *hashDB {
	st := led.Now()
	i := 0
	if len(s.shards) > 1 {
		i = shardOf(key, len(s.shards))
	}
	led.Since(oplog.PhaseRoute, st)
	led.SetShard(i)
	return s.shards[i]
}

func (s *Sharded) GetBufOp(led *oplog.Ledger, key, dst []byte) ([]byte, error) {
	return s.route(led, key).GetBufOp(led, key, dst)
}

func (s *Sharded) PutOp(led *oplog.Ledger, key, data []byte) error {
	return s.route(led, key).PutOp(led, key, data)
}

func (s *Sharded) DeleteOp(led *oplog.Ledger, key []byte) error {
	return s.route(led, key).DeleteOp(led, key)
}

// PutBatchOp partitions the batch by destination shard and applies the
// sub-batches concurrently, one PutBatch (one lock epoch, one deferred
// split pass) per involved shard. In-batch last-wins dedupe holds: a
// duplicate key lands in one shard, where the table's own batch dedupe
// applies. The partition pass is charged to led as routing and the
// per-shard sub-batches then charge their latch/split/pool phases
// concurrently (the ledger's counters are atomic). The ledger's shard
// stays -1 — a cross-shard batch has no single destination — while the
// phase totals still attribute the time.
func (s *Sharded) PutBatchOp(led *oplog.Ledger, pairs []Pair) error {
	if len(s.shards) == 1 {
		led.SetShard(0)
		return s.shards[0].PutBatchOp(led, pairs)
	}
	st := led.Now()
	per := make([][]Pair, len(s.shards))
	for _, p := range pairs {
		i := shardOf(p.Key, len(s.shards))
		per[i] = append(per[i], p)
	}
	led.Since(oplog.PhaseRoute, st)
	return s.fanOut(func(i int, sh *hashDB) error {
		if len(per[i]) == 0 {
			return nil
		}
		return sh.PutBatchOp(led, per[i])
	})
}

// BeginOp starts a routing transaction: each op lands in a per-shard
// sub-transaction, begun lazily on first touch with led attached, so a
// sharded Commit's per-shard WAL and latch time accumulates on one
// ledger. Commit commits the sub-transactions in shard order — atomic
// within each shard, not across shards (a crash mid-commit can leave a
// prefix of the shards committed; each shard individually is still
// all-or-nothing and crash-consistent through its own log).
func (s *Sharded) BeginOp(led *oplog.Ledger) (Txn, error) {
	// Surface "no WAL" (or read-only, closed...) at Begin rather than at
	// the first Put, matching the single-table contract.
	probe, err := s.shards[0].BeginOp(led)
	if err != nil {
		return nil, err
	}
	x := &shardedTxn{s: s, sub: make([]Txn, len(s.shards)), led: led}
	x.sub[0] = probe
	return x, nil
}

// Static interface checks: both hash shapes carry ledgers.
var (
	_ OpDB = (*hashDB)(nil)
	_ OpDB = (*Sharded)(nil)
)
