package core

import (
	"bytes"
	"fmt"
	"sort"

	"unixhash/internal/buffer"
	"unixhash/internal/oplog"
	"unixhash/internal/trace"
)

// Batched write pipeline. PutBatch ingests many key/data pairs under a
// single acquisition of the table lock: the pairs are grouped by
// destination bucket, each bucket's chain is walked exactly once
// (removing stale copies and packing new pairs page by page), and the
// split work the inserts imply is deferred to one pass at the end of
// the batch. An empty table takes a presize fast path that expands
// straight to the final bucket count — the same geometry Nelem would
// have produced at create time — instead of splitting one generation
// at a time. See DESIGN.md §10.

// Pair is one key/data pair for batched insertion.
type Pair struct {
	Key  []byte
	Data []byte
}

// PutBatch stores every pair with Put (replace) semantics. The whole
// batch is applied under one table lock acquisition: concurrent
// readers observe either none or all of it. When a key appears more
// than once in the batch the last occurrence wins, matching the
// sequential-Put outcome. An empty key anywhere in the batch rejects
// the entire batch with ErrEmptyKey before anything is written.
func (t *Table) PutBatch(pairs []Pair) error { return t.PutBatchOp(nil, pairs) }

// PutBatchOp is PutBatch with an op ledger: the table-lock wait, the
// deferred split pass, and the pool traffic of the distribution pass are
// charged to led, and the batch's trace-event span is recorded on it.
func (t *Table) PutBatchOp(led *oplog.Ledger, pairs []Pair) error {
	t.markTrace(led)
	defer t.markTrace(led)
	st := led.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	led.Since(oplog.PhaseLatchWait, st)
	if err := t.checkWritable(); err != nil {
		return err
	}
	for i := range pairs {
		if len(pairs[i].Key) == 0 {
			return ErrEmptyKey
		}
	}
	if len(pairs) == 0 {
		return nil
	}
	t.tr.Emit(trace.EvBatchBegin, uint64(len(pairs)), 0, 0, 0)
	// Bumped even on a failed batch: pages may already have been
	// mutated, and group commit must only ever over-sync.
	defer t.mutSeq.Add(1)
	// One durable dirty mark covers the whole batch.
	if err := t.markDirty(); err != nil {
		return err
	}

	// Presize fast path: an empty table jumps straight to the bucket
	// count the batch implies, so no pair is ever placed in a bucket
	// that a later split would move it out of.
	if t.nkeysA.Load() == 0 {
		t.presizeLocked(len(pairs))
	}

	// Group the pairs by destination bucket. Splits are deferred to the
	// end of the batch, so the bucket mapping is stable throughout the
	// distribution pass; sorting by bucket number makes the pass touch
	// primary pages in ascending file order.
	type slot struct {
		bucket uint32
		idx    int
	}
	order := make([]slot, len(pairs))
	for i := range pairs {
		order[i] = slot{bucket: t.calcBucket(t.hash(pairs[i].Key)), idx: i}
	}
	sort.SliceStable(order, func(a, b int) bool { return order[a].bucket < order[b].bucket })

	groups := 0
	idxs := make([]int, 0, 64)
	for lo := 0; lo < len(order); {
		hi := lo
		idxs = idxs[:0]
		for hi < len(order) && order[hi].bucket == order[lo].bucket {
			idxs = append(idxs, order[hi].idx)
			hi++
		}
		if err := t.putBucketGroup(order[lo].bucket, pairs, idxs, led); err != nil {
			return err
		}
		groups++
		lo = hi
	}
	t.dirtyHdr.Store(true)
	t.tr.Emit(trace.EvBatchPhase, trace.BatchPhaseDistribute, uint64(groups), 0, 0)

	// Deferred split pass: all the fill-factor splits the batch earned,
	// in one sweep, plus at most one uncontrolled split if the batch
	// grew an overflow chain and the fill factor did not already force
	// growth — the same hybrid policy as the single-Put path, settled
	// once per batch instead of once per insert.
	uncontrolled := t.addedOvfl.Swap(false) && !t.controlledOnly
	splits := 0
	splitSt := led.Now()
	for t.nkeysA.Load() > int64(t.hdr.ffactor)*int64(t.hdr.maxBucket+1) {
		if err := t.expand(false); err != nil {
			return err
		}
		splits++
	}
	if splits == 0 && uncontrolled {
		if err := t.expand(true); err != nil {
			return err
		}
		splits++
	}
	if splits > 0 {
		led.Since(oplog.PhaseSplitAssist, splitSt)
	}
	t.tr.Emit(trace.EvBatchPhase, trace.BatchPhaseSplits, uint64(splits), 0, 0)

	// Amortized accounting: one batch, len(pairs) logical puts.
	t.m.puts.Add(int64(len(pairs)))
	t.m.batchPuts.Inc()
	t.m.batchPairs.Add(int64(len(pairs)))
	t.m.setShape(t.nkeysA.Load(), t.hdr.maxBucket)
	t.tr.Emit(trace.EvBatchEnd, uint64(len(pairs)), uint64(splits), 0, 0)
	return nil
}

// presizeLocked expands an empty table's geometry straight to the
// bucket count that storing n keys at the configured fill factor
// implies — the computation initHeader performs for Options.Nelem —
// skipping the one-generation-at-a-time split sequence. With no keys
// there is nothing to redistribute, so only the header changes: masks,
// maxBucket and the overflow split point advance together (carrying
// the cumulative spares count forward across skipped generations,
// exactly as expand does), preserving every existing overflow page
// address. A target at or below the current size is a no-op.
func (t *Table) presizeLocked(n int) {
	if t.nkeysA.Load() != 0 {
		return
	}
	want := nextPow2(uint32((int64(n) + int64(t.hdr.ffactor) - 1) / int64(t.hdr.ffactor)))
	if want < 1 {
		want = 1
	}
	if want <= t.hdr.maxBucket+1 {
		return
	}
	t.hdr.maxBucket = want - 1
	t.hdr.lowMask = want - 1
	t.hdr.highMask = want<<1 - 1
	if newPoint := ceilLog2(want); newPoint > t.hdr.ovflPoint {
		for s := t.hdr.ovflPoint + 1; s <= newPoint; s++ {
			t.hdr.spares[s] = t.hdr.spares[t.hdr.ovflPoint]
		}
		t.hdr.ovflPoint = newPoint
	}
	t.publishGeo()
	t.dirtyHdr.Store(true)
	t.m.presizes.Inc()
	t.m.setShape(t.nkeysA.Load(), t.hdr.maxBucket)
	t.tr.Emit(trace.EvBatchPhase, trace.BatchPhasePresize, uint64(want), 0, 0)
}

// pendingPair tracks one deduplicated batch pair during a bucket pass.
type pendingPair struct {
	idx      int  // index into the batch (last occurrence of the key)
	inserted bool // new copy has been placed on a page
	removed  bool // stale copy from before the batch has been removed
}

// fltOp records one tag-filter mutation — a key's hash and its chain
// position — deferred until a bucket pass can settle them all on the
// primary page in a single pin.
type fltOp struct {
	h   uint32
	pos int
}

// putBucketGroup applies the batch pairs at idxs (all hashing to
// bucket) in one walk of the bucket's chain. Each page is visited
// exactly once: stale copies of batch keys found on it are removed
// first, then pending pairs are packed into the space. Pairs that do
// not fit anywhere on the existing chain go onto fresh overflow pages
// appended at the tail.
func (t *Table) putBucketGroup(bucket uint32, pairs []Pair, idxs []int, led *oplog.Ledger) error {
	// Deduplicate within the group, last occurrence winning — the
	// outcome sequential Puts would produce. Small groups use a linear
	// scan; large ones (a batch concentrated on few buckets) a map.
	pending := make([]pendingPair, 0, len(idxs))
	var byKey map[string]int
	if len(idxs) > 16 {
		byKey = make(map[string]int, len(idxs))
	}
	for _, i := range idxs {
		k := pairs[i].Key
		at := -1
		if byKey != nil {
			if j, ok := byKey[string(k)]; ok {
				at = j
			}
		} else {
			for j := range pending {
				if bytes.Equal(pairs[pending[j].idx].Key, k) {
					at = j
					break
				}
			}
		}
		if at >= 0 {
			pending[at].idx = i
		} else {
			pending = append(pending, pendingPair{idx: i})
			if byKey != nil {
				byKey[string(k)] = len(pending) - 1
			}
		}
	}
	// findPending locates the pending entry for a key found on a page.
	findPending := func(k []byte) int {
		if byKey != nil {
			if j, ok := byKey[string(k)]; ok {
				return j
			}
			return -1
		}
		for j := range pending {
			if bytes.Equal(pairs[pending[j].idx].Key, k) {
				return j
			}
		}
		return -1
	}

	// stale describes one on-page entry superseded by the batch.
	type stale struct {
		entry int // entry index on the page
		ref   oaddr
		sum   uint64 // regular pairs: fingerprint captured during the scan
		pi    int
	}
	left := len(pending)
	pos := -1
	var tailAddr buffer.Addr
	var rems []stale
	// Filter maintenance is incremental, like the single-Put path: stale
	// removals and placements are recorded with their chain positions
	// during the walk (the batch never unlinks pages, so positions stay
	// valid) and settled on the primary in one pin at the end. The keys'
	// hashes come from the in-memory batch, so big refs need no re-read.
	var fRems, fAdds []fltOp

	err := t.walkChain(led, bucket, func(buf *buffer.Buf) (bool, error) {
		pos++
		pg := page(buf.Page)
		tailAddr = buf.Addr

		// Pass 1 over the page: find entries the batch replaces. The
		// page is not modified during forEach; removals are applied
		// after, in descending entry order so indices stay valid.
		rems = rems[:0]
		var inner error
		ferr := pg.forEach(func(i int, e entry) bool {
			switch e.kind {
			case entryRegular:
				if pi := findPending(e.key); pi >= 0 && !pending[pi].removed {
					rems = append(rems, stale{entry: i, sum: pairHash(e.key, e.data), pi: pi})
				}
			case entryBig:
				bk, err := t.bigKey(e.ref)
				if err != nil {
					inner = err
					return false
				}
				if pi := findPending(bk); pi >= 0 && !pending[pi].removed {
					rems = append(rems, stale{entry: i, ref: e.ref, pi: pi})
				}
			}
			return true
		})
		if ferr != nil {
			return false, ferr
		}
		if inner != nil {
			return false, inner
		}
		for j := len(rems) - 1; j >= 0; j-- {
			r := rems[j]
			sum := r.sum
			if r.ref != 0 {
				// Fingerprint the replaced big pair before its chain is
				// freed.
				old, err := t.readBigData(r.ref, nil)
				if err != nil {
					return false, err
				}
				sum = pairHash(pairs[pending[r.pi].idx].Key, old)
				if err := t.freeBigChain(r.ref); err != nil {
					return false, err
				}
			}
			if err := pg.removeEntry(r.entry); err != nil {
				return false, err
			}
			buf.Dirty.Store(true)
			t.nkeysA.Add(-1)
			t.xorPairSum(sum)
			pending[r.pi].removed = true
			fRems = append(fRems, fltOp{h: t.hash(pairs[pending[r.pi].idx].Key), pos: pos})
		}

		// Pass 2: pack pending pairs into whatever space the page has
		// (including space the removals just opened).
		if left > 0 {
			if err := t.packPending(buf, pairs, pending, &left, pos, &fAdds); err != nil {
				return false, err
			}
		}
		// Always walk to the end: stale copies of batch keys may sit on
		// later pages even when every pair has been placed.
		return false, nil
	})
	if err != nil {
		return err
	}

	// Whatever did not fit on the existing chain goes onto fresh
	// overflow pages appended at the tail.
	if left > 0 {
		tail, err := t.fetchAddr(led, tailAddr, bucket)
		if err != nil {
			return err
		}
		tailPos := pos
		for left > 0 {
			nb, err := t.appendOvfl(tail)
			if err != nil {
				t.pool.Put(tail)
				return err
			}
			tailPos++
			before := left
			if err := t.packPending(nb, pairs, pending, &left, tailPos, &fAdds); err != nil {
				t.pool.Put(nb)
				t.pool.Put(tail)
				return err
			}
			if left == before {
				t.pool.Put(nb)
				t.pool.Put(tail)
				return fmt.Errorf("%w: pair does not fit on empty page", ErrCorrupt)
			}
			t.pool.Put(tail)
			tail = nb
		}
		t.pool.Put(tail)
	}

	// Settle the deferred filter ops on the primary in one pin. Removals
	// first: a replaced key's old tag must leave before its new one (at a
	// possibly different position) lands, or the remove could cancel the
	// wrong byte.
	if len(fRems) > 0 || len(fAdds) > 0 {
		pb, err := t.getBucketPage(led, bucket)
		if err != nil {
			return err
		}
		fpg := page(pb.Page)
		for _, op := range fRems {
			fpg.filterRemove(op.h, op.pos)
		}
		for _, op := range fAdds {
			fpg.filterAdd(op.h, op.pos)
		}
		pb.Dirty.Store(true)
		t.pool.Put(pb)
	}
	return nil
}

// packPending inserts every uninserted pending pair that fits on buf's
// page, decrementing *left and keeping nkeys and the pair checksum
// current. Big pairs are written to their chain first, then referenced.
// Each placement records a filter add at pos (buf's chain position) in
// *adds for the caller to settle on the primary.
func (t *Table) packPending(buf *buffer.Buf, pairs []Pair, pending []pendingPair, left *int, pos int, adds *[]fltOp) error {
	pg := page(buf.Page)
	for pi := range pending {
		p := &pending[pi]
		if p.inserted {
			continue
		}
		k, d := pairs[p.idx].Key, pairs[p.idx].Data
		if t.isBig(len(k), len(d)) {
			if !pg.fitsRef() {
				continue
			}
			ref, err := t.putBigPair(k, d)
			if err != nil {
				return err
			}
			pg.addRef(ref)
		} else {
			if !pg.fitsRegular(len(k), len(d)) {
				continue
			}
			pg.addRegular(k, d)
		}
		buf.Dirty.Store(true)
		p.inserted = true
		*left--
		t.nkeysA.Add(1)
		t.xorPairSum(pairHash(k, d))
		*adds = append(*adds, fltOp{h: t.hash(k), pos: pos})
	}
	return nil
}

// DefaultBatchSize is the flush threshold a BatchWriter uses when the
// caller passes zero.
const DefaultBatchSize = 4096

// batchArenaBlock is the allocation unit for a BatchWriter's staging
// arena.
const batchArenaBlock = 64 * 1024

// BatchWriter accumulates key/data pairs and applies them with
// PutBatch whenever the buffered count reaches its flush threshold,
// turning a stream of inserts into amortized bucket-grouped batches.
// Add copies the key and data into an internal arena, so callers may
// reuse their buffers between calls. A BatchWriter is not safe for
// concurrent use; give each ingesting goroutine its own (their flushes
// serialize on the table lock).
type BatchWriter struct {
	t     *Table
	limit int
	pairs []Pair
	cur   []byte   // staging block currently being filled
	full  [][]byte // filled blocks kept alive until Flush
}

// NewBatchWriter returns a writer that flushes every limit pairs
// (DefaultBatchSize if limit <= 0).
func (t *Table) NewBatchWriter(limit int) *BatchWriter {
	if limit <= 0 {
		limit = DefaultBatchSize
	}
	return &BatchWriter{t: t, limit: limit, pairs: make([]Pair, 0, limit)}
}

// stage copies b into the arena and returns the stable copy.
func (w *BatchWriter) stage(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	if cap(w.cur)-len(w.cur) < len(b) {
		if w.cur != nil {
			w.full = append(w.full, w.cur)
		}
		size := batchArenaBlock
		if len(b) > size {
			size = len(b)
		}
		w.cur = make([]byte, 0, size)
	}
	off := len(w.cur)
	w.cur = append(w.cur, b...)
	return w.cur[off:len(w.cur):len(w.cur)]
}

// Add buffers one pair, flushing the accumulated batch if the
// threshold is reached.
func (w *BatchWriter) Add(key, data []byte) error {
	if len(key) == 0 {
		return ErrEmptyKey
	}
	w.pairs = append(w.pairs, Pair{Key: w.stage(key), Data: w.stage(data)})
	if len(w.pairs) >= w.limit {
		return w.Flush()
	}
	return nil
}

// Pending reports the number of buffered, not yet flushed pairs.
func (w *BatchWriter) Pending() int { return len(w.pairs) }

// Flush applies the buffered pairs with PutBatch. It is a no-op when
// nothing is buffered; callers must Flush once after the last Add.
func (w *BatchWriter) Flush() error {
	if len(w.pairs) == 0 {
		return nil
	}
	err := w.t.PutBatch(w.pairs)
	w.pairs = w.pairs[:0]
	w.full = nil
	w.cur = w.cur[:0]
	return err
}
