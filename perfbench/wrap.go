package main

import (
	"errors"

	"unixhash/internal/db"
	"unixhash/internal/oplog"
	"unixhash/internal/pagefile"
)

// timedStore is the page-store wrapper passed as core.Options.Store by
// the embedded workloads, in traced and untraced runs alike so both
// build the table the same way. With a nil tracer, or outside a traced
// window, every call goes straight to the inner store.
type timedStore struct {
	pagefile.Store
	vr pagefile.VectorReader
	vw pagefile.VectorWriter
	t  *tracer
}

// newTimedStore wraps a store that implements vectored I/O (the file and
// memory stores both do), so the buffer pool keeps its vectored paths.
func newTimedStore(s pagefile.Store, t *tracer) *timedStore {
	return &timedStore{Store: s, vr: s.(pagefile.VectorReader), vw: s.(pagefile.VectorWriter), t: t}
}

func (s *timedStore) tracing() bool { return s.t != nil && s.t.on.Load() }

// done accounts one timed page-store call that began at st.
func (s *timedStore) done(k spanKind, st int64) {
	en := now()
	switch k {
	case kPfRead:
		s.t.pfRead.add(en - st)
	case kPfWrite:
		s.t.pfWrite.add(en - st)
	default:
		s.t.pfSync.add(en - st)
	}
	s.t.pfBusy.Add(en - st)
	if s.t.inflight.Load() > 0 {
		s.t.record(span{kind: k, start: st, end: en})
	}
}

func (s *timedStore) ReadPage(pageno uint32, buf []byte) error {
	if !s.tracing() {
		return s.Store.ReadPage(pageno, buf)
	}
	st := now()
	err := s.Store.ReadPage(pageno, buf)
	s.done(kPfRead, st)
	return err
}

func (s *timedStore) ReadPages(pageno uint32, buf []byte) error {
	if !s.tracing() {
		return s.vr.ReadPages(pageno, buf)
	}
	st := now()
	err := s.vr.ReadPages(pageno, buf)
	s.done(kPfRead, st)
	return err
}

func (s *timedStore) WritePage(pageno uint32, buf []byte) error {
	if !s.tracing() {
		return s.Store.WritePage(pageno, buf)
	}
	st := now()
	err := s.Store.WritePage(pageno, buf)
	s.done(kPfWrite, st)
	return err
}

func (s *timedStore) WritePages(pageno uint32, buf []byte) error {
	if !s.tracing() {
		return s.vw.WritePages(pageno, buf)
	}
	st := now()
	err := s.vw.WritePages(pageno, buf)
	s.done(kPfWrite, st)
	return err
}

func (s *timedStore) Sync() error {
	if !s.tracing() {
		return s.Store.Sync()
	}
	st := now()
	err := s.Store.Sync()
	s.done(kPfSync, st)
	return err
}

// timedDB is the wrapper handed to server.Options.DB in the traced
// serve-mixed run. It forwards every call to the sharded database and
// implements db.OpDB (the embedded *db.Sharded supplies PutOp and
// DeleteOp), so the server keeps its op-ledger path. It times the calls
// the server makes and records a span for every interactive call and
// one in eight bulk calls.
type timedDB struct {
	*db.Sharded
	t *tracer
}

// interactiveKey tells the interactive connection's keys from the bulk
// connection's by namespace.
func interactiveKey(k []byte) bool { return len(k) > 0 && (k[0] == nsShared || k[0] == nsMiss) }

// dbCall is one timed call in progress.
type dbCall struct {
	st      int64
	tag     uint64
	slot    int
	sampled bool
}

// begin starts timing a call on key; ok is false outside traced windows.
func (w *timedDB) begin(key []byte) (c dbCall, ok bool) {
	t := w.t
	if !t.on.Load() {
		return c, false
	}
	c.sampled = interactiveKey(key) || t.dbBulkSampleCtr.Add(1)%8 == 0
	c.tag = keyTag(key)
	c.slot = -1
	if c.sampled {
		c.slot = t.enter(c.tag)
	}
	c.st = now()
	return c, true
}

// end finishes a call begun by begin, as a span of kind k.
func (w *timedDB) end(c dbCall, k spanKind, h *ahist) {
	en := now()
	t := w.t
	if c.sampled {
		t.leave(c.slot)
		t.record(span{kind: k, start: c.st, end: en, tag: c.tag})
	}
	h.add(en - c.st)
	t.dbBusy.Add(en - c.st)
}

func (w *timedDB) GetBufOp(led *oplog.Ledger, key, dst []byte) ([]byte, error) {
	c, ok := w.begin(key)
	v, err := w.Sharded.GetBufOp(led, key, dst)
	if ok {
		k := kDbGet
		if errors.Is(err, db.ErrNotFound) {
			k = kDbMiss
		}
		w.end(c, k, &w.t.dbGet)
	}
	return v, err
}

func (w *timedDB) PutBatchOp(led *oplog.Ledger, pairs []db.Pair) error {
	k := kDbBatch
	var key []byte
	if len(pairs) > 0 {
		key = pairs[0].Key
		if len(pairs) == 1 && interactiveKey(key) {
			k = kDbPut
		}
	}
	c, ok := w.begin(key)
	err := w.Sharded.PutBatchOp(led, pairs)
	if ok {
		w.end(c, k, &w.t.dbBatch)
	}
	w.t.dbBatches.Add(1)
	w.t.dbPairs.Add(int64(len(pairs)))
	if len(pairs) > 1 {
		w.t.dbMultis.Add(1)
	}
	return err
}

func (w *timedDB) BeginOp(led *oplog.Ledger) (db.Txn, error) {
	x, err := w.Sharded.BeginOp(led)
	if err != nil {
		return nil, err
	}
	return &timedTxn{Txn: x, w: w}, nil
}

// timedTxn times Commit; it remembers the first key so the commit span
// can be matched to the client's TXN request.
type timedTxn struct {
	db.Txn
	w   *timedDB
	key []byte
}

func (x *timedTxn) Put(key, data []byte) error {
	if x.key == nil {
		x.key = append([]byte(nil), key...)
	}
	return x.Txn.Put(key, data)
}

func (x *timedTxn) Commit() error {
	c, ok := x.w.begin(x.key)
	err := x.Txn.Commit()
	if ok {
		x.w.end(c, kDbCommit, &x.w.t.dbCommit)
	}
	return err
}
