package main

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"unixhash/internal/hashfunc"
)

// Tracing for the traced run. Spans come from three boundaries, all in
// the benchmark's own code: the driver op or client request (level 0),
// the call into the database (level 1), and the hash-function or
// page-store call underneath it (level 2). Spans are kept in a fixed
// in-memory array and written out when the run ends; parents and
// request ids are resolved afterwards from time containment and the
// key each span carries.

var epoch = time.Now()

// now is the benchmark's clock: monotonic nanoseconds since start.
func now() int64 { return int64(time.Since(epoch)) }

type spanKind uint8

const (
	kOpGet spanKind = iota // level 0: driver op / client request
	kOpMiss
	kOpPut
	kOpDel
	kOpTxn
	kOpSync
	kDbGet // level 1: db call
	kDbMiss
	kDbPut
	kDbDel
	kDbBatch
	kDbCommit
	kDbSync
	kHash // level 2: hash function, page store
	kPfRead
	kPfWrite
	kPfSync
	nKinds
)

var kindNames = [nKinds]string{
	"op.get", "op.miss", "op.put", "op.del", "op.txn", "op.sync",
	"db.get", "db.miss", "db.put", "db.del", "db.putbatch", "db.commit", "db.sync",
	"hashfunc", "pagefile.read", "pagefile.write", "pagefile.sync",
}

func (k spanKind) level() int {
	switch {
	case k < kDbGet:
		return 0
	case k < kHash:
		return 1
	}
	return 2
}

type span struct {
	start, end int64
	tag        uint64 // first 8 key bytes; 0 when the call has no key
	parent     int32  // resolved after the run; -1 for none
	kind       spanKind
}

// keyTag identifies the key a span works on; keys never start with a
// zero byte, so 0 means "no key".
func keyTag(k []byte) uint64 {
	var b [8]byte
	copy(b[:], k)
	return binary.BigEndian.Uint64(b[:])
}

// tracer records spans and the wrappers' counters. A nil *tracer is an
// untraced run: the wrappers built around it pass straight through.
type tracer struct {
	on      atomic.Bool // inside a traced window
	spans   []span
	n       atomic.Int64
	dropped atomic.Int64

	// slots hold the key tags of sampled db calls in flight; a hash call
	// on one of those keys is recorded as that call's child.
	slots    [8]atomic.Uint64
	inflight atomic.Int32 // sampled db calls in flight

	hashCalls atomic.Int64

	// Page-store wrapper: per-call latency and busy time.
	pfRead, pfWrite, pfSync ahist
	pfBusy                  atomic.Int64

	// Database wrapper (serve-mixed): per-call latency and busy time.
	dbGet, dbBatch, dbCommit     ahist
	dbBusy, dbBulkSampleCtr      atomic.Int64
	dbBatches, dbPairs, dbMultis atomic.Int64 // every PutBatch call, traced window or not
}

// spanBudget caps the spans one traced run keeps (32 MB).
const spanBudget = 1 << 20

func newTracer(capacity int) *tracer { return &tracer{spans: make([]span, capacity)} }

func (t *tracer) record(s span) {
	i := t.n.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return
	}
	s.parent = -1
	t.spans[i] = s
}

// enter registers a sampled db call on key tag; leave undoes it.
func (t *tracer) enter(tag uint64) int {
	t.inflight.Add(1)
	for i := range t.slots {
		if t.slots[i].CompareAndSwap(0, tag) {
			return i
		}
	}
	return -1
}

func (t *tracer) leave(slot int) {
	if slot >= 0 {
		t.slots[slot].Store(0)
	}
	t.inflight.Add(-1)
}

func (t *tracer) sampledKey(tag uint64) bool {
	if t.inflight.Load() == 0 {
		return false
	}
	for i := range t.slots {
		if t.slots[i].Load() == tag {
			return true
		}
	}
	return false
}

// hash is the counting hash-function wrapper handed to core.Options.Hash.
// It returns exactly hashfunc.Default's value, so the table's stored
// check hash matches an untraced open.
func (t *tracer) hash(key []byte) uint32 {
	if !t.on.Load() {
		return hashfunc.Default(key)
	}
	t.hashCalls.Add(1)
	tag := keyTag(key)
	if !t.sampledKey(tag) {
		return hashfunc.Default(key)
	}
	st := now()
	h := hashfunc.Default(key)
	t.record(span{kind: kHash, start: st, end: now(), tag: tag})
	return h
}

// window drives the traced/untraced alternation of a traced run: one
// goroutine calls tick per op; the flag flips every windowNS.
type window struct {
	t     *tracer
	start int64
}

const windowNS = int64(200 * time.Millisecond)

func (w *window) tick(at int64) bool {
	on := ((at-w.start)/windowNS)%2 == 1
	if w.t.on.Load() != on {
		w.t.on.Store(on)
	}
	return on
}

// tracedShare is the part of [from, to) that falls in traced windows.
func (w *window) tracedShare(from, to int64) (traced, untraced float64) {
	var tr int64
	for s := w.start; s < to; s += windowNS {
		if ((s-w.start)/windowNS)%2 == 0 {
			continue
		}
		a, b := max(s, from), min(s+windowNS, to)
		if b > a {
			tr += b - a
		}
	}
	return float64(tr), float64(to - from - tr)
}

// ---- analysis ----

// layerOf maps a span to the layer its self time is charged to.
func layerOf(k spanKind, served bool) string {
	switch {
	case k.level() == 0 && served:
		return "server"
	case k.level() == 0:
		return "driver"
	case k.level() == 1:
		return "core"
	case k == kHash:
		return "hashfunc"
	}
	return "pagefile"
}

type kindStat struct {
	count    int
	orphans  int // spans no recorded parent contains (bulk calls, unsampled ops)
	dur      hist
	self     hist
	selfSum  int64
	children int
}

type analysis struct {
	spans   []span
	self    []int64
	req     []int32
	kinds   [nKinds]kindStat
	dropped int64
}

// analyze resolves parents, request ids and self times.
func (t *tracer) analyze() *analysis {
	n := min(t.n.Load(), int64(len(t.spans)))
	a := &analysis{spans: t.spans[:n], dropped: t.dropped.Load()}
	sp := a.spans
	byLevel := [3][]int32{}
	for i := range sp {
		l := sp[i].kind.level()
		byLevel[l] = append(byLevel[l], int32(i))
	}
	for l := range byLevel {
		idx := byLevel[l]
		sort.Slice(idx, func(x, y int) bool { return sp[idx[x]].start < sp[idx[y]].start })
	}
	link := func(children, parents []int32, needTag bool) {
		var active []int32
		p := 0
		for _, c := range children {
			cs := &sp[c]
			for p < len(parents) && sp[parents[p]].start <= cs.start {
				active = append(active, parents[p])
				p++
			}
			// Drop parents that ended before this child began.
			k := 0
			for _, q := range active {
				if sp[q].end >= cs.start {
					active[k] = q
					k++
				}
			}
			active = active[:k]
			best, bestTag, nContain := int32(-1), int32(-1), 0
			for _, q := range active {
				if sp[q].end < cs.end {
					continue
				}
				nContain++
				best = q
				if sp[q].tag == cs.tag && (bestTag < 0 || sp[q].start > sp[bestTag].start) {
					bestTag = q
				}
			}
			switch {
			case bestTag >= 0:
				cs.parent = bestTag
			case !needTag && nContain == 1:
				cs.parent = best
			default:
				a.kinds[cs.kind].orphans++
			}
		}
	}
	link(byLevel[1], byLevel[0], true)
	// Page-store spans carry no key: a unique containing db call owns one.
	link(byLevel[2], byLevel[1], false)

	a.req = make([]int32, len(sp))
	for _, l := range []int{0, 1, 2} {
		for _, i := range byLevel[l] {
			switch {
			case l == 0:
				a.req[i] = i
			case sp[i].parent >= 0:
				a.req[i] = a.req[sp[i].parent]
			default:
				a.req[i] = -1
			}
		}
	}

	// Self time: a span's duration minus the union of its children.
	kids := make([][]int32, len(sp))
	for i := range sp {
		if p := sp[i].parent; p >= 0 {
			kids[p] = append(kids[p], int32(i))
		}
	}
	a.self = make([]int64, len(sp))
	for i := range sp {
		s := &sp[i]
		dur := s.end - s.start
		cs := kids[i]
		sort.Slice(cs, func(x, y int) bool { return sp[cs[x]].start < sp[cs[y]].start })
		var covered, reach int64 = 0, s.start
		for _, c := range cs {
			lo, hi := max(sp[c].start, reach), min(sp[c].end, s.end)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		a.self[i] = dur - covered
		ks := &a.kinds[s.kind]
		ks.count++
		ks.dur.add(dur)
		ks.self.add(a.self[i])
		ks.selfSum += a.self[i]
		ks.children += len(cs)
	}
	return a
}

// selfTable writes the per-layer self-time table: one row per span
// kind, then the share of all sampled self time charged to each layer.
func (a *analysis) selfTable(w io.Writer, served bool) {
	fmt.Fprintf(w, "%-16s %-9s %9s %12s %12s %9s %10s\n", "span", "layer", "count", "p50_dur_ns", "p50_self_ns", "children", "unparented")
	layers := map[string]int64{}
	var total int64
	for k := spanKind(0); k < nKinds; k++ {
		ks := &a.kinds[k]
		if ks.count == 0 {
			continue
		}
		l := layerOf(k, served)
		fmt.Fprintf(w, "%-16s %-9s %9d %12.0f %12.0f %9d %10d\n", kindNames[k], l, ks.count, ks.dur.quantile(0.5), ks.self.quantile(0.5), ks.children, ks.orphans)
		layers[l] += ks.selfSum
		total += ks.selfSum
	}
	names := make([]string, 0, len(layers))
	for l := range layers {
		names = append(names, l)
	}
	sort.Strings(names)
	for _, l := range names {
		fmt.Fprintf(w, "self-time share %-9s %6.1f%%\n", l, 100*float64(layers[l])/float64(max(total, 1)))
	}
	fmt.Fprintf(w, "spans %d, dropped %d\n", len(a.spans), a.dropped)
}

// dump writes every span as CSV (gzip): name, start and end in ns since
// the benchmark started, parent index (-1 none), request id (index of
// the root span, -1 none), self time.
func (a *analysis) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "index,name,start_ns,end_ns,parent,request,self_ns")
	for i, s := range a.spans {
		fmt.Fprintf(bw, "%d,%s,%d,%d,%d,%d,%d\n", i, kindNames[s.kind], s.start, s.end, s.parent, a.req[i], a.self[i])
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfP50 is the median self time of the given kinds' spans, in ns.
func (a *analysis) selfP50(kinds ...spanKind) float64 {
	var h hist
	for _, k := range kinds {
		h.merge(&a.kinds[k].self)
	}
	return h.quantile(0.5)
}

// durP50 is the median duration of one kind's spans, in ns.
func (a *analysis) durP50(k spanKind) float64 { return a.kinds[k].dur.quantile(0.5) }
