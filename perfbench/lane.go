package main

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"

	"unixhash/internal/db"
)

// lane is one load goroutine's private accounting: latency histograms
// and op counts, split by whether the op ran in a traced window (always
// untraced in an untraced run). Lanes merge after their goroutines join.
type lane struct {
	tr  *tracer
	win *window // set on the one lane that flips the traced windows

	h   [2]opHists
	ops [2]int64

	attempted, failed int64
	gets, puts        int64
	putBytes          int64 // user key+value bytes written
	nextSample        int64
}

type opHists struct{ get, miss, put, del, txn, all hist }

// mode reports whether the op starting at t runs in a traced window.
func (l *lane) mode(t int64) int {
	if l.tr == nil {
		return 0
	}
	if l.win != nil {
		if l.win.tick(t) {
			return 1
		}
		return 0
	}
	if l.tr.on.Load() {
		return 1
	}
	return 0
}

// sample reports whether a traced-window op gets spans, one in every.
func (l *lane) sample(mode int, every int64) bool {
	if mode == 0 {
		return false
	}
	l.nextSample++
	return l.nextSample%every == 0
}

// fail counts a failed op and reports the first few on stderr.
func (l *lane) fail(format string, args ...any) {
	l.failed++
	if l.failed <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	}
}

func (l *lane) merge(o *lane) {
	for m := range l.h {
		a, b := &l.h[m], &o.h[m]
		a.get.merge(&b.get)
		a.miss.merge(&b.miss)
		a.put.merge(&b.put)
		a.del.merge(&b.del)
		a.txn.merge(&b.txn)
		a.all.merge(&b.all)
		l.ops[m] += o.ops[m]
	}
	l.attempted += o.attempted
	l.failed += o.failed
	l.gets += o.gets
	l.puts += o.puts
	l.putBytes += o.putBytes
}

// cpuNS is the process's user plus system CPU time so far. Throughput
// is reported per CPU second: on a shared VM a neighbour's load moves
// wall-clock throughput by a fifth between runs, CPU per op by a few
// percent.
func cpuNS() int64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// setupStart collects the garbage earlier set-ups left, so each set-up
// starts from the same heap, and reads the wall and process CPU clocks.
func setupStart() (wall, cpu int64) {
	runtime.GC()
	return now(), cpuNS()
}

// us converts a nanosecond quantile to microseconds.
func us(ns float64) float64 { return ns / 1e3 }

// Driver-side spans: the benchmark's calls into the database, timed for
// the latency metrics and, when sampled, recorded as db spans.

// spanBegin registers a sampled db call on key, so hash calls on that
// key are recorded as its children.
func spanBegin(tr *tracer, sampled bool, key []byte) (slot int, tag uint64) {
	if !sampled {
		return -1, 0
	}
	tag = keyTag(key)
	return tr.enter(tag), tag
}

// spanEnd records a sampled db call of kind k that ran from st to en.
func spanEnd(tr *tracer, sampled bool, slot int, tag uint64, k spanKind, st, en int64) {
	if sampled {
		tr.leave(slot)
		tr.record(span{kind: k, start: st, end: en, tag: tag})
	}
}

// timedGet times one GetBuf call; a sampled call is also recorded as a
// db span (hit or miss).
func timedGet(tr *tracer, sampled bool, d db.DB, key, buf []byte) (int64, []byte, error) {
	slot, tag := spanBegin(tr, sampled, key)
	st := now()
	v, err := d.GetBuf(key, buf)
	en := now()
	kind := kDbGet
	if err != nil {
		kind = kDbMiss
	}
	spanEnd(tr, sampled, slot, tag, kind, st, en)
	return en - st, v, err
}

// timedPut is timedGet's counterpart for Put.
func timedPut(tr *tracer, sampled bool, d db.DB, key, val []byte) (int64, error) {
	slot, tag := spanBegin(tr, sampled, key)
	st := now()
	err := d.Put(key, val)
	en := now()
	spanEnd(tr, sampled, slot, tag, kDbPut, st, en)
	return en - st, err
}

// sleepUntil blocks until the benchmark clock reaches t.
func sleepUntil(t int64) {
	for {
		d := t - now()
		if d <= 0 {
			return
		}
		time.Sleep(time.Duration(d))
	}
}

// opSpan records a sampled driver op that began at st.
func opSpan(tr *tracer, sampled bool, k spanKind, st int64, key []byte) {
	if sampled {
		tr.record(span{kind: k, start: st, end: now(), tag: keyTag(key)})
	}
}

// timedDelete is timedGet's counterpart for Delete.
func timedDelete(tr *tracer, sampled bool, d db.DB, key []byte) (int64, error) {
	slot, tag := spanBegin(tr, sampled, key)
	st := now()
	err := d.Delete(key)
	en := now()
	spanEnd(tr, sampled, slot, tag, kDbDel, st, en)
	return en - st, err
}
