package main

import (
	"math/bits"
	"sync/atomic"
)

// hist is a log-linear latency histogram over nanoseconds: 64
// sub-buckets per power of two (under 1.6% relative width). Quantiles
// interpolate linearly inside the bucket, so a median moves with the
// data instead of snapping to a bucket edge. Plain adds: one hist per
// goroutine, merged after the goroutines have joined.
type hist struct {
	n      int64
	counts [histBuckets]int64
}

const (
	subBits     = 6
	subCount    = 1 << subBits
	histBuckets = (65 - subBits) * subCount
)

func histIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < 2*subCount {
		return int(u)
	}
	e := bits.Len64(u) - subBits - 1 // u>>e lies in [subCount, 2*subCount)
	return (e+1)*subCount + int(u>>e) - subCount
}

// histBounds returns bucket i's value range [lo, hi).
func histBounds(i int) (lo, hi float64) {
	if i < 2*subCount {
		return float64(i), float64(i + 1)
	}
	e := i/subCount - 1
	m := i%subCount + subCount
	return float64(uint64(m) << e), float64(uint64(m+1) << e)
}

func (h *hist) add(ns int64) {
	h.counts[histIndex(ns)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds (0 for an empty hist).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			lo, hi := histBounds(i)
			return lo + (hi-lo)*(target-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, _ := histBounds(histBuckets - 1)
	return lo
}

// ahist is the concurrent form, for spans recorded on goroutines the
// benchmark does not own (server connections, shard fan-out).
type ahist struct {
	counts [histBuckets]atomic.Int64
}

func (a *ahist) add(ns int64) { a.counts[histIndex(ns)].Add(1) }

func (a *ahist) load() *hist {
	h := new(hist)
	for i := range a.counts {
		c := a.counts[i].Load()
		h.counts[i] = c
		h.n += c
	}
	return h
}
