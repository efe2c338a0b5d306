package core

import (
	"fmt"

	"unixhash/internal/buffer"
)

// The heatmap is the live, read-locked view of how the table's keys and
// bytes are spread over its buckets: per-bucket fill factor and
// overflow-chain depth, cheap enough to serve from the telemetry
// endpoint while a workload runs. It deliberately walks only bucket
// chains under the shared lock (the same path Get uses), unlike
// FillStats, whose allocator accounting needs the exclusive lock.

// BucketHeat is one bucket's row in the heatmap.
type BucketHeat struct {
	Bucket     uint32  `json:"bucket"`
	Entries    int     `json:"entries"`
	BigRefs    int     `json:"big_refs,omitempty"`
	ChainPages int     `json:"chain_pages"` // overflow pages past the primary
	Fill       float64 `json:"fill"`        // used/usable bytes over the chain's pages
	// Tag-filter occupancy on the primary page: tags in use (out of the
	// table-wide FilterTagCap) and the degraded states.
	FilterTags      int  `json:"filter_tags"`
	FilterSaturated bool `json:"filter_saturated,omitempty"`
	FilterInexact   bool `json:"filter_inexact,omitempty"`
}

// Heatmap is the full per-bucket report.
type Heatmap struct {
	Buckets  uint32  `json:"buckets"`
	Bsize    int     `json:"bsize"`
	NKeys    int64   `json:"nkeys"`
	MaxChain int     `json:"max_chain_pages"` // deepest overflow chain
	AvgFill  float64 `json:"avg_fill"`
	// ChainDist[i] counts buckets with exactly i overflow pages.
	ChainDist []int        `json:"chain_dist"`
	PerBucket []BucketHeat `json:"per_bucket"`
	// Tag-filter state across the table: per-page tag capacity, mean
	// occupancy (tags in use over capacity), and degraded-bucket counts.
	FilterTagCap    int     `json:"filter_tag_cap"`
	FilterOccupancy float64 `json:"filter_occupancy"`
	FilterSaturated int     `json:"filter_saturated_buckets"`
	FilterInexact   int     `json:"filter_inexact_buckets"`
	// Filter effectiveness so far (lifetime counters): of the Gets that
	// consulted a filter, the fraction answered "absent" with zero chain
	// reads (skip rate) and the fraction that probed and still missed
	// (false-positive rate).
	FilterSkips     int64   `json:"filter_skips"`
	FilterHits      int64   `json:"filter_hits"`
	FilterFPs       int64   `json:"filter_false_positives"`
	FilterSkipRate  float64 `json:"filter_skip_rate"`
	FilterFPRate    float64 `json:"filter_fp_rate"`
	Prefetches      int64   `json:"prefetches"`
	PrefetchedPages int64   `json:"prefetched_pages"`
}

// String renders a compact summary plus a fill histogram for the CLIs.
func (h *Heatmap) String() string {
	s := fmt.Sprintf("buckets=%d keys=%d avgfill=%.0f%% maxchain=%d",
		h.Buckets, h.NKeys, 100*h.AvgFill, h.MaxChain)
	for depth, n := range h.ChainDist {
		if n > 0 {
			s += fmt.Sprintf(" chain[%d]=%d", depth, n)
		}
	}
	s += fmt.Sprintf("\nfilters: occupancy=%.0f%% (cap %d/bucket) saturated=%d inexact=%d skiprate=%.0f%% fprate=%.0f%% prefetched=%d pages",
		100*h.FilterOccupancy, h.FilterTagCap, h.FilterSaturated, h.FilterInexact,
		100*h.FilterSkipRate, 100*h.FilterFPRate, h.PrefetchedPages)
	return s
}

// Heatmap walks every bucket chain under the shared lock and reports
// per-bucket fill and chain depth. Readers and the walk run in parallel;
// writers are excluded for the duration (the same cost as a long scan).
func (t *Table) Heatmap() (*Heatmap, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if err := t.checkOpen(); err != nil {
		return nil, err
	}
	maxB := t.geo.Load()
	h := &Heatmap{
		Buckets:   maxB + 1,
		Bsize:     int(t.hdr.bsize),
		NKeys:     t.nkeysA.Load(),
		PerBucket: make([]BucketHeat, 0, maxB+1),
	}
	usable := int(t.hdr.bsize) - slotBaseFor(int(t.hdr.bsize))
	var usedTotal, availTotal int64
	for b := uint32(0); b <= maxB; b++ {
		row := BucketHeat{Bucket: b}
		used := 0
		pages := 0
		t.latchBucketRead(b)
		err := t.walkChain(nil, b, func(buf *buffer.Buf) (bool, error) {
			if buf.Addr.Ovfl {
				row.ChainPages++
			}
			pages++
			pg := page(buf.Page)
			if !buf.Addr.Ovfl {
				row.FilterTags = pg.fltCount()
				row.FilterSaturated = pg.fltSaturatedBit()
				row.FilterInexact = pg.fltInexactBit()
			}
			used += usable - pg.freeSpace()
			return false, pg.forEach(func(_ int, e entry) bool {
				row.Entries++
				if e.kind == entryBig {
					row.BigRefs++
				}
				return true
			})
		})
		t.stripeFor(b).RUnlock()
		if err != nil {
			return nil, err
		}
		if pages > 0 {
			row.Fill = float64(used) / float64(pages*usable)
		}
		usedTotal += int64(used)
		availTotal += int64(pages * usable)
		if row.ChainPages > h.MaxChain {
			h.MaxChain = row.ChainPages
		}
		for len(h.ChainDist) <= row.ChainPages {
			h.ChainDist = append(h.ChainDist, 0)
		}
		h.ChainDist[row.ChainPages]++
		h.PerBucket = append(h.PerBucket, row)
	}
	if availTotal > 0 {
		h.AvgFill = float64(usedTotal) / float64(availTotal)
	}

	// Filter roll-up: per-page occupancy plus the lifetime skip and
	// false-positive rates from the table's counters.
	h.FilterTagCap = tagCapFor(int(t.hdr.bsize))
	tagsTotal := 0
	for _, row := range h.PerBucket {
		tagsTotal += row.FilterTags
		if row.FilterSaturated {
			h.FilterSaturated++
		}
		if row.FilterInexact {
			h.FilterInexact++
		}
	}
	if n := int(h.Buckets) * h.FilterTagCap; n > 0 {
		h.FilterOccupancy = float64(tagsTotal) / float64(n)
	}
	h.FilterSkips = t.m.filterSkips.Load()
	h.FilterHits = t.m.filterHits.Load()
	h.FilterFPs = t.m.filterFPs.Load()
	if consults := h.FilterSkips + h.FilterHits + h.FilterFPs; consults > 0 {
		h.FilterSkipRate = float64(h.FilterSkips) / float64(consults)
		h.FilterFPRate = float64(h.FilterFPs) / float64(consults)
	}
	h.Prefetches = t.m.prefetches.Load()
	h.PrefetchedPages = t.m.prefetchedPages.Load()
	return h, nil
}
