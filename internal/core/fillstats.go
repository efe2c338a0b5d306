package core

import (
	"fmt"

	"unixhash/internal/buffer"
)

// FillStats describes how the table's keys are spread over its pages —
// the observable side of the bucket-size/fill-factor tradeoff the paper
// tells time-critical applications to experiment with.
type FillStats struct {
	Buckets        uint32  // primary buckets (maxBucket + 1)
	OverflowPages  int     // overflow pages in bucket chains
	BigPairPages   int     // overflow pages holding big pairs
	BitmapPages    int     // allocator bitmap pages
	Keys           int64   // stored pairs
	MaxChain       int     // longest bucket chain in pages (1 = no overflow)
	AvgKeysPerPage float64 // keys / (buckets + overflow pages)
	AvgFill        float64 // used bytes / available bytes on data pages
	EmptyBuckets   int     // buckets with no keys at all
	// ChainDist is the chain-length distribution: ChainDist[i] buckets
	// have a chain of i+1 pages (index 0 = no overflow). Its length is
	// MaxChain.
	ChainDist []int
}

func (s FillStats) String() string {
	return fmt.Sprintf(
		"buckets=%d ovfl=%d big=%d keys=%d maxchain=%d keys/page=%.2f fill=%.0f%% empty=%d",
		s.Buckets, s.OverflowPages, s.BigPairPages, s.Keys, s.MaxChain,
		s.AvgKeysPerPage, 100*s.AvgFill, s.EmptyBuckets)
}

// FillStats scans the table and reports its space statistics.
func (t *Table) FillStats() (FillStats, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.checkOpen(); err != nil {
		return FillStats{}, err
	}
	s := FillStats{Buckets: t.hdr.maxBucket + 1, Keys: t.nkeysA.Load()}
	usable := int(t.hdr.bsize) - slotBaseFor(int(t.hdr.bsize))

	var usedBytes, availBytes int64
	for b := uint32(0); b <= t.hdr.maxBucket; b++ {
		chainLen := 0
		bucketKeys := 0
		err := t.walkChain(nil, b, func(buf *buffer.Buf) (bool, error) {
			chainLen++
			if buf.Addr.Ovfl {
				s.OverflowPages++
			}
			pg := page(buf.Page)
			bucketKeys += pg.nentries()
			usedBytes += int64(usable - pg.freeSpace())
			availBytes += int64(usable)
			return false, nil
		})
		if err != nil {
			return FillStats{}, err
		}
		if chainLen > s.MaxChain {
			s.MaxChain = chainLen
		}
		for len(s.ChainDist) < chainLen {
			s.ChainDist = append(s.ChainDist, 0)
		}
		if chainLen > 0 {
			s.ChainDist[chainLen-1]++
		}
		if bucketKeys == 0 {
			s.EmptyBuckets++
		}
	}

	// Count big-pair and bitmap pages from the allocator's view.
	for sp := uint32(0); sp < maxSplits; sp++ {
		if t.hdr.bitmaps[sp] == 0 {
			continue
		}
		s.BitmapPages++
		bm, err := t.bitmapFor(sp)
		if err != nil {
			return FillStats{}, err
		}
		for pn := uint32(1); pn <= t.hdr.allocatedAt(sp); pn++ {
			if bitmapGet(bm, pn-1) && uint16(makeOaddr(sp, pn)) != t.hdr.bitmaps[sp] {
				s.BigPairPages++
			}
		}
	}
	// Chain pages were counted among the allocated; what remains after
	// removing them is big-pair storage.
	s.BigPairPages -= s.OverflowPages
	if s.BigPairPages < 0 {
		s.BigPairPages = 0
	}

	dataPages := int(s.Buckets) + s.OverflowPages
	if dataPages > 0 {
		s.AvgKeysPerPage = float64(s.Keys) / float64(dataPages)
	}
	if availBytes > 0 {
		s.AvgFill = float64(usedBytes) / float64(availBytes)
	}
	return s, nil
}
