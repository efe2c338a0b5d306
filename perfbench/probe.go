package main

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"syscall"

	"unixhash/internal/core"
	"unixhash/internal/db"
)

// probeCap bounds the capacity probe; a table still accepting keys at
// the cap reports the cap.
const probeCap = 600_000

// capacityProbe fills a fresh memory table of default geometry (bsize
// 256, ffactor 8, 64 KB pool) with 16-byte keys and 48-byte values
// until the first failed Put, and returns how many keys it holds then.
// Only running out of overflow pages ends the probe as a measurement;
// any other failure is an error of the run.
func capacityProbe(g gen) (int, string, error) {
	d, err := db.Open("", db.Hash, nil)
	if err != nil {
		return 0, "", err
	}
	defer d.Close()
	var k [keyLen]byte
	var v [valLen]byte
	for i := 0; i < probeCap; i++ {
		err := d.Put(g.key(k[:], nsProbe, i), g.value(v[:], nsProbe, i, 0, valLen))
		if errors.Is(err, core.ErrTooManyPages) {
			return i, err.Error(), nil
		}
		if err != nil {
			return 0, "", fmt.Errorf("capacity probe: put %d: %w", i, err)
		}
	}
	return probeCap, "cap reached", nil
}

// median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// allocatedBytes is the disk space a file occupies (st_blocks), which
// for a sparse page file is far below its length.
func allocatedBytes(path string) (float64, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	st, ok := fi.Sys().(*syscall.Stat_t)
	if !ok {
		return float64(fi.Size()), nil
	}
	return float64(st.Blocks) * 512, nil
}

// tablePages is the number of pages a hash table's structure occupies:
// buckets, overflow, big-pair and bitmap pages.
func tablePages(s db.Stats) int64 {
	h := s.Hash
	if h == nil {
		return 0
	}
	return int64(h.Buckets) + int64(h.OverflowPages) + int64(h.BigPairPages) + int64(h.BitmapPages)
}
