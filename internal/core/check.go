package core

import (
	"fmt"

	"unixhash/internal/buffer"
)

// Check walks the whole table verifying its structural invariants:
//
//   - every key hashes to the bucket whose chain holds it;
//   - chains are acyclic and every linked overflow page is marked
//     allocated in its split point's bitmap;
//   - big-pair chains are intact, marked allocated, and not shared;
//   - no overflow page is referenced twice;
//   - every allocated bitmap bit is accounted for by a chain page, a
//     big-pair page or the bitmap page itself (no leaked pages);
//   - the key count matches the header;
//   - every bucket's tag filter covers its chain: an unsaturated filter
//     must hold a matching tag for every resident key (a false negative
//     would make Get answer "absent" for a stored key), exact position
//     hints must point at the page actually holding each key, the tag
//     count must equal the bucket's key count, and the recorded chain
//     length must match the real one while below its saturation point.
//
// It is exported for tests and the hashdump -check command.
func (t *Table) Check() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.checkOpen(); err != nil {
		return err
	}

	used := make(map[oaddr]string) // page -> what references it
	claim := func(o oaddr, what string) error {
		if prev, dup := used[o]; dup {
			return fmt.Errorf("hash check: overflow page %v used by both %s and %s", o, prev, what)
		}
		if err := t.checkAllocated(o); err != nil {
			return err
		}
		used[o] = what
		return nil
	}

	var count int64
	var sum uint64
	for b := uint32(0); b <= t.hdr.maxBucket; b++ {
		if err := t.checkBucket(b, claim, &count, &sum); err != nil {
			return err
		}
	}
	if count != t.nkeysA.Load() {
		return fmt.Errorf("hash check: %d keys found, header says %d", count, t.nkeysA.Load())
	}
	if sum != t.pairSumA.Load() {
		return fmt.Errorf("hash check: pair fingerprint %#x, header says %#x", sum, t.pairSumA.Load())
	}

	// Leak detection: every allocated bit must be claimed or be a
	// bitmap page.
	for s := uint32(0); s < maxSplits; s++ {
		if t.hdr.bitmaps[s] == 0 {
			continue
		}
		bm, err := t.bitmapFor(s)
		if err != nil {
			return err
		}
		for pn := uint32(1); pn <= t.hdr.allocatedAt(s); pn++ {
			if !bitmapGet(bm, pn-1) {
				continue
			}
			o := makeOaddr(s, pn)
			if uint16(o) == t.hdr.bitmaps[s] {
				continue
			}
			if _, ok := used[o]; !ok {
				return fmt.Errorf("hash check: overflow page %v allocated but unreferenced (leak)", o)
			}
		}
	}
	return nil
}

// checkAllocated verifies o's bitmap bit is set.
func (t *Table) checkAllocated(o oaddr) error {
	s, pn := o.split(), o.pagenum()
	if s >= maxSplits || pn == 0 || pn > t.hdr.allocatedAt(s) {
		return fmt.Errorf("hash check: overflow address %v out of allocated range", o)
	}
	bm, err := t.bitmapFor(s)
	if err != nil {
		return err
	}
	if bm == nil || !bitmapGet(bm, pn-1) {
		return fmt.Errorf("hash check: overflow page %v referenced but not allocated", o)
	}
	return nil
}

// checkBucket walks one bucket's chain, accumulating the key count and
// the XOR pair fingerprint, then validates the primary page's tag
// filter against the keys the walk actually found.
func (t *Table) checkBucket(bucket uint32, claim func(oaddr, string) error, count *int64, sum *uint64) error {
	seen := 0
	var chainErr error
	// Filter state snapshot from the primary, and every key's (hash,
	// chain position) as found by the walk.
	var fltSat, fltInex bool
	var fltTags []byte
	fltChain := 0
	var keys []fltOp
	err := t.walkChain(nil, bucket, func(buf *buffer.Buf) (bool, error) {
		if seen++; seen > 1<<16 {
			return false, fmt.Errorf("hash check: bucket %d chain exceeds 65536 pages (cycle?)", bucket)
		}
		pos := seen - 1
		pg := page(buf.Page)
		if buf.Addr.Ovfl {
			if err := claim(oaddr(buf.Addr.N), fmt.Sprintf("bucket %d chain", bucket)); err != nil {
				return false, err
			}
		} else {
			fltSat, fltInex = pg.fltSaturatedBit(), pg.fltInexactBit()
			fltChain = pg.fltChainLen()
			fltTags = append([]byte(nil), pg[fltTagsOff:fltTagsOff+pg.fltCount()]...)
		}
		ferr := pg.forEach(func(i int, e entry) bool {
			switch e.kind {
			case entryRegular:
				if want := t.calcBucket(t.hash(e.key)); want != bucket {
					chainErr = fmt.Errorf("hash check: key %q stored in bucket %d, hashes to %d",
						truncKey(e.key), bucket, want)
					return false
				}
				keys = append(keys, fltOp{h: t.hash(e.key), pos: pos})
				*count++
				*sum ^= pairHash(e.key, e.data)
			case entryBig:
				key, pages, err := t.bigChainPages(e.ref)
				if err != nil {
					chainErr = err
					return false
				}
				for _, p := range pages {
					if err := claim(p, fmt.Sprintf("big pair %q", truncKey(key))); err != nil {
						chainErr = err
						return false
					}
				}
				if want := t.calcBucket(t.hash(key)); want != bucket {
					chainErr = fmt.Errorf("hash check: big key %q referenced from bucket %d, hashes to %d",
						truncKey(key), bucket, want)
					return false
				}
				data, err := t.readBigData(e.ref, nil)
				if err != nil {
					chainErr = err
					return false
				}
				keys = append(keys, fltOp{h: t.hash(key), pos: pos})
				*count++
				*sum ^= pairHash(key, data)
			}
			return true
		})
		if ferr != nil {
			return false, ferr
		}
		if chainErr != nil {
			return false, chainErr
		}
		return false, nil
	})
	if err != nil {
		return err
	}
	return t.checkFilter(bucket, fltSat, fltInex, fltChain, fltTags, seen-1, keys)
}

// checkFilter validates one bucket's tag filter against the keys its
// chain walk found. A saturated filter answers nothing and is vacuously
// valid; fltChainLen is validated whenever it is below its saturation
// point (a value under 255 is maintained exactly).
func (t *Table) checkFilter(bucket uint32, sat, inexact bool, chainLen int, tags []byte, novfl int, keys []fltOp) error {
	if t.needsRecovery {
		return nil // torn filter bytes are rebuilt by Recover, not Check
	}
	if chainLen < 255 && chainLen != novfl {
		return fmt.Errorf("hash check: bucket %d filter records %d overflow pages, chain has %d",
			bucket, chainLen, novfl)
	}
	if sat {
		return nil
	}
	if len(tags) != len(keys) {
		return fmt.Errorf("hash check: bucket %d filter holds %d tags for %d keys",
			bucket, len(tags), len(keys))
	}
	for _, k := range keys {
		hints := tagHints(tags, k.h)
		if hints == 0 {
			return fmt.Errorf("hash check: bucket %d filter has no tag for a key at chain position %d (false negative)",
				bucket, k.pos)
		}
		if !inexact {
			hb := k.pos
			if hb > maxHint {
				hb = maxHint
			}
			if hints&(1<<hb) == 0 {
				return fmt.Errorf("hash check: bucket %d filter hints %#x miss a key at chain position %d",
					bucket, hints, k.pos)
			}
		}
	}
	return nil
}

// bigChainPages returns a big pair's key and the chain's page list,
// validating chain integrity along the way.
func (t *Table) bigChainPages(start oaddr) ([]byte, []oaddr, error) {
	key, err := t.bigKey(start)
	if err != nil {
		return nil, nil, err
	}
	var pages []oaddr
	buf := t.getScratch()
	defer t.putScratch(buf)
	o := start
	for o != 0 {
		if len(pages) > 1<<16 {
			return nil, nil, fmt.Errorf("hash check: big chain at %v exceeds 65536 pages (cycle?)", start)
		}
		pages = append(pages, o)
		_, next, err := t.readBigChainPage(o, buf)
		if err != nil {
			return nil, nil, err
		}
		o = next
	}
	return key, pages, nil
}
