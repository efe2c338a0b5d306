package buffer

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"unixhash/internal/pagefile"
)

// TestBufSizeClass keeps the buffer header in Go's 80-byte size class: a
// header one word larger rounds up to 96 bytes, and a pool holds one
// header per resident page.
func TestBufSizeClass(t *testing.T) {
	var b Buf
	if n := unsafe.Sizeof(b); n > 80 {
		t.Fatalf("sizeof(Buf) = %d, want <= 80", n)
	}
}

// Link-model layout: bucket b's overflow chain is linkChainLen pages at
// consecutive overflow addresses b*16+1 … b*16+linkChainLen. Every page
// stores its successor's overflow address in its first four bytes (0 at
// the end), and page numbers are contiguous per chain so read-ahead
// finds each chain in one span. Page links only ever point to a higher
// address, so no walk can build a cycle.
const (
	linkBuckets  = 8
	linkChainLen = 6
)

func linkOvfl(bucket uint32, pos int) Addr {
	return Addr{N: bucket*16 + uint32(pos), Ovfl: true}
}

func linkNext(pg []byte) (Addr, bool) {
	n := binary.LittleEndian.Uint32(pg)
	if n == 0 {
		return Addr{}, true
	}
	return Addr{N: n, Ovfl: true}, true
}

func newLinkStore(t *testing.T) *pagefile.MemStore {
	t.Helper()
	store := pagefile.NewMem(64, pagefile.CostModel{})
	pg := make([]byte, 64)
	for b := uint32(0); b < linkBuckets; b++ {
		for pos := 0; pos <= linkChainLen; pos++ {
			next := uint32(0)
			if pos < linkChainLen {
				next = linkOvfl(b, pos+1).N
			}
			binary.LittleEndian.PutUint32(pg, next)
			addr := Addr{N: b}
			if pos > 0 {
				addr = linkOvfl(b, pos)
			}
			if err := store.WritePage(identityMap(addr), pg); err != nil {
				t.Fatal(err)
			}
		}
	}
	return store
}

// checkLinks verifies the pool's two-way chain links: every resident
// buffer's successor is resident in the same shard and points back at
// it, every back pointer is answered by its target's forward link, no
// two buffers share a successor, and nothing on a free list is resident
// or still linked.
func checkLinks(p *Pool) error {
	free := map[*Buf]bool{}
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		for _, b := range sh.free {
			if b.ovfl != nil || b.back != nil {
				sh.mu.Unlock()
				return fmt.Errorf("free buffer %v still linked", b.Addr)
			}
			free[b] = true
		}
		sh.mu.Unlock()
	}
	targets := map[*Buf]*Buf{}
	resident := 0
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		resident += len(sh.table)
		for _, b := range sh.table {
			if err := checkBufLinks(sh, b, free, targets); err != nil {
				sh.mu.Unlock()
				return err
			}
		}
		sh.mu.Unlock()
	}
	if int64(resident) != p.resident.Load() {
		return fmt.Errorf("tables hold %d buffers, resident counter says %d", resident, p.resident.Load())
	}
	return nil
}

func checkBufLinks(sh *shard, b *Buf, free map[*Buf]bool, targets map[*Buf]*Buf) error {
	if free[b] {
		return fmt.Errorf("resident buffer %v is on a free list", b.Addr)
	}
	if o := b.ovfl; o != nil {
		switch {
		case free[o]:
			return fmt.Errorf("%v links to free buffer %v", b.Addr, o.Addr)
		case sh.table[o.Addr] != o:
			return fmt.Errorf("%v links to %v, not resident in its shard", b.Addr, o.Addr)
		case o.back != b:
			return fmt.Errorf("%v links to %v, whose back pointer is not it", b.Addr, o.Addr)
		case targets[o] != nil:
			return fmt.Errorf("%v and %v both link to %v", targets[o].Addr, b.Addr, o.Addr)
		}
		targets[o] = b
	}
	if q := b.back; q != nil {
		if sh.table[q.Addr] != q || q.ovfl != b {
			return fmt.Errorf("%v has back pointer %v that does not link to it", b.Addr, q.Addr)
		}
	}
	return nil
}

// TestPoolLinkInvariant drives a tiny, constantly evicting pool with a
// random mix of chained Get walks, unlinked GetOwned fetches (also as
// the start of a walk, which re-reaches pages through a different
// predecessor), chain read-ahead, Drop, Discard and held pins, and
// checks the two-way link invariant after every step. A dangling
// successor pointer left by eviction, Drop or Discard fails it.
func TestPoolLinkInvariant(t *testing.T) {
	configs := []struct {
		name     string
		maxBytes int
		shards   int
	}{
		{"1shard", 1, 1},
		{"4shards", 64 * 32, 4},
	}
	for _, c := range configs {
		t.Run(c.name, func(t *testing.T) {
			p := NewConfig(newLinkStore(t), c.maxBytes, identityMap, Config{Shards: c.shards})
			rng := rand.New(rand.NewSource(int64(c.maxBytes)))
			var held []*Buf
			isHeld := func(a Addr) bool {
				for _, h := range held {
					if h.Addr == a {
						return true
					}
				}
				return false
			}
			get := func(a Addr, prev *Buf) *Buf {
				b, err := p.Get(a, prev, false)
				if err != nil {
					t.Fatalf("Get(%v): %v", a, err)
				}
				return b
			}
			// walk follows page links from cur for up to n pages, keeping
			// at most the predecessor and the current page pinned, as the
			// table's chain walks do; it returns the last page, pinned.
			walk := func(cur *Buf, n int) *Buf {
				for ; n > 0; n-- {
					next, _ := linkNext(cur.Page)
					if next == (Addr{}) {
						break
					}
					nb := get(next, cur)
					p.Put(cur)
					cur = nb
				}
				return cur
			}
			release := func(b *Buf) {
				if rng.Intn(3) == 0 && len(held) < 5 {
					held = append(held, b)
					return
				}
				p.Put(b)
			}

			for step := 0; step < 20000; step++ {
				bucket := uint32(rng.Intn(linkBuckets))
				switch op := rng.Intn(9); op {
				case 0, 1, 2: // chained walk from the primary
					release(walk(get(Addr{N: bucket}, nil), 1+rng.Intn(linkChainLen)))
				case 3: // unlinked fetch, sometimes continuing as a walk
					b, err := p.GetOwned(linkOvfl(bucket, 1+rng.Intn(linkChainLen)), bucket, false)
					if err != nil {
						t.Fatal(err)
					}
					release(walk(b, rng.Intn(3)))
				case 4: // read-ahead from the primary or a mid-chain page
					from := get(Addr{N: bucket}, nil)
					if rng.Intn(2) == 0 {
						from = walk(from, 1+rng.Intn(linkChainLen-1))
					}
					if next, _ := linkNext(from.Page); next != (Addr{}) {
						p.PrefetchChain(from, next, 1+rng.Intn(MaxPrefetch), linkNext)
					}
					p.Put(from)
				case 5: // unlink a chain page the way the table frees one
					prev := walk(get(Addr{N: bucket}, nil), rng.Intn(linkChainLen-1))
					next, _ := linkNext(prev.Page)
					b := get(next, prev)
					p.Put(b)
					if !b.Pinned() {
						p.Drop(b)
					}
					p.Put(prev)
				case 6: // discard a freed page
					if a := linkOvfl(bucket, 1+rng.Intn(linkChainLen)); !isHeld(a) {
						p.Discard(a)
					}
				case 7: // release a held pin
					if len(held) > 0 {
						i := rng.Intn(len(held))
						p.Put(held[i])
						held = append(held[:i], held[i+1:]...)
					}
				case 8: // unrelated pressure
					b, err := p.Get(Addr{N: 100 + uint32(rng.Intn(50))}, nil, true)
					if err != nil {
						t.Fatal(err)
					}
					p.Put(b)
				}
				if err := checkLinks(p); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
			for _, h := range held {
				p.Put(h)
			}
			if n := p.Pinned(); n != 0 {
				t.Fatalf("%d buffers still pinned", n)
			}
			c := p.Counters()
			if c.Evictions == 0 || c.Prefetched == 0 {
				t.Fatalf("evictions %d, prefetched %d: the mix did not exercise eviction and read-ahead",
					c.Evictions, c.Prefetched)
			}
		})
	}
}

// benchMap interleaves primary and overflow pages in the store.
func benchMap(a Addr) uint32 {
	if a.Ovfl {
		return 2*a.N + 1
	}
	return 2 * a.N
}

// BenchmarkPoolDiscard measures freeing a linked overflow page: fault it
// in behind a resident primary, then Discard it. The pool has headroom,
// so nothing is evicted; the cost should not grow with residency.
func BenchmarkPoolDiscard(b *testing.B) {
	for _, resident := range []int{1 << 10, 16 << 10} {
		b.Run(fmt.Sprintf("resident=%d", resident), func(b *testing.B) {
			p := New(pagefile.NewMem(64, pagefile.CostModel{}), 2*resident*64, benchMap)
			prims := make([]*Buf, resident)
			for i := range prims {
				buf, err := p.Get(Addr{N: uint32(i)}, nil, true)
				if err != nil {
					b.Fatal(err)
				}
				p.Put(buf)
				prims[i] = buf
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				prim := prims[i%resident]
				addr := Addr{N: prim.Addr.N, Ovfl: true}
				o, err := p.Get(addr, prim, true)
				if err != nil {
					b.Fatal(err)
				}
				p.Put(o)
				p.Discard(addr)
			}
		})
	}
}

// BenchmarkPoolEvictChain measures chain eviction in a full pool: every
// iteration faults a primary and its overflow page for a bucket not
// resident, and each fault evicts the coldest chain of its shard. Pages
// are left clean so no store write is timed; the cost should not grow
// with residency.
func BenchmarkPoolEvictChain(b *testing.B) {
	for _, resident := range []int{1 << 10, 16 << 10} {
		b.Run(fmt.Sprintf("resident=%d", resident), func(b *testing.B) {
			p := New(pagefile.NewMem(64, pagefile.CostModel{}), resident*64, benchMap)
			fault := func(bucket uint32) {
				prim, err := p.Get(Addr{N: bucket}, nil, true)
				if err != nil {
					b.Fatal(err)
				}
				o, err := p.Get(Addr{N: bucket, Ovfl: true}, prim, true)
				if err != nil {
					b.Fatal(err)
				}
				prim.Dirty.Store(false)
				o.Dirty.Store(false)
				p.Put(o)
				p.Put(prim)
			}
			// Twice as many buckets as the pool holds chains: every fault
			// misses once the pool is full.
			buckets := uint32(resident)
			for i := uint32(0); i < buckets; i++ {
				fault(i)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fault(uint32(i) % buckets)
			}
		})
	}
}
