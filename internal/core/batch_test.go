package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

func batchPairs(lo, hi int, tag string) []Pair {
	pairs := make([]Pair, 0, hi-lo)
	for i := lo; i < hi; i++ {
		pairs = append(pairs, Pair{
			Key:  []byte(fmt.Sprintf("key-%06d", i)),
			Data: []byte(fmt.Sprintf("%s-value-%06d", tag, i)),
		})
	}
	return pairs
}

func TestPutBatchBasic(t *testing.T) {
	tbl := mustOpen(t, "", &Options{Bsize: 256, Ffactor: 8})
	defer tbl.Close()

	pairs := batchPairs(0, 2000, "v1")
	if err := tbl.PutBatch(pairs); err != nil {
		t.Fatal(err)
	}
	if got := tbl.Len(); got != 2000 {
		t.Fatalf("Len = %d, want 2000", got)
	}
	for _, p := range pairs {
		v, err := tbl.Get(p.Key)
		if err != nil {
			t.Fatalf("Get %q: %v", p.Key, err)
		}
		if !bytes.Equal(v, p.Data) {
			t.Fatalf("Get %q = %q, want %q", p.Key, v, p.Data)
		}
	}
	if err := tbl.Check(); err != nil {
		t.Fatal(err)
	}
	snap, err := tbl.MetricsSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.Counter(MetricBatchPuts); got != 1 {
		t.Errorf("batch puts = %d, want 1", got)
	}
	if got := snap.Counter(MetricBatchPairs); got != 2000 {
		t.Errorf("batch pairs = %d, want 2000", got)
	}
	if got := snap.Counter(MetricPuts); got != 2000 {
		t.Errorf("puts = %d, want 2000 (batch pairs count as puts)", got)
	}
}

func TestPutBatchReplaceAndDedupe(t *testing.T) {
	tbl := mustOpen(t, "", &Options{Bsize: 128, Ffactor: 4})
	defer tbl.Close()

	if err := tbl.PutBatch(batchPairs(0, 500, "old")); err != nil {
		t.Fatal(err)
	}
	// Replace half of them, and include every key twice in the same
	// batch — the later occurrence must win, as with sequential Puts.
	batch := append(batchPairs(0, 250, "mid"), batchPairs(0, 250, "new")...)
	if err := tbl.PutBatch(batch); err != nil {
		t.Fatal(err)
	}
	if got := tbl.Len(); got != 500 {
		t.Fatalf("Len = %d, want 500 (replaces must not grow the table)", got)
	}
	for i := 0; i < 500; i++ {
		key := []byte(fmt.Sprintf("key-%06d", i))
		want := fmt.Sprintf("old-value-%06d", i)
		if i < 250 {
			want = fmt.Sprintf("new-value-%06d", i)
		}
		v, err := tbl.Get(key)
		if err != nil {
			t.Fatalf("Get %q: %v", key, err)
		}
		if string(v) != want {
			t.Fatalf("Get %q = %q, want %q", key, v, want)
		}
	}
	if err := tbl.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestPutBatchBigPairs(t *testing.T) {
	tbl := mustOpen(t, "", &Options{Bsize: 128, Ffactor: 4})
	defer tbl.Close()

	big := bytes.Repeat([]byte("B"), 600)
	var pairs []Pair
	for i := 0; i < 200; i++ {
		data := []byte(fmt.Sprintf("small-%d", i))
		if i%5 == 0 {
			data = append([]byte(fmt.Sprintf("big-%d-", i)), big...)
		}
		pairs = append(pairs, Pair{Key: []byte(fmt.Sprintf("key-%04d", i)), Data: data})
	}
	if err := tbl.PutBatch(pairs); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Check(); err != nil {
		t.Fatal(err)
	}
	// Replace big with small and small with big, in one batch.
	var swap []Pair
	for i := 0; i < 200; i++ {
		data := []byte(fmt.Sprintf("now-big-%d-", i))
		if i%5 == 0 {
			data = []byte(fmt.Sprintf("now-small-%d", i))
		} else {
			data = append(data, big...)
		}
		swap = append(swap, Pair{Key: []byte(fmt.Sprintf("key-%04d", i)), Data: data})
	}
	if err := tbl.PutBatch(swap); err != nil {
		t.Fatal(err)
	}
	if got := tbl.Len(); got != 200 {
		t.Fatalf("Len = %d, want 200", got)
	}
	for _, p := range swap {
		v, err := tbl.Get(p.Key)
		if err != nil {
			t.Fatalf("Get %q: %v", p.Key, err)
		}
		if !bytes.Equal(v, p.Data) {
			t.Fatalf("Get %q: got %d bytes, want %d", p.Key, len(v), len(p.Data))
		}
	}
	if err := tbl.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestPutBatchEmptyKeyRejectsWholeBatch(t *testing.T) {
	tbl := mustOpen(t, "", &Options{Bsize: 256, Ffactor: 8})
	defer tbl.Close()

	batch := batchPairs(0, 10, "v")
	batch = append(batch, Pair{Key: nil, Data: []byte("x")})
	if err := tbl.PutBatch(batch); !errors.Is(err, ErrEmptyKey) {
		t.Fatalf("err = %v, want ErrEmptyKey", err)
	}
	if got := tbl.Len(); got != 0 {
		t.Fatalf("Len = %d after rejected batch, want 0", got)
	}
	if err := tbl.PutBatch(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
}

func TestPutBatchReadOnly(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/batch.db"
	tbl := mustOpen(t, path, &Options{})
	if err := tbl.PutBatch(batchPairs(0, 10, "v")); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Close(); err != nil {
		t.Fatal(err)
	}
	ro := mustOpen(t, path, &Options{ReadOnly: true})
	defer ro.Close()
	if err := ro.PutBatch(batchPairs(0, 1, "v")); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("err = %v, want ErrReadOnly", err)
	}
}

// TestPutBatchMatchesSequentialPut drives a batch table and a
// sequential-Put table through the same randomized workload (duplicates,
// replaces, big pairs) and requires identical visible state.
func TestPutBatchMatchesSequentialPut(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	opts := func() *Options { return &Options{Bsize: 128, Ffactor: 4} }
	batched := mustOpen(t, "", opts())
	defer batched.Close()
	looped := mustOpen(t, "", opts())
	defer looped.Close()

	model := make(map[string]string)
	for round := 0; round < 20; round++ {
		n := 1 + rng.Intn(400)
		pairs := make([]Pair, 0, n)
		for i := 0; i < n; i++ {
			key := fmt.Sprintf("k%04d", rng.Intn(600))
			var val string
			if rng.Intn(13) == 0 {
				val = fmt.Sprintf("big:%d:%s", round, bytes.Repeat([]byte("x"), 200+rng.Intn(300)))
			} else {
				val = fmt.Sprintf("r%d-i%d", round, i)
			}
			pairs = append(pairs, Pair{Key: []byte(key), Data: []byte(val)})
			model[key] = val
		}
		if err := batched.PutBatch(pairs); err != nil {
			t.Fatalf("round %d: PutBatch: %v", round, err)
		}
		for _, p := range pairs {
			if err := looped.Put(p.Key, p.Data); err != nil {
				t.Fatalf("round %d: Put: %v", round, err)
			}
		}
	}
	if bl, ll := batched.Len(), looped.Len(); bl != ll || bl != len(model) {
		t.Fatalf("Len: batched %d, looped %d, model %d", bl, ll, len(model))
	}
	for key, want := range model {
		v, err := batched.Get([]byte(key))
		if err != nil {
			t.Fatalf("batched Get %q: %v", key, err)
		}
		if string(v) != want {
			t.Fatalf("batched Get %q = %.32q..., want %.32q...", key, v, want)
		}
	}
	if err := batched.Check(); err != nil {
		t.Fatalf("batched: %v", err)
	}
	if err := looped.Check(); err != nil {
		t.Fatalf("looped: %v", err)
	}
}

// TestPutBatchPresize: a batch into an empty table must jump straight to
// the nelem-derived geometry — the same shape Options.Nelem would have
// produced — and perform zero splits on the way.
func TestPutBatchPresize(t *testing.T) {
	const n = 10000
	presized := mustOpen(t, "", &Options{Bsize: 256, Ffactor: 8, Nelem: n})
	defer presized.Close()
	wantGeo := presized.Geometry()

	batched := mustOpen(t, "", &Options{Bsize: 256, Ffactor: 8})
	defer batched.Close()
	if err := batched.PutBatch(batchPairs(0, n, "v")); err != nil {
		t.Fatal(err)
	}
	geo := batched.Geometry()
	if geo.MaxBucket < wantGeo.MaxBucket {
		t.Errorf("presize fast path reached maxBucket %d, Nelem-created table has %d", geo.MaxBucket, wantGeo.MaxBucket)
	}
	snap, err := batched.MetricsSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.Counter(MetricPresizes); got != 1 {
		t.Errorf("presizes = %d, want 1", got)
	}
	// The fill factor cannot force a split below ffactor*(maxBucket+1)
	// keys, and the presized geometry holds n keys exactly at that bound.
	splits := snap.Counter(MetricSplitsControlled)
	if splits > 1 {
		t.Errorf("presized batch performed %d controlled splits, want <= 1", splits)
	}
	if err := batched.Check(); err != nil {
		t.Fatal(err)
	}

	// A second batch must not re-presize a non-empty table.
	if err := batched.PutBatch(batchPairs(n, n+100, "v")); err != nil {
		t.Fatal(err)
	}
	snap, _ = batched.MetricsSnapshot()
	if got := snap.Counter(MetricPresizes); got != 1 {
		t.Errorf("presizes after second batch = %d, want still 1", got)
	}
}

// TestPresizeAfterDrain: emptying a table (nkeys back to 0) leaves
// non-trivial geometry and possibly freed overflow pages; a presize on
// the next batch must keep every invariant.
func TestPresizeAfterDrain(t *testing.T) {
	tbl := mustOpen(t, "", &Options{Bsize: 128, Ffactor: 2})
	defer tbl.Close()
	pairs := batchPairs(0, 300, "v")
	if err := tbl.PutBatch(pairs); err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		if err := tbl.Delete(p.Key); err != nil {
			t.Fatal(err)
		}
	}
	if got := tbl.Len(); got != 0 {
		t.Fatalf("Len = %d after drain", got)
	}
	// Much larger second load: presize wants to expand the geometry.
	if err := tbl.PutBatch(batchPairs(0, 5000, "w")); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Check(); err != nil {
		t.Fatal(err)
	}
	if got := tbl.Len(); got != 5000 {
		t.Fatalf("Len = %d, want 5000", got)
	}
}

func TestBatchWriter(t *testing.T) {
	tbl := mustOpen(t, "", &Options{Bsize: 256, Ffactor: 8})
	defer tbl.Close()

	w := tbl.NewBatchWriter(100)
	key := make([]byte, 0, 32)
	val := make([]byte, 0, 32)
	for i := 0; i < 1234; i++ {
		// Reuse the caller buffers across Adds: the writer must copy.
		key = append(key[:0], fmt.Sprintf("key-%06d", i)...)
		val = append(val[:0], fmt.Sprintf("val-%06d", i)...)
		if err := w.Add(key, val); err != nil {
			t.Fatal(err)
		}
	}
	if p := w.Pending(); p != 1234%100 {
		t.Fatalf("Pending = %d, want %d", p, 1234%100)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := tbl.Len(); got != 1234 {
		t.Fatalf("Len = %d, want 1234", got)
	}
	for i := 0; i < 1234; i++ {
		v, err := tbl.Get([]byte(fmt.Sprintf("key-%06d", i)))
		if err != nil || string(v) != fmt.Sprintf("val-%06d", i) {
			t.Fatalf("Get key-%06d = %q, %v", i, v, err)
		}
	}
	if err := w.Add(nil, []byte("x")); !errors.Is(err, ErrEmptyKey) {
		t.Fatalf("Add empty key: %v, want ErrEmptyKey", err)
	}
	if err := tbl.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchWriterArenaStaging exercises the staging arena's block
// rollover: pairs large enough that several fill one block, forcing new
// blocks mid-batch, must all survive intact until Flush.
func TestBatchWriterArenaStaging(t *testing.T) {
	tbl := mustOpen(t, "", &Options{Bsize: 4096, Ffactor: 16})
	defer tbl.Close()
	w := tbl.NewBatchWriter(500)
	want := make(map[string]byte)
	for i := 0; i < 300; i++ {
		key := []byte(fmt.Sprintf("key-%04d", i))
		data := bytes.Repeat([]byte{byte(i)}, 700) // ~93 pairs per 64 KB block
		want[string(key)] = byte(i)
		if err := w.Add(key, data); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	for key, b := range want {
		v, err := tbl.Get([]byte(key))
		if err != nil {
			t.Fatalf("Get %q: %v", key, err)
		}
		if len(v) != 700 || v[0] != b || v[699] != b {
			t.Fatalf("Get %q: staged bytes corrupted (len %d, first %d, want %d)", key, len(v), v[0], b)
		}
	}
}

// TestGroupCommitJoins: on default options, a Sync covering no new
// mutations joins the previous one instead of issuing another fsync.
func TestGroupCommitJoins(t *testing.T) {
	tbl := mustOpen(t, "", &Options{Bsize: 256, Ffactor: 8})
	defer tbl.Close()

	if err := tbl.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Sync(); err != nil {
		t.Fatal(err)
	}
	syncsAfterFirst := tbl.Store().Stats().Snapshot().Syncs
	// No mutation since: this Sync must join, not touch the store.
	if err := tbl.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := tbl.Store().Stats().Snapshot().Syncs; got != syncsAfterFirst {
		t.Errorf("joined Sync performed store syncs (%d -> %d)", syncsAfterFirst, got)
	}
	snap, err := tbl.MetricsSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.Counter(MetricGroupJoins); got != 1 {
		t.Errorf("group commit joins = %d, want 1", got)
	}
	// A new mutation makes the next Sync lead again.
	if err := tbl.Put([]byte("k2"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := tbl.Store().Stats().Snapshot().Syncs; got == syncsAfterFirst {
		t.Error("Sync after new mutation did not reach the store")
	}
}

// TestGroupCommitConcurrent hammers PutBatch + shared Sync from many
// goroutines (run under -race in CI) and verifies every batch that
// Synced successfully is fully readable afterwards.
func TestGroupCommitConcurrent(t *testing.T) {
	tbl := mustOpen(t, "", &Options{Bsize: 256, Ffactor: 8, CacheSize: 1 << 20})
	defer tbl.Close()

	const writers = 8
	const perWriter = 300
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lo := w * perWriter
			for chunk := 0; chunk < 3; chunk++ {
				base := lo + chunk*perWriter/3
				if err := tbl.PutBatch(batchPairs(base, base+perWriter/3, "gc")); err != nil {
					errs <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
				if err := tbl.Sync(); err != nil {
					errs <- fmt.Errorf("writer %d sync: %w", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := tbl.Len(); got != writers*perWriter {
		t.Fatalf("Len = %d, want %d", got, writers*perWriter)
	}
	if err := tbl.Check(); err != nil {
		t.Fatal(err)
	}
	snap, err := tbl.MetricsSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	syncCalls := snap.Counter(MetricSyncs) + snap.Counter(MetricGroupJoins)
	if syncCalls == 0 {
		t.Error("no syncs recorded")
	}
}

func TestCeilLog2MatchesLoop(t *testing.T) {
	for x := uint32(0); x < 1<<16; x++ {
		if got, want := ceilLog2(x), ceilLog2Loop(x); got != want {
			t.Fatalf("ceilLog2(%d) = %d, loop says %d", x, got, want)
		}
	}
	for _, x := range []uint32{1<<31 - 1, 1 << 31, 1<<31 + 1, ^uint32(0)} {
		if got, want := ceilLog2(x), ceilLog2Loop(x); got != want {
			t.Fatalf("ceilLog2(%d) = %d, loop says %d", x, got, want)
		}
	}
}

// ceilLog2Loop is the 4.4BSD __log2 shift loop this package used before
// the bits.Len32 replacement, kept as the reference implementation for
// the equivalence test and the microbenchmark.
func ceilLog2Loop(x uint32) uint32 {
	var p uint32
	for v := uint32(1); v < x; v <<= 1 {
		p++
		if p >= 32 {
			break
		}
	}
	return p
}

var sinkU32 uint32

func BenchmarkCeilLog2(b *testing.B) {
	b.Run("loop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkU32 += ceilLog2Loop(uint32(i) | 1)
		}
	})
	b.Run("bits", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkU32 += ceilLog2(uint32(i) | 1)
		}
	})
}

func BenchmarkBucketToPage(b *testing.B) {
	h := &header{hdrPages: 1}
	for i := range h.spares {
		h.spares[i] = uint32(i * 3)
	}
	b.Run("bits", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkU32 += h.bucketToPage(uint32(i) & 0xffff)
		}
	})
}

func BenchmarkPutBatch(b *testing.B) {
	pairs := batchPairs(0, 10000, "v")
	b.Run("looped", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tbl, _ := Open("", &Options{Bsize: 1024, Ffactor: 16, CacheSize: 1 << 22})
			for _, p := range pairs {
				if err := tbl.Put(p.Key, p.Data); err != nil {
					b.Fatal(err)
				}
			}
			tbl.Close()
		}
	})
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tbl, _ := Open("", &Options{Bsize: 1024, Ffactor: 16, CacheSize: 1 << 22})
			if err := tbl.PutBatch(pairs); err != nil {
				b.Fatal(err)
			}
			tbl.Close()
		}
	})
}
