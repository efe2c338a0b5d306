package bench

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"time"

	"unixhash/internal/core"
	"unixhash/internal/pagefile"
)

// Bulkload measures the batched write pipeline against the one-Put-at-a-
// time baseline on a durable-ingestion workload: every strategy must
// load n records such that each is acknowledged durable (synced) before
// the loader moves past it — the contract an ingest service gives its
// clients. What varies is the unit of acknowledgement, which is exactly
// what PutBatch and group commit change:
//
//	looped       — Put + Sync per record: per-record durability, the
//	               only contract the pre-batch API could offer without
//	               the caller inventing its own batching.
//	batch        — PutBatch of a DefaultBatchSize chunk + one Sync per
//	               chunk: one lock acquisition, one dirty epoch and one
//	               sync barrier amortized over the whole chunk.
//	presized     — one PutBatch of the entire load + one Sync: the
//	               presize fast path jumps straight to the final
//	               geometry, so no splits ever run.
//	groupcommit  — four concurrent writers doing chunked PutBatch +
//	               Sync: overlapping syncs join one shared barrier (the
//	               table's group commit) instead of each paying their
//	               own.
//
// Timing follows the harness's paper methodology (see the package doc):
// user is measured wall time, sys is the simulated cost of the I/O
// performed, elapsed = user + sys. The cost model is a commodity disk
// whose streamed page writes are cheap but whose sync barriers are
// rotational: per-record durability drowns in sync cost, and the JSON
// reports the write/sync/split counters per strategy so the mechanism
// behind each ratio is visible, not just the ratio.

// bulkloadCost: 100µs per page I/O (streamed writes), 5ms per sync
// barrier (flush + rotational settle).
var bulkloadCost = pagefile.CostModel{
	ReadCost:  100 * time.Microsecond,
	WriteCost: 100 * time.Microsecond,
	SyncCost:  5 * time.Millisecond,
}

// BulkloadStrategy is one measured load at one size.
type BulkloadStrategy struct {
	UserSeconds float64 `json:"user_seconds"`
	IOSeconds   float64 `json:"io_seconds"`
	Seconds     float64 `json:"elapsed_seconds"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	Writes      int64   `json:"store_writes"`
	Syncs       int64   `json:"store_syncs"`
	Splits      int64   `json:"splits"`
	Presizes    int64   `json:"presizes"`
	GroupJoins  int64   `json:"group_commit_joins"`
}

// BulkloadPoint compares the strategies at one key count.
type BulkloadPoint struct {
	Keys            int              `json:"keys"`
	Looped          BulkloadStrategy `json:"put_sync_each"`
	Batch           BulkloadStrategy `json:"putbatch_sync_per_chunk"`
	Presized        BulkloadStrategy `json:"putbatch_presized"`
	GroupCommit     BulkloadStrategy `json:"putbatch_group_commit_4w"`
	BatchSpeedup    float64          `json:"batch_speedup_vs_looped"`
	PresizedSpeedup float64          `json:"presized_speedup_vs_looped"`
}

// BulkloadResult is the BENCH_bulkload.json payload.
type BulkloadResult struct {
	Bsize                int             `json:"bsize"`
	Ffactor              int             `json:"ffactor"`
	BatchSize            int             `json:"batch_size"`
	ReadCostUS           int64           `json:"read_cost_us"`
	WriteCostUS          int64           `json:"write_cost_us"`
	SyncCostUS           int64           `json:"sync_cost_us"`
	Points               []BulkloadPoint `json:"points"`
	SpeedupAtMax         float64         `json:"batch_speedup_at_max_keys"`
	PresizedBeatsUnsized bool            `json:"presized_beats_unsized_at_max_keys"`
}

// bulkloadSizes are the measured key counts; Bulkload truncates the list
// to maxKeys so smoke runs stay fast.
var bulkloadSizes = []int{10_000, 100_000, 1_000_000}

const (
	bulkloadBsize   = 1024
	bulkloadFfactor = 16
)

// bulkloadPairs builds n deterministic pairs (~30 bytes each; 1M keys is
// a ~64 MB table at the bulkload geometry).
func bulkloadPairs(n int) []core.Pair {
	pairs := make([]core.Pair, n)
	for i := range pairs {
		pairs[i] = core.Pair{
			Key:  []byte(fmt.Sprintf("bulk-key-%08d", i)),
			Data: []byte(fmt.Sprintf("value-%08d", i)),
		}
	}
	return pairs
}

// bulkloadRun loads pairs with fn into a fresh table and fills a
// BulkloadStrategy from the wall clock and the store/table counters. fn
// owns the sync schedule; a final Sync guarantees every strategy ends
// durable.
func bulkloadRun(n int, fn func(*core.Table) error) (BulkloadStrategy, error) {
	store := pagefile.NewMem(bulkloadBsize, bulkloadCost)
	t, err := core.Open("", &core.Options{
		Bsize: bulkloadBsize, Ffactor: bulkloadFfactor,
		CacheSize: 1 << 26, Store: store,
	})
	if err != nil {
		return BulkloadStrategy{}, err
	}
	start := time.Now()
	if err := fn(t); err != nil {
		t.Close()
		return BulkloadStrategy{}, err
	}
	if err := t.Sync(); err != nil {
		t.Close()
		return BulkloadStrategy{}, err
	}
	user := time.Since(start)
	if got := t.Len(); got != n {
		t.Close()
		return BulkloadStrategy{}, fmt.Errorf("bulkload: loaded %d keys, want %d", got, n)
	}
	snap, err := t.MetricsSnapshot()
	if err != nil {
		t.Close()
		return BulkloadStrategy{}, err
	}
	st := store.Stats().Snapshot()
	elapsed := user + st.IOTime
	s := BulkloadStrategy{
		UserSeconds: user.Seconds(),
		IOSeconds:   st.IOTime.Seconds(),
		Seconds:     elapsed.Seconds(),
		OpsPerSec:   float64(n) / elapsed.Seconds(),
		Writes:      st.Writes,
		Syncs:       st.Syncs,
		Splits:      snap.Counter(core.MetricSplitsControlled) + snap.Counter(core.MetricSplitsUncontrolled),
		Presizes:    snap.Counter(core.MetricPresizes),
		GroupJoins:  snap.Counter(core.MetricGroupJoins),
	}
	return s, t.Close()
}

// Bulkload measures every size up to maxKeys (0 = all sizes).
func Bulkload(maxKeys int) (*BulkloadResult, error) {
	res := &BulkloadResult{
		Bsize: bulkloadBsize, Ffactor: bulkloadFfactor, BatchSize: core.DefaultBatchSize,
		ReadCostUS:  bulkloadCost.ReadCost.Microseconds(),
		WriteCostUS: bulkloadCost.WriteCost.Microseconds(),
		SyncCostUS:  bulkloadCost.SyncCost.Microseconds(),
	}
	sizes := bulkloadSizes
	if maxKeys > 0 {
		sizes = nil
		for _, n := range bulkloadSizes {
			if n <= maxKeys {
				sizes = append(sizes, n)
			}
		}
		if len(sizes) == 0 {
			sizes = []int{maxKeys} // e.g. -quick: one small point
		}
	}
	for _, n := range sizes {
		pairs := bulkloadPairs(n)

		looped, err := bulkloadRun(n, func(t *core.Table) error {
			for _, p := range pairs {
				if err := t.Put(p.Key, p.Data); err != nil {
					return err
				}
				if err := t.Sync(); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("looped at %d: %w", n, err)
		}

		batch, err := bulkloadRun(n, func(t *core.Table) error {
			for lo := 0; lo < len(pairs); lo += core.DefaultBatchSize {
				hi := min(lo+core.DefaultBatchSize, len(pairs))
				if err := t.PutBatch(pairs[lo:hi]); err != nil {
					return err
				}
				if err := t.Sync(); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("batch at %d: %w", n, err)
		}

		presized, err := bulkloadRun(n, func(t *core.Table) error {
			return t.PutBatch(pairs)
		})
		if err != nil {
			return nil, fmt.Errorf("presized at %d: %w", n, err)
		}

		const writers = 4
		gc, err := bulkloadRun(n, func(t *core.Table) error {
			var wg sync.WaitGroup
			errs := make([]error, writers)
			per := (n + writers - 1) / writers
			for w := 0; w < writers; w++ {
				lo, hi := w*per, min((w+1)*per, n)
				if lo >= hi {
					continue
				}
				wg.Add(1)
				go func(w, lo, hi int) {
					defer wg.Done()
					for a := lo; a < hi; a += core.DefaultBatchSize {
						b := min(a+core.DefaultBatchSize, hi)
						if err := t.PutBatch(pairs[a:b]); err != nil {
							errs[w] = err
							return
						}
						if err := t.Sync(); err != nil {
							errs[w] = err
							return
						}
					}
				}(w, lo, hi)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("group commit at %d: %w", n, err)
		}

		pt := BulkloadPoint{Keys: n, Looped: looped, Batch: batch, Presized: presized, GroupCommit: gc}
		if batch.Seconds > 0 {
			pt.BatchSpeedup = looped.Seconds / batch.Seconds
		}
		if presized.Seconds > 0 {
			pt.PresizedSpeedup = looped.Seconds / presized.Seconds
		}
		res.Points = append(res.Points, pt)
	}
	if len(res.Points) > 0 {
		last := res.Points[len(res.Points)-1]
		res.SpeedupAtMax = last.BatchSpeedup
		res.PresizedBeatsUnsized = last.Presized.Seconds < last.Batch.Seconds
	}
	return res, nil
}

// Gate enforces the CI regression bars: PutBatch must not regress below
// looped Put at the largest measured size, and the presize fast path
// must beat the unsized batch load. minSpeedup is the required
// batch-vs-looped ratio (CI uses a floor well under the acceptance
// target of 3.0 at 1M keys, so wall-clock noise in the user component
// cannot flake the job; the sync-count asymmetry puts the real ratio
// orders of magnitude above either bar).
func (r *BulkloadResult) Gate(minSpeedup float64) error {
	if len(r.Points) == 0 {
		return fmt.Errorf("bulkload: no points measured")
	}
	last := r.Points[len(r.Points)-1]
	if last.BatchSpeedup < minSpeedup {
		return fmt.Errorf("bulkload: PutBatch speedup %.2fx at %d keys is below the %.2fx floor",
			last.BatchSpeedup, last.Keys, minSpeedup)
	}
	if !r.PresizedBeatsUnsized {
		return fmt.Errorf("bulkload: presized PutBatch (%.3fs) did not beat unsized (%.3fs) at %d keys",
			last.Presized.Seconds, last.Batch.Seconds, last.Keys)
	}
	return nil
}

// JSON renders the machine-readable BENCH_bulkload.json payload.
func (r *BulkloadResult) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// String renders a human-readable table in the style of the other
// hashbench experiments.
func (r *BulkloadResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Durable bulk load: %d-byte pages, ffactor %d, batch size %d\n",
		r.Bsize, r.Ffactor, r.BatchSize)
	fmt.Fprintf(&b, "(user = measured CPU, sys = simulated I/O at %dus/page + %dus/sync, elapsed = user+sys)\n",
		r.WriteCostUS, r.SyncCostUS)
	fmt.Fprintf(&b, "\n  %-9s %-12s %12s %10s %8s %8s %8s %9s\n",
		"keys", "strategy", "ops/sec", "elapsed", "writes", "syncs", "splits", "speedup")
	row := func(keys int, name string, s BulkloadStrategy, speedup float64) {
		sp := "        -"
		if speedup > 0 {
			sp = fmt.Sprintf("%8.1fx", speedup)
		}
		fmt.Fprintf(&b, "  %-9d %-12s %12.0f %9.2fs %8d %8d %8d %9s\n",
			keys, name, s.OpsPerSec, s.Seconds, s.Writes, s.Syncs, s.Splits, sp)
	}
	for _, pt := range r.Points {
		row(pt.Keys, "looped", pt.Looped, 0)
		row(pt.Keys, "batch", pt.Batch, pt.BatchSpeedup)
		row(pt.Keys, "presized", pt.Presized, pt.PresizedSpeedup)
		gcName := "groupcommit"
		if pt.GroupCommit.GroupJoins > 0 {
			gcName = fmt.Sprintf("gc(%d joins)", pt.GroupCommit.GroupJoins)
		}
		row(pt.Keys, gcName, pt.GroupCommit, 0)
	}
	fmt.Fprintf(&b, "\n  batch speedup at %d keys: %.1fx; presized beats unsized: %v\n",
		r.Points[len(r.Points)-1].Keys, r.SpeedupAtMax, r.PresizedBeatsUnsized)
	return b.String()
}
