package bench

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"unixhash/internal/core"
	"unixhash/internal/pagefile"
)

// Txn measures what the write-ahead log buys a durable single Put. Every
// strategy gives the same contract — each record is acknowledged durable
// before the writer moves past it — and what varies is the durability
// mechanism:
//
//	fullsync  — Put + Sync per record: the pre-WAL durable put. Every
//	            acknowledgement pays the full two-phase sync protocol
//	            (flush, barrier, header write, barrier) on the page
//	            store.
//	waltxn    — Begin/Put/Commit per record: one sequential log append
//	            plus one log fsync per acknowledgement; pages ride in
//	            the buffer pool until a periodic checkpoint.
//	grouptxn  — four concurrent committers: overlapping commits join
//	            one shared log fsync (the WAL group-commit round), so
//	            even the per-commit log fsync is amortized.
//
// Unlike the bulkload harness, the txn harness SLEEPS its simulated I/O
// costs (CostModel.Sleep): a commit really waits out its barriers, so
// the reported commit p50/p99 are true latencies and group commit's
// fsync-sharing shows up in the percentiles, not just in the counters.
// The store is the bulkload commodity disk (100us page I/O, 5ms sync
// barrier); the log is a dedicated sequential device — no seeks, short
// tail to settle — at 50us per append and 500us per fsync.

var (
	txnStoreCost = pagefile.CostModel{
		ReadCost:  100 * time.Microsecond,
		WriteCost: 100 * time.Microsecond,
		SyncCost:  5 * time.Millisecond,
		Sleep:     true,
	}
	txnWalCost = pagefile.CostModel{
		WriteCost: 50 * time.Microsecond,
		SyncCost:  500 * time.Microsecond,
		Sleep:     true,
	}
)

const (
	txnBsize           = 1024
	txnFfactor         = 16
	txnDefaultOps      = 400
	txnCheckpointEvery = 100 // commits between checkpoints (waltxn/grouptxn)
	txnWriters         = 4   // grouptxn concurrency
)

// TxnStrategy is one measured durability mechanism.
type TxnStrategy struct {
	Seconds     float64 `json:"elapsed_seconds"`
	IOSeconds   float64 `json:"io_seconds"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	CommitP50US int64   `json:"commit_p50_us"`
	CommitP99US int64   `json:"commit_p99_us"`
	StoreWrites int64   `json:"store_writes"`
	StoreSyncs  int64   `json:"store_syncs"`
	WalAppends  int64   `json:"wal_appends"`
	WalFsyncs   int64   `json:"wal_fsyncs"`
	WalJoins    int64   `json:"wal_fsync_joins"`
	Checkpoints int64   `json:"checkpoints"`
}

// TxnResult is the BENCH_txn.json payload.
type TxnResult struct {
	Keys            int         `json:"keys"`
	Bsize           int         `json:"bsize"`
	Ffactor         int         `json:"ffactor"`
	CheckpointEvery int         `json:"checkpoint_every"`
	StoreSyncUS     int64       `json:"store_sync_cost_us"`
	WalAppendUS     int64       `json:"wal_append_cost_us"`
	WalFsyncUS      int64       `json:"wal_fsync_cost_us"`
	FullSync        TxnStrategy `json:"put_sync_each"`
	WalTxn          TxnStrategy `json:"wal_txn_commit"`
	GroupTxn        TxnStrategy `json:"wal_txn_group_4w"`
	WalSpeedup      float64     `json:"wal_speedup_vs_full_sync"`
	GroupSpeedup    float64     `json:"group_speedup_vs_full_sync"`
}

// txnRun opens a fresh table (with a WAL when useWAL is set), runs fn
// (which returns the per-commit latencies), verifies the load, and fills
// a TxnStrategy. Because the cost models sleep, wall time already
// contains the simulated I/O, so elapsed IS the wall time; IOSeconds is
// reported alongside to show how much of it was simulated waiting.
func txnRun(n int, useWAL bool, fn func(*core.Table) ([]time.Duration, error)) (TxnStrategy, error) {
	store := pagefile.NewMem(txnBsize, txnStoreCost)
	opts := &core.Options{
		Bsize: txnBsize, Ffactor: txnFfactor,
		CacheSize: 1 << 26, Store: store,
	}
	if useWAL {
		opts.WAL = true
		opts.WALCost = txnWalCost
	}
	t, err := core.Open("", opts)
	if err != nil {
		return TxnStrategy{}, err
	}
	start := time.Now()
	lats, err := fn(t)
	if err != nil {
		t.Close()
		return TxnStrategy{}, err
	}
	if err := t.Sync(); err != nil {
		t.Close()
		return TxnStrategy{}, err
	}
	elapsed := time.Since(start)
	if got := t.Len(); got != n {
		t.Close()
		return TxnStrategy{}, fmt.Errorf("txn: loaded %d keys, want %d", got, n)
	}
	snap, err := t.MetricsSnapshot()
	if err != nil {
		t.Close()
		return TxnStrategy{}, err
	}
	st := store.Stats().Snapshot()
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pct := func(p float64) int64 {
		if len(lats) == 0 {
			return 0
		}
		i := int(p * float64(len(lats)-1))
		return lats[i].Microseconds()
	}
	ws, _ := t.WALStats()
	s := TxnStrategy{
		Seconds:     elapsed.Seconds(),
		IOSeconds:   (st.IOTime + ws.IOTime).Seconds(),
		OpsPerSec:   float64(n) / elapsed.Seconds(),
		CommitP50US: pct(0.50),
		CommitP99US: pct(0.99),
		StoreWrites: st.Writes,
		StoreSyncs:  st.Syncs,
		WalAppends:  ws.Appends,
		WalFsyncs:   ws.Fsyncs,
		WalJoins:    ws.FsyncJoins,
		Checkpoints: snap.Counter(core.MetricCheckpoints),
	}
	return s, t.Close()
}

// Txn measures n durable single Puts under each strategy (0 = the
// default 400; the sleeping cost model makes larger runs linear in n).
func Txn(n int) (*TxnResult, error) {
	if n <= 0 || n > txnDefaultOps {
		n = txnDefaultOps
	}
	pairs := bulkloadPairs(n)
	res := &TxnResult{
		Keys: n, Bsize: txnBsize, Ffactor: txnFfactor,
		CheckpointEvery: txnCheckpointEvery,
		StoreSyncUS:     txnStoreCost.SyncCost.Microseconds(),
		WalAppendUS:     txnWalCost.WriteCost.Microseconds(),
		WalFsyncUS:      txnWalCost.SyncCost.Microseconds(),
	}

	fullsync, err := txnRun(n, false, func(t *core.Table) ([]time.Duration, error) {
		lats := make([]time.Duration, 0, n)
		for _, p := range pairs {
			c0 := time.Now()
			if err := t.Put(p.Key, p.Data); err != nil {
				return nil, err
			}
			if err := t.Sync(); err != nil {
				return nil, err
			}
			lats = append(lats, time.Since(c0))
		}
		return lats, nil
	})
	if err != nil {
		return nil, fmt.Errorf("fullsync: %w", err)
	}
	res.FullSync = fullsync

	waltxn, err := txnRun(n, true, func(t *core.Table) ([]time.Duration, error) {
		lats := make([]time.Duration, 0, n)
		for i, p := range pairs {
			c0 := time.Now()
			x, err := t.Begin()
			if err != nil {
				return nil, err
			}
			if err := x.Put(p.Key, p.Data); err != nil {
				return nil, err
			}
			if err := x.Commit(); err != nil {
				return nil, err
			}
			lats = append(lats, time.Since(c0))
			if (i+1)%txnCheckpointEvery == 0 {
				if err := t.Sync(); err != nil {
					return nil, err
				}
			}
		}
		return lats, nil
	})
	if err != nil {
		return nil, fmt.Errorf("waltxn: %w", err)
	}
	res.WalTxn = waltxn

	grouptxn, err := txnRun(n, true, func(t *core.Table) ([]time.Duration, error) {
		var (
			wg   sync.WaitGroup
			mu   sync.Mutex
			lats = make([]time.Duration, 0, n)
			errs = make([]error, txnWriters)
		)
		per := (n + txnWriters - 1) / txnWriters
		for w := 0; w < txnWriters; w++ {
			lo, hi := w*per, min((w+1)*per, n)
			if lo >= hi {
				continue
			}
			wg.Add(1)
			go func(w, lo, hi int) {
				defer wg.Done()
				mine := make([]time.Duration, 0, hi-lo)
				for i := lo; i < hi; i++ {
					c0 := time.Now()
					x, err := t.Begin()
					if err == nil {
						if err = x.Put(pairs[i].Key, pairs[i].Data); err == nil {
							err = x.Commit()
						}
					}
					if err != nil {
						errs[w] = err
						return
					}
					mine = append(mine, time.Since(c0))
					if (i-lo+1)%txnCheckpointEvery == 0 {
						if err := t.Sync(); err != nil {
							errs[w] = err
							return
						}
					}
				}
				mu.Lock()
				lats = append(lats, mine...)
				mu.Unlock()
			}(w, lo, hi)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		return lats, nil
	})
	if err != nil {
		return nil, fmt.Errorf("grouptxn: %w", err)
	}
	res.GroupTxn = grouptxn

	// The speedups compare simulated I/O cost, not wall time: the cost
	// model is deterministic (counted barriers times fixed costs), so
	// the gate cannot flake on scheduler or sleep-granularity noise the
	// way the slept wall clock can.
	if res.WalTxn.IOSeconds > 0 {
		res.WalSpeedup = res.FullSync.IOSeconds / res.WalTxn.IOSeconds
	}
	if res.GroupTxn.IOSeconds > 0 {
		res.GroupSpeedup = res.FullSync.IOSeconds / res.GroupTxn.IOSeconds
	}
	return res, nil
}

// Gate enforces the CI regression bar: a durable single Put through the
// WAL must be at least minSpeedup times cheaper than one through the
// full sync protocol. (The acceptance target is 10x; the asymmetry in
// barrier counts — one 500us log fsync versus two 5ms store barriers
// plus the dirty-mark — puts the real ratio comfortably above it.)
func (r *TxnResult) Gate(minSpeedup float64) error {
	if r.WalSpeedup < minSpeedup {
		return fmt.Errorf("txn: WAL durable-put speedup %.2fx at %d keys is below the %.2fx floor",
			r.WalSpeedup, r.Keys, minSpeedup)
	}
	return nil
}

// JSON renders the machine-readable BENCH_txn.json payload.
func (r *TxnResult) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// String renders a human-readable table in the style of the other
// hashbench experiments.
func (r *TxnResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Durable single Put: %d keys, %d-byte pages, ffactor %d, checkpoint every %d commits\n",
		r.Keys, r.Bsize, r.Ffactor, r.CheckpointEvery)
	fmt.Fprintf(&b, "(simulated costs are slept: store sync %dus barrier, log %dus append + %dus fsync)\n",
		r.StoreSyncUS, r.WalAppendUS, r.WalFsyncUS)
	fmt.Fprintf(&b, "\n  %-9s %9s %9s %9s %8s %8s %8s %8s %8s\n",
		"strategy", "ops/sec", "p50", "p99", "writes", "syncs", "appends", "fsyncs", "joins")
	row := func(name string, s TxnStrategy) {
		fmt.Fprintf(&b, "  %-9s %9.0f %7dus %7dus %8d %8d %8d %8d %8d\n",
			name, s.OpsPerSec, s.CommitP50US, s.CommitP99US,
			s.StoreWrites, s.StoreSyncs, s.WalAppends, s.WalFsyncs, s.WalJoins)
	}
	row("fullsync", r.FullSync)
	row("waltxn", r.WalTxn)
	row("grouptxn", r.GroupTxn)
	fmt.Fprintf(&b, "\n  WAL speedup vs full sync: %.1fx; group-commit speedup: %.1fx\n",
		r.WalSpeedup, r.GroupSpeedup)
	return b.String()
}
