package db

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"unixhash/internal/core"
	"unixhash/internal/metrics"
	"unixhash/internal/oplog"
)

// Sharded is a hash database partitioned into N independent shards:
// every shard is its own WAL-capable hash table with its own buffer
// pool, lock hierarchy and (file-backed) page file, and every key is
// routed to exactly one shard by an independent 64-bit hash. Because
// the shards share nothing, whole-table exclusive sections — PutBatch's
// single-lock epoch, Sync's two-phase flush, a split pass — run in
// parallel across shards, multiplying the single-table write throughput
// for a multi-client load (the dbserver front end is the intended
// driver).
//
// Sharded implements DB, so everything written against the uniform
// interface (CLIs, the network server, ServeTelemetry) works unchanged.
// Every shard exports its metrics into one shared registry — same-named
// series aggregate (see internal/metrics) — so a sharded database
// publishes a single /metrics page.
//
// Cross-shard semantics, where they differ from a single table:
//
//   - Begin returns a transaction that routes ops to per-shard
//     sub-transactions. Commit is atomic within each shard (one WAL
//     commit record per shard) but not across shards: a crash between
//     shard commits can leave some shards committed and others not.
//   - Seq yields shard 0's pairs, then shard 1's, and so on; within a
//     shard the usual bucket order applies.
type Sharded struct {
	dir    string
	shards []*hashDB
	reg    *metrics.Registry
}

// MaxShards bounds OpenSharded's shard count. Each shard costs a buffer
// pool, a page file (plus a WAL file when logging) and a goroutine per
// fan-out call; past a few dozen shards the returns are already gone.
const MaxShards = 1024

// ErrShardMismatch reports opening a sharded directory with a different
// shard count than it was created with — routing would silently send
// keys to the wrong shard, so the open fails loudly instead.
var ErrShardMismatch = errors.New("db: shard count does not match directory")

// shardMarker is the file recording a sharded directory's shard count.
const shardMarker = "SHARDS"

// OpenSharded opens (or creates) a hash database of nshards shards. An
// empty dir is memory-resident, like Open; otherwise dir is created if
// needed and shard i lives in dir/shard-NNN.db (with a sidecar .wal
// when cfg enables logging). Only the Hash config is consulted; its
// options apply to each shard individually (CacheSize budgets one
// shard's pool; Nelem is split across shards). A shared metrics
// registry is used for every shard — the caller's cfg.Hash.Metrics if
// set, else a private one — so the database reports one aggregated
// /metrics view. Options that cannot be sharded (Store, TelemetryAddr)
// are rejected; serve telemetry with ServeTelemetry instead.
func OpenSharded(dir string, nshards int, cfg *Config) (*Sharded, error) {
	var c Config
	if cfg != nil {
		c = *cfg
	}
	if nshards < 1 || nshards > MaxShards {
		return nil, fmt.Errorf("%w: hash option Shards: %d must be in [1, %d]", ErrBadOptions, nshards, MaxShards)
	}
	if err := validate(Hash, c); err != nil {
		return nil, err
	}
	var base core.Options
	if c.Hash != nil {
		base = *c.Hash
	}
	if base.Store != nil {
		return nil, fmt.Errorf("%w: hash option Store: cannot share one store across %d shards", ErrBadOptions, nshards)
	}
	if base.TelemetryAddr != "" {
		return nil, fmt.Errorf("%w: hash option TelemetryAddr: serve a sharded database with db.ServeTelemetry", ErrBadOptions)
	}
	if base.Metrics == nil {
		base.Metrics = metrics.New()
	}
	// Split the expected element count across shards so presizing builds
	// each shard at its final geometry rather than N full-sized tables.
	if base.Nelem > 0 {
		base.Nelem = (base.Nelem + nshards - 1) / nshards
	}

	if dir != "" {
		if err := os.MkdirAll(dir, 0o777); err != nil {
			return nil, fmt.Errorf("db: sharded open: %w", err)
		}
		if err := checkShardMarker(dir, nshards, base.ReadOnly); err != nil {
			return nil, err
		}
	}

	s := &Sharded{dir: dir, reg: base.Metrics, shards: make([]*hashDB, 0, nshards)}
	for i := 0; i < nshards; i++ {
		path := ""
		if dir != "" {
			path = filepath.Join(dir, fmt.Sprintf("shard-%03d.db", i))
		}
		opts := base
		t, err := core.Open(path, &opts)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("db: sharded open: shard %d: %w", i, err)
		}
		s.shards = append(s.shards, &hashDB{t})
	}
	return s, nil
}

// checkShardMarker reconciles nshards with the directory's marker file:
// absent (new directory) it is written, present it must match.
func checkShardMarker(dir string, nshards int, readonly bool) error {
	path := filepath.Join(dir, shardMarker)
	raw, err := os.ReadFile(path)
	switch {
	case err == nil:
		have, perr := strconv.Atoi(strings.TrimSpace(string(raw)))
		if perr != nil {
			return fmt.Errorf("db: sharded open: %s: unparseable shard marker %q", path, raw)
		}
		if have != nshards {
			return fmt.Errorf("%w: %s was created with %d shards, opened with %d", ErrShardMismatch, dir, have, nshards)
		}
		return nil
	case os.IsNotExist(err):
		if readonly {
			return fmt.Errorf("db: sharded open: %s: %w", path, err)
		}
		return os.WriteFile(path, []byte(strconv.Itoa(nshards)+"\n"), 0o666)
	default:
		return fmt.Errorf("db: sharded open: %w", err)
	}
}

// shardOf routes a key to its shard: a 64-bit FNV-1a digest finished
// with a murmur-style avalanche, reduced mod N. The router is
// deliberately independent of the tables' own 32-bit hash — a shard's
// table still spreads its keys across all of its buckets even though
// they share a routing residue.
func shardOf(key []byte, n int) int {
	h := uint64(14695981039346656037) // FNV-64 offset basis
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211 // FNV-64 prime
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return int(h % uint64(n))
}

// NShards reports the shard count.
func (s *Sharded) NShards() int { return len(s.shards) }

// MetricsRegistry exposes the registry every shard aggregates into,
// for callers (the network server) that want to publish their own
// series on the same page.
func (s *Sharded) MetricsRegistry() *metrics.Registry { return s.reg }

func (s *Sharded) Get(key []byte) ([]byte, error)         { return s.GetBufOp(nil, key, nil) }
func (s *Sharded) GetBuf(key, dst []byte) ([]byte, error) { return s.GetBufOp(nil, key, dst) }
func (s *Sharded) Put(key, data []byte) error             { return s.PutOp(nil, key, data) }
func (s *Sharded) PutNew(key, data []byte) error          { return s.route(nil, key).PutNew(key, data) }
func (s *Sharded) Delete(key []byte) error                { return s.DeleteOp(nil, key) }

// PutBatch applies the batch shard by shard, concurrently (see
// PutBatchOp).
func (s *Sharded) PutBatch(pairs []Pair) error { return s.PutBatchOp(nil, pairs) }

// fanOut runs fn on every shard concurrently and joins the errors.
func (s *Sharded) fanOut(fn func(i int, sh *hashDB) error) error {
	if len(s.shards) == 1 {
		return fn(0, s.shards[0])
	}
	errs := make([]error, len(s.shards))
	var wg sync.WaitGroup
	for i, sh := range s.shards {
		wg.Add(1)
		go func(i int, sh *hashDB) {
			defer wg.Done()
			if err := fn(i, sh); err != nil {
				errs[i] = fmt.Errorf("shard %d: %w", i, err)
			}
		}(i, sh)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Sync flushes every shard to stable storage, concurrently.
func (s *Sharded) Sync() error {
	return s.fanOut(func(_ int, sh *hashDB) error { return sh.Sync() })
}

// Close flushes and closes every shard (all of them, even if one
// fails), concurrently.
func (s *Sharded) Close() error {
	return s.fanOut(func(_ int, sh *hashDB) error { return sh.Close() })
}

// Len sums the shards' pair counts.
func (s *Sharded) Len() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.Len()
	}
	return n
}

// Seq iterates shard 0's pairs, then shard 1's, and so on.
func (s *Sharded) Seq() Cursor { return &shardedCursor{s: s} }

type shardedCursor struct {
	s   *Sharded
	i   int
	cur Cursor
	err error
}

func (c *shardedCursor) Next() bool {
	if c.err != nil {
		return false
	}
	for {
		if c.cur == nil {
			if c.i >= len(c.s.shards) {
				return false
			}
			c.cur = c.s.shards[c.i].Seq()
			c.i++
		}
		if c.cur.Next() {
			return true
		}
		if err := c.cur.Err(); err != nil {
			c.err = err
			return false
		}
		c.cur = nil
	}
}

func (c *shardedCursor) Key() []byte {
	if c.cur == nil {
		return nil
	}
	return c.cur.Key()
}

func (c *shardedCursor) Value() []byte {
	if c.cur == nil {
		return nil
	}
	return c.cur.Value()
}

func (c *shardedCursor) Err() error { return c.err }

// Stats aggregates every shard into the uniform totals and attaches the
// per-shard breakdown in Shards.
func (s *Sharded) Stats() (Stats, error) {
	agg := Stats{Method: Hash, Hash: &HashStats{}, Shards: make([]Stats, 0, len(s.shards))}
	for _, sh := range s.shards {
		st, err := sh.Stats()
		if err != nil {
			return Stats{}, err
		}
		agg.Keys += st.Keys
		agg.Pages += st.Pages
		agg.PageSize = st.PageSize
		agg.CacheHits += st.CacheHits
		agg.CacheMisses += st.CacheMisses
		addHashStats(agg.Hash, st.Hash)
		agg.Shards = append(agg.Shards, st)
	}
	if t := agg.CacheHits + agg.CacheMisses; t > 0 {
		agg.CacheHitRatio = float64(agg.CacheHits) / float64(t)
	}
	// AvgFill is re-weighted by bucket count below; undo the running sum.
	if b := int64(agg.Hash.Buckets); b > 0 {
		agg.Hash.AvgFill /= float64(b)
	}
	// Rates do not sum; rederive the aggregate from the summed counters.
	agg.Hash.FilterHitRate = filterHitRate(agg.Hash)
	return agg, nil
}

// addHashStats folds one shard's hash detail into the aggregate.
// AvgFill accumulates bucket-weighted (divided out by the caller);
// MaxChain takes the max; ChainDist merges elementwise; WalLSN reports
// the furthest shard checkpoint.
func addHashStats(agg, sh *HashStats) {
	agg.AvgFill += sh.AvgFill * float64(sh.Buckets)
	agg.Buckets += sh.Buckets
	agg.OverflowPages += sh.OverflowPages
	agg.BigPairPages += sh.BigPairPages
	agg.BitmapPages += sh.BitmapPages
	agg.EmptyBuckets += sh.EmptyBuckets
	if sh.MaxChain > agg.MaxChain {
		agg.MaxChain = sh.MaxChain
	}
	for len(agg.ChainDist) < len(sh.ChainDist) {
		agg.ChainDist = append(agg.ChainDist, 0)
	}
	for i, n := range sh.ChainDist {
		agg.ChainDist[i] += n
	}
	agg.Gets += sh.Gets
	agg.GetMisses += sh.GetMisses
	agg.Puts += sh.Puts
	agg.Deletes += sh.Deletes
	agg.SplitsControlled += sh.SplitsControlled
	agg.SplitsUncontrolled += sh.SplitsUncontrolled
	agg.OvflAllocs += sh.OvflAllocs
	agg.OvflFrees += sh.OvflFrees
	agg.Syncs += sh.Syncs
	agg.FilterHits += sh.FilterHits
	agg.FilterSkips += sh.FilterSkips
	agg.FilterFalsePositives += sh.FilterFalsePositives
	agg.FilterPageSkips += sh.FilterPageSkips
	agg.Prefetches += sh.Prefetches
	agg.PrefetchedPages += sh.PrefetchedPages
	if sh.WalLSN > agg.WalLSN {
		agg.WalLSN = sh.WalLSN
	}
	if sh.WalLastLSN > agg.WalLastLSN {
		agg.WalLastLSN = sh.WalLastLSN
	}
	agg.WalCheckpointLag += sh.WalCheckpointLag
	agg.TxnCommits += sh.TxnCommits
	agg.WalAppends += sh.WalAppends
	agg.WalFsyncs += sh.WalFsyncs
	agg.WalFsyncJoins += sh.WalFsyncJoins
	agg.WalAppendedBytes += sh.WalAppendedBytes
	agg.WalIOTimeNS += sh.WalIOTimeNS
}

// Begin starts a routing transaction (see BeginOp).
func (s *Sharded) Begin() (Txn, error) { return s.BeginOp(nil) }

type shardedTxn struct {
	s    *Sharded
	sub  []Txn
	led  *oplog.Ledger
	done bool
}

func (x *shardedTxn) forKey(key []byte) (Txn, error) {
	i := 0
	if len(x.s.shards) > 1 {
		i = shardOf(key, len(x.s.shards))
	}
	if x.sub[i] == nil {
		t, err := x.s.shards[i].BeginOp(x.led)
		if err != nil {
			return nil, err
		}
		x.sub[i] = t
	}
	return x.sub[i], nil
}

func (x *shardedTxn) Put(key, data []byte) error {
	if x.done {
		return core.ErrTxnDone
	}
	t, err := x.forKey(key)
	if err != nil {
		return err
	}
	return t.Put(key, data)
}

func (x *shardedTxn) Delete(key []byte) error {
	if x.done {
		return core.ErrTxnDone
	}
	t, err := x.forKey(key)
	if err != nil {
		return err
	}
	return t.Delete(key)
}

func (x *shardedTxn) Commit() error {
	if x.done {
		return core.ErrTxnDone
	}
	x.done = true
	for i, t := range x.sub {
		if t == nil {
			continue
		}
		if err := t.Commit(); err != nil {
			// Shards before i are durably committed; roll the rest back
			// so their buffered ops cannot leak into a later reuse.
			for _, rest := range x.sub[i+1:] {
				if rest != nil {
					_ = rest.Rollback()
				}
			}
			return fmt.Errorf("db: sharded commit: shard %d: %w", i, err)
		}
	}
	return nil
}

func (x *shardedTxn) Rollback() error {
	if x.done {
		return core.ErrTxnDone
	}
	x.done = true
	var errs []error
	for _, t := range x.sub {
		if t != nil {
			if err := t.Rollback(); err != nil {
				errs = append(errs, err)
			}
		}
	}
	return errors.Join(errs...)
}

// shardKeys reports how an example key set distributes over n shards —
// a test hook kept close to shardOf so the router and its distribution
// check cannot drift apart.
func shardKeys(keys [][]byte, n int) []int {
	counts := make([]int, n)
	for _, k := range keys {
		counts[shardOf(k, n)]++
	}
	sort.Ints(counts)
	return counts
}

// Static interface checks.
var (
	_ DB     = (*Sharded)(nil)
	_ Txn    = (*shardedTxn)(nil)
	_ Cursor = (*shardedCursor)(nil)
)
