// Package db is the generic database access interface the paper's
// conclusion describes: "All of the access methods are based on a
// key/data pair interface and appear identical to the application layer,
// allowing application implementations to be largely independent of the
// database type." It is the Go shape of 4.4BSD's dbopen(3).
//
// Three access methods implement the interface: Hash (this paper's
// contribution), Btree, and Recno. Applications select one at Open and
// use the uniform key/data operations; recno record numbers travel as
// 8-byte big-endian keys (see RecnoKey).
package db

import (
	"encoding/binary"
	"errors"
	"fmt"

	"unixhash/internal/btree"
	"unixhash/internal/core"
	"unixhash/internal/recno"
)

// Method selects an access method at Open.
type Method int

// The access methods of the package.
const (
	Hash Method = iota
	Btree
	Recno
)

func (m Method) String() string {
	switch m {
	case Hash:
		return "hash"
	case Btree:
		return "btree"
	case Recno:
		return "recno"
	}
	return fmt.Sprintf("method(%d)", int(m))
}

// Errors normalized across access methods.
var (
	ErrNotFound  = errors.New("db: key not found")
	ErrKeyExists = errors.New("db: key already exists")
	// ErrBadOptions wraps every option-validation failure from Open. The
	// error text names the rejected field and value, so a misconfigured
	// open fails loudly instead of being silently clamped to a default.
	ErrBadOptions = errors.New("db: invalid options")
)

// Config carries per-method options to Open; only the field matching the
// chosen method is consulted, and nil selects defaults.
type Config struct {
	Hash  *core.Options
	Btree *btree.Options
	Recno *recno.Options
}

// Pair is one key/data pair for batched insertion (PutBatch).
type Pair = core.Pair

// DB is the uniform key/data interface over all access methods.
type DB interface {
	// Get returns the data stored under key (ErrNotFound if absent).
	Get(key []byte) ([]byte, error)
	// GetBuf is Get with caller-supplied storage: the data is appended
	// to dst[:0] and the resulting slice returned, so a hot read loop
	// can run allocation-free by reusing one buffer.
	GetBuf(key, dst []byte) ([]byte, error)
	// Put stores data under key, replacing an existing value.
	Put(key, data []byte) error
	// PutBatch stores every pair with Put semantics (last occurrence of
	// a duplicate key wins). The hash method applies the whole batch
	// under one table lock with bucket-grouped inserts and deferred
	// splits (core.Table.PutBatch); the other methods loop Put, so the
	// call is portable but only hash gains the amortization.
	PutBatch(pairs []Pair) error
	// PutNew stores data under key, failing with ErrKeyExists.
	PutNew(key, data []byte) error
	// Delete removes key (ErrNotFound if absent).
	Delete(key []byte) error
	// Begin starts a transaction: an atomic batch of Put/Delete made
	// durable and visible as one unit by Commit. Real on the hash method
	// when it was opened with a write-ahead log (core.Options.WAL —
	// without one Begin reports core.ErrNoWAL); btree and recno report
	// ErrNoTxn. Sharded databases return a routing transaction that is
	// atomic within each shard (see Sharded.Begin).
	Begin() (Txn, error)
	// Seq returns a cursor over every pair. Hash yields bucket order,
	// Btree ascending key order, Recno record order.
	Seq() Cursor
	// Len reports the number of stored pairs.
	Len() int
	// Sync flushes to stable storage.
	Sync() error
	// Stats reports the database's statistics in the uniform Stats
	// shape; method-specific detail rides in the typed sub-struct. A
	// closed database returns its method's ErrClosed, never a stale
	// snapshot.
	Stats() (Stats, error)
	// Close flushes and closes.
	Close() error
}

// Stats is the uniform statistics view over all access methods: the
// fields every method can answer, plus exactly one method-specific
// sub-struct. It replaces casting a DB to its concrete type to reach
// per-method counters.
type Stats struct {
	Method   Method
	Keys     int64
	Pages    int64 // pages in the backing store (0 for unpaged methods)
	PageSize int   // 0 for unpaged methods
	// Buffer-pool behaviour (zero-valued for unpaged methods).
	CacheHits     int64
	CacheMisses   int64
	CacheHitRatio float64
	// Exactly one of these is non-nil, matching Method.
	Hash  *HashStats
	Btree *BtreeStats
	Recno *RecnoStats
	// Shards carries the per-shard breakdown of a sharded database
	// (OpenSharded): entry i is shard i's own Stats. Nil for unsharded
	// databases; the top-level fields of a sharded Stats are the
	// aggregate over every shard.
	Shards []Stats `json:",omitempty"`
}

// HashStats is the hash method's detail: the paper's fill statistics
// plus the operation and split counters from the metrics registry.
type HashStats struct {
	Buckets            uint32
	OverflowPages      int
	BigPairPages       int
	BitmapPages        int
	MaxChain           int
	ChainDist          []int // ChainDist[i] buckets have chains of i+1 pages
	AvgFill            float64
	EmptyBuckets       int
	Gets               int64
	GetMisses          int64
	Puts               int64
	Deletes            int64
	SplitsControlled   int64
	SplitsUncontrolled int64
	OvflAllocs         int64
	OvflFrees          int64
	Syncs              int64
	// Read-acceleration counters: tag-filter outcomes on Get and
	// vectored chain read-ahead activity.
	FilterHits           int64
	FilterSkips          int64
	FilterFalsePositives int64
	FilterPageSkips      int64
	// FilterHitRate is the fraction of filter consults that proved the
	// key absent without touching a page (skips over all consults).
	FilterHitRate   float64
	Prefetches      int64
	PrefetchedPages int64
	// Write-ahead log activity; all zero for a table without a log.
	WalLSN     uint64 // checkpoint LSN from the header
	WalLastLSN uint64 // last appended commit LSN
	// WalCheckpointLag counts the committed transactions a crash right
	// now would replay: WalLastLSN - WalLSN (summed across shards).
	WalCheckpointLag uint64
	TxnCommits       int64
	WalAppends       int64
	WalFsyncs        int64
	WalFsyncJoins    int64 // commits that shared another committer's fsync
	WalAppendedBytes int64
	WalIOTimeNS      int64
}

// BtreeStats is the btree method's detail.
type BtreeStats struct {
	Depth     int
	FreePages int
	Gets      int64
	GetMisses int64
	Puts      int64
	Deletes   int64
	Syncs     int64
}

// RecnoStats is the recno method's detail.
type RecnoStats struct {
	Bytes     int64
	Reclen    int
	Bval      byte
	Gets      int64
	GetMisses int64
	Puts      int64
	Deletes   int64
	Syncs     int64
}

// Cursor iterates key/data pairs. Key and Value are valid until the next
// call to Next.
type Cursor interface {
	Next() bool
	Key() []byte
	Value() []byte
	Err() error
}

// Open opens path with the chosen access method. An empty path is
// memory-resident for every method.
func Open(path string, m Method, cfg *Config) (DB, error) {
	var c Config
	if cfg != nil {
		c = *cfg
	}
	if err := validate(m, c); err != nil {
		return nil, err
	}
	switch m {
	case Hash:
		t, err := core.Open(path, c.Hash)
		if err != nil {
			return nil, err
		}
		return &hashDB{t}, nil
	case Btree:
		t, err := btree.Open(path, c.Btree)
		if err != nil {
			return nil, err
		}
		return &btreeDB{t}, nil
	case Recno:
		f, err := recno.Open(path, c.Recno)
		if err != nil {
			return nil, err
		}
		return &recnoDB{f}, nil
	default:
		return nil, fmt.Errorf("db: unknown access method %v", m)
	}
}

// validate runs the chosen method's option validation, wrapping any
// failure in ErrBadOptions with the method and field named.
func validate(m Method, c Config) error {
	var err error
	switch m {
	case Hash:
		err = c.Hash.Validate()
	case Btree:
		err = c.Btree.Validate()
	case Recno:
		err = c.Recno.Validate()
	}
	if err != nil {
		return fmt.Errorf("%w: %v option %v", ErrBadOptions, m, err)
	}
	return nil
}

// RecnoKey encodes a record number as a key for the Recno method.
func RecnoKey(i int) []byte {
	var k [8]byte
	binary.BigEndian.PutUint64(k[:], uint64(i))
	return k[:]
}

// ParseRecnoKey decodes a Recno cursor key back to a record number.
func ParseRecnoKey(k []byte) (int, error) {
	if len(k) != 8 {
		return 0, fmt.Errorf("db: recno key is %d bytes, want 8", len(k))
	}
	return int(binary.BigEndian.Uint64(k)), nil
}

// --- hash adapter ---

type hashDB struct{ t *core.Table }

func (d *hashDB) Get(key []byte) ([]byte, error)         { return d.GetBufOp(nil, key, nil) }
func (d *hashDB) GetBuf(key, dst []byte) ([]byte, error) { return d.GetBufOp(nil, key, dst) }
func (d *hashDB) Put(key, data []byte) error             { return d.PutOp(nil, key, data) }
func (d *hashDB) PutBatch(pairs []Pair) error            { return d.PutBatchOp(nil, pairs) }

func (d *hashDB) PutNew(key, data []byte) error {
	err := d.t.PutNew(key, data)
	if errors.Is(err, core.ErrKeyExists) {
		return ErrKeyExists
	}
	return err
}

func (d *hashDB) Delete(key []byte) error { return d.DeleteOp(nil, key) }

func (d *hashDB) Seq() Cursor  { return d.t.Iter() }
func (d *hashDB) Len() int     { return d.t.Len() }
func (d *hashDB) Sync() error  { return d.t.Sync() }
func (d *hashDB) Close() error { return d.t.Close() }

func (d *hashDB) Stats() (Stats, error) {
	fs, err := d.t.FillStats()
	if err != nil {
		return Stats{}, err
	}
	snap, err := d.t.MetricsSnapshot()
	if err != nil {
		return Stats{}, err
	}
	c := d.t.Pool().Counters()
	s := Stats{
		Method:        Hash,
		Keys:          fs.Keys,
		Pages:         int64(d.t.Store().NPages()),
		PageSize:      d.t.Store().PageSize(),
		CacheHits:     c.Hits,
		CacheMisses:   c.Misses,
		CacheHitRatio: c.HitRatio(),
		Hash: &HashStats{
			Buckets:              fs.Buckets,
			OverflowPages:        fs.OverflowPages,
			BigPairPages:         fs.BigPairPages,
			BitmapPages:          fs.BitmapPages,
			MaxChain:             fs.MaxChain,
			ChainDist:            fs.ChainDist,
			AvgFill:              fs.AvgFill,
			EmptyBuckets:         fs.EmptyBuckets,
			Gets:                 snap.Counter(core.MetricGets),
			GetMisses:            snap.Counter(core.MetricGetMisses),
			Puts:                 snap.Counter(core.MetricPuts),
			Deletes:              snap.Counter(core.MetricDeletes),
			SplitsControlled:     snap.Counter(core.MetricSplitsControlled),
			SplitsUncontrolled:   snap.Counter(core.MetricSplitsUncontrolled),
			OvflAllocs:           snap.Counter(core.MetricOvflAllocs),
			OvflFrees:            snap.Counter(core.MetricOvflFrees),
			Syncs:                snap.Counter(core.MetricSyncs),
			FilterHits:           snap.Counter(core.MetricFilterHits),
			FilterSkips:          snap.Counter(core.MetricFilterSkips),
			FilterFalsePositives: snap.Counter(core.MetricFilterFPs),
			FilterPageSkips:      snap.Counter(core.MetricFilterPageSkips),
			Prefetches:           snap.Counter(core.MetricPrefetches),
			PrefetchedPages:      snap.Counter(core.MetricPrefetchedPages),
			WalLSN:               d.t.Geometry().WalLSN,
			TxnCommits:           snap.Counter(core.MetricTxnCommits),
		},
	}
	if ws, ok := d.t.WALStats(); ok {
		s.Hash.WalAppends = ws.Appends
		s.Hash.WalFsyncs = ws.Fsyncs
		s.Hash.WalFsyncJoins = ws.FsyncJoins
		s.Hash.WalAppendedBytes = ws.AppendedBytes
		s.Hash.WalIOTimeNS = int64(ws.IOTime)
		s.Hash.WalLastLSN = d.t.WALLastLSN()
		if s.Hash.WalLastLSN > s.Hash.WalLSN {
			s.Hash.WalCheckpointLag = s.Hash.WalLastLSN - s.Hash.WalLSN
		}
	}
	s.Hash.FilterHitRate = filterHitRate(s.Hash)
	return s, nil
}

// filterHitRate derives the proven-absent fraction from the raw filter
// counters; zero consults yields zero.
func filterHitRate(h *HashStats) float64 {
	if t := h.FilterHits + h.FilterSkips; t > 0 {
		return float64(h.FilterSkips) / float64(t)
	}
	return 0
}

// table exposes the underlying hash table inside the package (telemetry
// mounting, Verify). Deliberately unexported: applications use the DB
// interface — method-specific operations go through Begin, Verify, Check
// and Seek, never through the concrete table.
func (d *hashDB) table() *core.Table { return d.t }

// --- btree adapter ---

type btreeDB struct{ t *btree.Tree }

func (d *btreeDB) Get(key []byte) ([]byte, error) {
	v, err := d.t.Get(key)
	if errors.Is(err, btree.ErrNotFound) {
		return nil, ErrNotFound
	}
	return v, err
}

// GetBuf copies into dst for interface parity; the btree has no
// zero-copy read path.
func (d *btreeDB) GetBuf(key, dst []byte) ([]byte, error) {
	v, err := d.Get(key)
	if err != nil {
		return nil, err
	}
	return append(dst[:0], v...), nil
}

func (d *btreeDB) Put(key, data []byte) error { return d.t.Put(key, data) }

// PutBatch loops Put: the btree has no batched write path, so the call
// is sequential-Put semantics at sequential-Put cost.
func (d *btreeDB) PutBatch(pairs []Pair) error {
	for _, p := range pairs {
		if err := d.t.Put(p.Key, p.Data); err != nil {
			return err
		}
	}
	return nil
}

func (d *btreeDB) PutNew(key, data []byte) error {
	err := d.t.PutNew(key, data)
	if errors.Is(err, btree.ErrKeyExists) {
		return ErrKeyExists
	}
	return err
}

func (d *btreeDB) Delete(key []byte) error {
	err := d.t.Delete(key)
	if errors.Is(err, btree.ErrNotFound) {
		return ErrNotFound
	}
	return err
}

func (d *btreeDB) Seq() Cursor  { return d.t.Cursor() }
func (d *btreeDB) Len() int     { return d.t.Len() }
func (d *btreeDB) Sync() error  { return d.t.Sync() }
func (d *btreeDB) Close() error { return d.t.Close() }

func (d *btreeDB) Stats() (Stats, error) {
	ts, err := d.t.Stats()
	if err != nil {
		return Stats{}, err
	}
	return Stats{
		Method:        Btree,
		Keys:          ts.Keys,
		Pages:         int64(ts.Pages),
		PageSize:      ts.PageSize,
		CacheHits:     ts.Cache.Hits,
		CacheMisses:   ts.Cache.Misses,
		CacheHitRatio: ts.Cache.HitRatio(),
		Btree: &BtreeStats{
			Depth:     ts.Depth,
			FreePages: ts.FreePages,
			Gets:      ts.Gets,
			GetMisses: ts.GetMisses,
			Puts:      ts.Puts,
			Deletes:   ts.Deletes,
			Syncs:     ts.Syncs,
		},
	}, nil
}

// tree exposes the underlying btree inside the package (Seek, Check).
// Unexported for the same reason as hashDB.table.
func (d *btreeDB) tree() *btree.Tree { return d.t }

// --- recno adapter ---

type recnoDB struct{ f *recno.File }

func (d *recnoDB) recno(key []byte) (int, error) {
	i, err := ParseRecnoKey(key)
	if err != nil {
		return 0, err
	}
	return i, nil
}

func (d *recnoDB) Get(key []byte) ([]byte, error) {
	i, err := d.recno(key)
	if err != nil {
		return nil, err
	}
	v, err := d.f.Get(i)
	if errors.Is(err, recno.ErrNotFound) {
		return nil, ErrNotFound
	}
	return v, err
}

// GetBuf copies into dst for interface parity.
func (d *recnoDB) GetBuf(key, dst []byte) ([]byte, error) {
	v, err := d.Get(key)
	if err != nil {
		return nil, err
	}
	return append(dst[:0], v...), nil
}

func (d *recnoDB) Put(key, data []byte) error {
	i, err := d.recno(key)
	if err != nil {
		return err
	}
	err = d.f.Put(i, data)
	if errors.Is(err, recno.ErrNotFound) {
		return ErrNotFound
	}
	return err
}

// PutBatch loops Put, parsing each pair's RecnoKey.
func (d *recnoDB) PutBatch(pairs []Pair) error {
	for _, p := range pairs {
		if err := d.Put(p.Key, p.Data); err != nil {
			return err
		}
	}
	return nil
}

func (d *recnoDB) PutNew(key, data []byte) error {
	i, err := d.recno(key)
	if err != nil {
		return err
	}
	if i < d.f.Len() {
		return ErrKeyExists
	}
	err = d.f.Put(i, data)
	if errors.Is(err, recno.ErrNotFound) {
		return ErrNotFound
	}
	return err
}

func (d *recnoDB) Delete(key []byte) error {
	i, err := d.recno(key)
	if err != nil {
		return err
	}
	err = d.f.Delete(i)
	if errors.Is(err, recno.ErrNotFound) {
		return ErrNotFound
	}
	return err
}

func (d *recnoDB) Stats() (Stats, error) {
	fs, err := d.f.Stats()
	if err != nil {
		return Stats{}, err
	}
	return Stats{
		Method: Recno,
		Keys:   fs.Records,
		Recno: &RecnoStats{
			Bytes:     fs.Bytes,
			Reclen:    fs.Reclen,
			Bval:      fs.Bval,
			Gets:      fs.Gets,
			GetMisses: fs.GetMisses,
			Puts:      fs.Puts,
			Deletes:   fs.Deletes,
			Syncs:     fs.Syncs,
		},
	}, nil
}

func (d *recnoDB) Seq() Cursor  { return &recnoCursor{f: d.f, i: -1} }
func (d *recnoDB) Len() int     { return d.f.Len() }
func (d *recnoDB) Sync() error  { return d.f.Sync() }
func (d *recnoDB) Close() error { return d.f.Close() }

type recnoCursor struct {
	f   *recno.File
	i   int
	key []byte
	val []byte
	err error
}

func (c *recnoCursor) Next() bool {
	if c.err != nil {
		return false
	}
	c.i++
	v, err := c.f.Get(c.i)
	if errors.Is(err, recno.ErrNotFound) {
		return false
	}
	if err != nil {
		c.err = err
		return false
	}
	c.key = RecnoKey(c.i)
	c.val = v
	return true
}

func (c *recnoCursor) Key() []byte   { return c.key }
func (c *recnoCursor) Value() []byte { return c.val }
func (c *recnoCursor) Err() error    { return c.err }

// Static interface checks.
var (
	_ DB     = (*hashDB)(nil)
	_ DB     = (*btreeDB)(nil)
	_ DB     = (*recnoDB)(nil)
	_ Cursor = (*core.Iterator)(nil)
	_ Cursor = (*btree.Cursor)(nil)
	_ Cursor = (*recnoCursor)(nil)
)
