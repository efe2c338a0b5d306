package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"unixhash/internal/core"
	"unixhash/internal/db"
	"unixhash/internal/oplog"
	"unixhash/internal/pagefile"
	"unixhash/internal/server"
)

// Serveload measures the network front end: real TCP connections
// speaking the wire protocol against internal/server, first over a
// single-shard database and then over serveShards shards, so the
// number that matters — how much write throughput sharding buys at
// equal client count — comes from the same code path a production
// client exercises.
//
// Like the txn harness, the shards run on in-memory stores with a
// SLEEPING simulated cost model (100us page I/O) and a deliberately
// tiny buffer pool, so every coalesced batch does its page I/O inside
// the table's exclusive batch section. That makes the phases measure
// lock-structure, not host core count: one shard must serialize every
// connection's batches behind one lock, while N shards overlap them —
// sleeps overlap even on GOMAXPROCS=1. The third phase runs a mixed
// read/write workload (with an occasional transaction paying the WAL's
// sleeping append+fsync costs) over the sharded database and reports
// pipeline-window round-trip latency percentiles: the time the tail
// command of a window waited for its reply.

var (
	serveStoreCost = pagefile.CostModel{
		ReadCost:  100 * time.Microsecond,
		WriteCost: 100 * time.Microsecond,
		SyncCost:  time.Millisecond,
		Sleep:     true,
	}
	serveWalCost = pagefile.CostModel{
		WriteCost: 50 * time.Microsecond,
		SyncCost:  500 * time.Microsecond,
		Sleep:     true,
	}
)

const (
	serveShards     = 8
	serveBsize      = 1024
	serveFfactor    = 8
	serveCache      = 16 << 10 // 16 pages per shard: batches must do I/O
	serveOpsPerConn = 1024
	servePreload    = 8192 // mixed-phase key space
)

// ServePhase is one measured workload phase.
type ServePhase struct {
	Shards      int     `json:"shards"`
	Ops         int     `json:"ops"`
	Seconds     float64 `json:"elapsed_seconds"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	WindowP50US int64   `json:"window_p50_us"`
	WindowP99US int64   `json:"window_p99_us"`
}

// ServeloadResult is the BENCH_serve.json payload.
type ServeloadResult struct {
	Conns        int        `json:"conns"`
	Pipeline     int        `json:"pipeline_depth"`
	WritePct     int        `json:"mixed_write_pct"`
	GOMAXPROCS   int        `json:"gomaxprocs"`
	NumCPU       int        `json:"numcpu"`
	WriteSingle  ServePhase `json:"write_1_shard"`
	WriteSharded ServePhase `json:"write_8_shards"`
	Mixed        ServePhase `json:"mixed_8_shards"`
	WriteSpeedup float64    `json:"write_speedup_8_vs_1"`
}

// Serveload runs the three phases with conns client connections each
// pipelining pipeline commands per window; writePct is the mixed
// phase's write percentage. Zero or negative arguments select the
// defaults (8 connections, depth 64, 30% writes).
func Serveload(conns, pipeline, writePct int) (*ServeloadResult, error) {
	if conns <= 0 {
		conns = 8
	}
	if pipeline <= 0 {
		pipeline = 64
	}
	if pipeline > 4096 {
		pipeline = 4096
	}
	if writePct <= 0 {
		writePct = 30
	}
	if writePct > 100 {
		writePct = 100
	}
	res := &ServeloadResult{
		Conns: conns, Pipeline: pipeline, WritePct: writePct,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
	}

	var err error
	if res.WriteSingle, err = servePhaseWrite(1, conns, pipeline); err != nil {
		return nil, err
	}
	if res.WriteSharded, err = servePhaseWrite(serveShards, conns, pipeline); err != nil {
		return nil, err
	}
	if res.Mixed, err = servePhaseMixed(serveShards, conns, pipeline, writePct, nil); err != nil {
		return nil, err
	}
	res.WriteSpeedup = res.WriteSharded.OpsPerSec / res.WriteSingle.OpsPerSec
	return res, nil
}

// serveOpen starts a server over a fresh nshards in-memory database on
// the simulated disks; a non-nil rec turns on per-request attribution.
func serveOpen(nshards int, useWAL bool, rec *oplog.Recorder) (*db.Sharded, *server.Server, error) {
	opts := &core.Options{
		Bsize: serveBsize, Ffactor: serveFfactor, CacheSize: serveCache,
		Cost: serveStoreCost,
	}
	if useWAL {
		opts.WAL = true
		opts.WALCost = serveWalCost
	}
	d, err := db.OpenSharded("", nshards, &db.Config{Hash: opts})
	if err != nil {
		return nil, nil, err
	}
	s, err := server.Serve("127.0.0.1:0", server.Options{DB: d, Oplog: rec})
	if err != nil {
		d.Close()
		return nil, nil, err
	}
	return d, s, nil
}

// servePhaseWrite drives conns connections, each pipelining windows of
// PUTs over disjoint key ranges, and reports aggregate throughput.
func servePhaseWrite(nshards, conns, pipeline int) (ServePhase, error) {
	d, s, err := serveOpen(nshards, false, nil)
	if err != nil {
		return ServePhase{}, err
	}
	defer d.Close()
	defer s.Close()

	lats := make([][]time.Duration, conns)
	start := time.Now()
	err = serveClients(s.Addr(), conns, func(w int, c *serveConn) error {
		var ws []time.Duration
		for i := 0; i < serveOpsPerConn; i += pipeline {
			t0 := time.Now()
			n := min(pipeline, serveOpsPerConn-i)
			for j := 0; j < n; j++ {
				fmt.Fprintf(c.bw, "PUT w%d-%06d v%d\r\n", w, i+j, i+j)
			}
			if err := c.expectStatuses(n); err != nil {
				return err
			}
			ws = append(ws, time.Since(t0))
		}
		lats[w] = ws
		return nil
	})
	if err != nil {
		return ServePhase{}, err
	}
	elapsed := time.Since(start)
	if got, want := d.Len(), conns*serveOpsPerConn; got != want {
		return ServePhase{}, fmt.Errorf("serveload: %d-shard write phase stored %d keys, want %d", nshards, got, want)
	}
	return servePhaseResult(nshards, conns*serveOpsPerConn, elapsed, lats), nil
}

// servePhaseMixed preloads a key space, then drives a writePct-write /
// rest-read mix with one small transaction per 4 windows. A non-nil rec
// runs the phase with per-request attribution on.
func servePhaseMixed(nshards, conns, pipeline, writePct int, rec *oplog.Recorder) (ServePhase, error) {
	d, s, err := serveOpen(nshards, true, rec)
	if err != nil {
		return ServePhase{}, err
	}
	defer d.Close()
	defer s.Close()

	pre := make([]db.Pair, servePreload)
	for i := range pre {
		pre[i] = db.Pair{Key: []byte(fmt.Sprintf("pre-%06d", i)), Data: []byte("seed")}
	}
	if err := d.PutBatch(pre); err != nil {
		return ServePhase{}, err
	}

	lats := make([][]time.Duration, conns)
	ops := make([]int, conns)
	start := time.Now()
	err = serveClients(s.Addr(), conns, func(w int, c *serveConn) error {
		rng := rand.New(rand.NewSource(int64(w) + 1))
		var ws []time.Duration
		window := 0
		for done := 0; done < serveOpsPerConn; {
			t0 := time.Now()
			var kinds []byte // reply shape per command: 's'tatus, 'g'et
			n := min(pipeline, serveOpsPerConn-done)
			for j := 0; j < n; j++ {
				key := fmt.Sprintf("pre-%06d", rng.Intn(servePreload))
				if rng.Intn(100) < writePct {
					fmt.Fprintf(c.bw, "PUT %s fresh%d\r\n", key, j)
					kinds = append(kinds, 's')
				} else {
					fmt.Fprintf(c.bw, "GET %s\r\n", key)
					kinds = append(kinds, 'g')
				}
			}
			if window%4 == 3 { // an occasional durable transaction
				fmt.Fprintf(c.bw, "TXN BEGIN\r\nPUT txn-%d-%d committed\r\nDEL txn-%d-%d\r\nTXN COMMIT\r\n", w, window, w, window)
				kinds = append(kinds, 's', 's', 's', 's')
			}
			if err := c.expectReplies(kinds); err != nil {
				return err
			}
			ws = append(ws, time.Since(t0))
			done += n
			ops[w] += len(kinds)
			window++
		}
		lats[w] = ws
		return nil
	})
	if err != nil {
		return ServePhase{}, err
	}
	elapsed := time.Since(start)
	total := 0
	for _, n := range ops {
		total += n
	}
	return servePhaseResult(nshards, total, elapsed, lats), nil
}

func servePhaseResult(nshards, ops int, elapsed time.Duration, lats [][]time.Duration) ServePhase {
	var all []time.Duration
	for _, ws := range lats {
		all = append(all, ws...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pct := func(p float64) int64 {
		if len(all) == 0 {
			return 0
		}
		return all[int(p*float64(len(all)-1))].Microseconds()
	}
	return ServePhase{
		Shards:      nshards,
		Ops:         ops,
		Seconds:     elapsed.Seconds(),
		OpsPerSec:   float64(ops) / elapsed.Seconds(),
		WindowP50US: pct(0.50),
		WindowP99US: pct(0.99),
	}
}

// serveConn is the benchmark's wire-protocol client side.
type serveConn struct {
	bw *bufio.Writer
	br *bufio.Reader
}

// expectStatuses flushes the window and reads n single-line replies,
// failing on any -ERR.
func (c *serveConn) expectStatuses(n int) error {
	return c.expectReplies(make([]byte, n)) // zero byte: single-line reply
}

// expectReplies flushes and reads one reply per kind: 'g' may be a
// bulk value or nil, anything else is a single status/integer line.
func (c *serveConn) expectReplies(kinds []byte) error {
	if err := c.bw.Flush(); err != nil {
		return err
	}
	for _, k := range kinds {
		line, err := c.br.ReadString('\n')
		if err != nil {
			return err
		}
		if strings.HasPrefix(line, "-") {
			return fmt.Errorf("serveload: server replied %q", strings.TrimSpace(line))
		}
		if k == 'g' && strings.HasPrefix(line, "$") && !strings.HasPrefix(line, "$-1") {
			var n int
			if _, err := fmt.Sscanf(line, "$%d", &n); err != nil {
				return fmt.Errorf("serveload: bad bulk header %q", strings.TrimSpace(line))
			}
			if _, err := io.ReadFull(c.br, make([]byte, n+2)); err != nil {
				return err
			}
		}
	}
	return nil
}

// serveClients runs fn on conns parallel connections and joins the
// first error.
func serveClients(addr string, conns int, fn func(w int, c *serveConn) error) error {
	var wg sync.WaitGroup
	errs := make([]error, conns)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				errs[w] = err
				return
			}
			defer nc.Close()
			errs[w] = fn(w, &serveConn{bw: bufio.NewWriterSize(nc, 64<<10), br: bufio.NewReader(nc)})
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Gate fails if sharding bought less than min aggregate write
// throughput over a single shard at equal client count. The phases
// sleep their I/O, so the ratio reflects lock structure rather than
// host parallelism and is stable on small CI machines.
func (r *ServeloadResult) Gate(min float64) error {
	if r.WriteSpeedup < min {
		return fmt.Errorf("serveload: %d-shard write speedup %.2fx is below the %.2fx gate",
			serveShards, r.WriteSpeedup, min)
	}
	return nil
}

// JSON renders the BENCH_serve.json payload.
func (r *ServeloadResult) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

func (r *ServeloadResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Network front end: %d connections, pipeline depth %d, GOMAXPROCS=%d (NumCPU=%d)\n",
		r.Conns, r.Pipeline, r.GOMAXPROCS, r.NumCPU)
	fmt.Fprintf(&b, "simulated disk per shard: %v page I/O (slept), %d-byte cache\n\n",
		serveStoreCost.WriteCost, serveCache)
	fmt.Fprintf(&b, "%-16s %7s %10s %12s %12s %12s\n", "phase", "shards", "ops", "ops/sec", "win p50", "win p99")
	row := func(name string, p ServePhase) {
		fmt.Fprintf(&b, "%-16s %7d %10d %12.0f %10dus %10dus\n",
			name, p.Shards, p.Ops, p.OpsPerSec, p.WindowP50US, p.WindowP99US)
	}
	row("write", r.WriteSingle)
	row("write", r.WriteSharded)
	fmt.Fprintf(&b, "%-16s %7s %10s %12s\n", "", "", "", fmt.Sprintf("%.2fx", r.WriteSpeedup))
	row(fmt.Sprintf("mixed %d%%w", r.WritePct), r.Mixed)
	return b.String()
}
