package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strconv"
	"sync"

	"unixhash/internal/core"
	"unixhash/internal/db"
	"unixhash/internal/metrics"
	"unixhash/internal/oplog"
	"unixhash/internal/server"
)

// serve-mixed: the network front end as cmd/dbserver ships it (8
// memory-resident shards, each with a write-ahead log and a 64 KB pool,
// the op-ledger recorder on) under two closed-loop clients over
// loopback. Server parsing, coalescing and replies, shard fan-out and
// log commits do most of the work; the interactive client's latencies
// show the interference of the bulk client's coalesced writes.
const (
	serveShards   = 8
	serveShared   = 200_000 // keys the interactive client reads and writes
	serveBulk     = 50_000  // keys only the bulk client touches
	serveDepth    = 64      // bulk pipeline depth
	serveSetups   = 5
	serveSegments = 10
	serveZipfS    = 1.1
	preloadChunk  = 4096
	sweepPipeline = 256
)

type serveRig struct {
	d     *db.Sharded
	reg   *metrics.Registry
	srv   *server.Server
	inter *client
	bulk  *client
	setup float64 // process CPU seconds
	wall  float64 // seconds
}

func (r *serveRig) close() {
	r.inter.close()
	r.bulk.close()
	r.srv.Close()
	r.d.Close()
}

// buildServe opens the shards with dbserver's defaults, preloads them
// with PutBatch, starts the server and connects both clients.
func buildServe(cfg runCfg, tr *tracer) (*serveRig, error) {
	st, cpu0 := setupStart()
	reg := metrics.New()
	opts := &core.Options{WAL: true, Metrics: reg}
	if tr != nil {
		opts.Hash = tr.hash
	}
	d, err := db.OpenSharded("", serveShards, &db.Config{Hash: opts})
	if err != nil {
		return nil, err
	}
	arena := make([]byte, preloadChunk*(keyLen+valLen))
	pairs := make([]db.Pair, 0, preloadChunk)
	load := func(ns byte, n int) error {
		for i := 0; i < n; {
			pairs = pairs[:0]
			for j := 0; j < preloadChunk && i < n; j, i = j+1, i+1 {
				b := arena[j*(keyLen+valLen) : (j+1)*(keyLen+valLen)]
				pairs = append(pairs, db.Pair{Key: cfg.g.key(b[:keyLen], ns, i), Data: cfg.g.value(b[keyLen:], ns, i, 0, valLen)})
			}
			if err := d.PutBatch(pairs); err != nil {
				return fmt.Errorf("serve-mixed preload: %w", err)
			}
		}
		return nil
	}
	if err := load(nsShared, serveShared); err != nil {
		d.Close()
		return nil, err
	}
	if err := load(nsBulk, serveBulk); err != nil {
		d.Close()
		return nil, err
	}
	rec := oplog.NewRecorder(reg, d.NShards())
	var sdb db.DB = d
	if tr != nil {
		sdb = &timedDB{Sharded: d, t: tr}
	}
	srv, err := server.Serve("127.0.0.1:0", server.Options{DB: sdb, Metrics: reg, Oplog: rec})
	if err != nil {
		d.Close()
		return nil, err
	}
	rig := &serveRig{d: d, reg: reg, srv: srv}
	if rig.inter, err = dial(srv.Addr()); err == nil {
		rig.bulk, err = dial(srv.Addr())
	}
	if err != nil {
		if rig.inter != nil {
			rig.inter.close()
		}
		srv.Close()
		d.Close()
		return nil, err
	}
	rig.setup = float64(cpuNS()-cpu0) / 1e9
	rig.wall = float64(now()-st) / 1e9
	return rig, nil
}

func runServeMixed(cfg runCfg) (*outcome, error) {
	var tr *tracer
	if cfg.traced {
		tr = newTracer(spanBudget)
	}
	setups := serveSetups
	if cfg.traced {
		setups = 1
	}
	var setupS, setupWall []float64
	var rig *serveRig
	for i := 0; i < setups; i++ {
		if rig != nil {
			rig.close()
		}
		var err error
		if rig, err = buildServe(cfg, tr); err != nil {
			return nil, err
		}
		setupS = append(setupS, rig.setup)
		setupWall = append(setupWall, rig.wall)
	}
	defer rig.close()
	st0, err := rig.d.Stats()
	if err != nil {
		return nil, err
	}

	// The timed phase runs in segments, each on fresh connections, and
	// the run reports the median segment: on a shared two-CPU host this
	// loop's speed wanders by about ±10% over seconds.
	warm := min(cfg.seconds/10, 1)
	segNS := int64(cfg.seconds * 1e9 / serveSegments)
	from := now() + int64(warm*1e9)
	to := from + segNS*serveSegments
	var win *window
	if tr != nil {
		win = &window{t: tr, start: from}
	}
	im := &interModel{r: cfg.g.rng(300), ver: make([]uint32, serveShared)}
	im.z = newZipf(im.r, serveZipfS, cfg.g.perm(serveShared))
	bm := &bulkModel{r: cfg.g.rng(400), ver: make([]uint32, serveBulk)}
	inter := &lane{tr: tr}
	bulk := &lane{tr: tr}
	var segRate, segGet, segMiss, segPut []float64
	var before snap
	for seg := 0; seg < serveSegments; seg++ {
		segFrom, segTo := from+int64(seg)*segNS, from+int64(seg+1)*segNS
		ic, bc := rig.inter, rig.bulk
		if seg > 0 {
			var err error
			if ic, err = dial(rig.srv.Addr()); err != nil {
				return nil, err
			}
			if bc, err = dial(rig.srv.Addr()); err != nil {
				ic.close()
				return nil, err
			}
		}
		si := &lane{tr: tr, win: win}
		sb := &lane{tr: tr}
		cpu0 := cpuNS()
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			interactiveLane(cfg, ic, si, im, segFrom, segTo)
		}()
		go func() {
			defer wg.Done()
			bulkLane(cfg, bc, sb, bm, segFrom, segTo)
		}()
		if seg == 0 {
			sleepUntil(from)
			before = takeSnap(rig.reg, tr)
			cpu0 = cpuNS()
		}
		wg.Wait()
		cpuS := float64(cpuNS()-cpu0) / 1e9
		if seg > 0 {
			ic.close()
			bc.close()
		}
		segRate = append(segRate, float64(si.ops[0]+sb.ops[0])/cpuS)
		segGet = append(segGet, us(si.h[0].get.quantile(0.5)))
		segMiss = append(segMiss, us(si.h[0].miss.quantile(0.5)))
		segPut = append(segPut, us(si.h[0].put.quantile(0.5)))
		inter.merge(si)
		bulk.merge(sb)
	}
	after := takeSnap(rig.reg, tr)
	if tr != nil {
		tr.on.Store(false)
	}

	// Final sweep: every key, read back through the server.
	interOps := inter.ops[0] + inter.ops[1]
	l := inter
	l.merge(bulk)
	sweep(cfg, rig.inter, l, nsShared, im.ver)
	sweep(cfg, rig.bulk, l, nsBulk, bm.ver)

	final, err := rig.d.Stats()
	if err != nil {
		return nil, err
	}
	// The workload's premise: the shards hold more than their pools.
	tableBytes := tablePages(st0) * int64(st0.PageSize)
	l.attempted++
	if tableBytes <= serveShards*core.DefaultCacheSize {
		l.fail("serve-mixed premise: table of %d bytes fits the %d-byte pools", tableBytes, serveShards*core.DefaultCacheSize)
	}
	o := &outcome{attempted: l.attempted, failed: l.failed, env: map[string]any{
		"shards": serveShards, "shared_keys": serveShared, "bulk_keys": serveBulk,
		"key_bytes": keyLen, "value_bytes": valLen, "pool_bytes_per_shard": core.DefaultCacheSize,
		"bulk_depth": serveDepth, "zipf_s": serveZipfS, "wal": true, "oplog": true,
		"table_pages_after_setup": tablePages(st0), "table_bytes_after_setup": tableBytes,
		"larger_than_pool":      tableBytes > serveShards*core.DefaultCacheSize,
		"setup_s_each":          setupS,
		"setup_wall_s_each":     setupWall,
		"timed_ops":             l.ops[0] + l.ops[1],
		"timed_seconds":         cfg.seconds,
		"wal_appended_mb_end":   float64(after.c["wal_appended_bytes_total"]) / 1e6,
		"interactive_timed_ops": interOps,
		"segment_get_p50_us":    segGet,
	}}
	if cfg.traced {
		var ph phases
		ph.add(before, after, win, from, to)
		o.an = tr.analyze()
		o.metrics = layerMetrics(layerIn{ph: &ph, l: l, tr: tr, an: o.an, final: final, served: true,
			fileBytes: float64(final.Pages) * float64(final.PageSize)})
		return o, nil
	}
	heap := liveHeapMB()
	probe, probeErr, err := capacityProbe(cfg.g)
	if err != nil {
		return nil, err
	}
	o.env["capacity_probe_stop"] = probeErr
	o.metrics = map[string]float64{
		"setup_s":       median(setupS),
		"ops_per_cpu_s": median(segRate),
		"get_p50_us":    median(segGet),
		"miss_p50_us":   median(segMiss),
		"put_p50_us":    median(segPut),
		"heap_mb":       heap,
		"space_amp":     float64(tablePages(final)*int64(final.PageSize)) / float64(final.Keys*(keyLen+valLen)),
		"capacity_keys": float64(probe),
	}
	return o, nil
}

// interModel is the interactive client's input stream and its model of
// the shared keys; bulkModel is the bulk client's. Both persist across
// segments.
type interModel struct {
	r   *rand.Rand
	z   *zipf
	ver []uint32
}

type bulkModel struct {
	r   *rand.Rand
	ver []uint32
}

// interactiveLane is the depth-1 client: 70% GET hits and 20% PUT
// overwrites on Zipf-chosen shared keys, 5% GETs of absent keys and 5%
// one-key transactions (BEGIN, PUT, PUT, COMMIT). It is the only writer
// of the shared keys, so ver is an exact model.
func interactiveLane(cfg runCfg, c *client, l *lane, m *interModel, from, to int64) {
	r, z, ver := m.r, m.z, m.ver
	tr := l.tr
	var k [keyLen]byte
	var v, want [valLen]byte
	for {
		t0 := now()
		if t0 >= to {
			return
		}
		timed := t0 >= from
		mode := 0
		if timed {
			mode = l.mode(t0)
		}
		h := &l.h[mode]
		u := r.Intn(100)
		var kind spanKind
		var key []byte
		l.attempted++
		switch {
		case u < 70:
			kind = kOpGet
			i := z.next()
			key = cfg.g.key(k[:], nsShared, i)
			rep, err := c.roundTrip(timed, &h.all, "GET", key)
			if err != nil || rep.kind != '$' || rep.nil || !bytes.Equal(rep.data, cfg.g.value(want[:], nsShared, i, ver[i], valLen)) {
				l.fail("serve-mixed get %d: %v %s", i, err, rep)
			}
		case u < 75:
			kind = kOpMiss
			key = cfg.g.key(k[:], nsMiss, r.Intn(1<<30))
			rep, err := c.roundTrip(timed, &h.all, "GET", key)
			if err != nil || rep.kind != '$' || !rep.nil {
				l.fail("serve-mixed miss: %v %s", err, rep)
			}
		case u < 95:
			kind = kOpPut
			i := z.next()
			key = cfg.g.key(k[:], nsShared, i)
			ver[i]++
			rep, err := c.roundTrip(timed, &h.all, "PUT", key, cfg.g.value(v[:], nsShared, i, ver[i], valLen))
			if err != nil || rep.kind != '+' {
				l.fail("serve-mixed put %d: %v %s", i, err, rep)
			}
			l.puts++
			l.putBytes += keyLen + valLen
		default:
			kind = kOpTxn
			i := z.next()
			key = cfg.g.key(k[:], nsShared, i)
			if err := c.txn(timed, &h.all, key, cfg.g.value(v[:], nsShared, i, ver[i]+1, valLen), cfg.g.value(want[:], nsShared, i, ver[i]+2, valLen)); err != nil {
				l.fail("serve-mixed txn %d: %v", i, err)
			}
			ver[i] += 2
			l.puts += 2
			l.putBytes += 2 * (keyLen + valLen)
		}
		if !timed {
			continue
		}
		t1 := now()
		switch kind {
		case kOpGet:
			h.get.add(t1 - t0)
			l.gets++
		case kOpMiss:
			h.miss.add(t1 - t0)
			l.gets++
		case kOpPut:
			h.put.add(t1 - t0)
		default:
			h.txn.add(t1 - t0)
		}
		l.ops[mode]++
		if mode == 1 {
			tr.record(span{kind: kind, start: t0, end: t1, tag: keyTag(key)})
		}
	}
}

// bulkLane is the depth-64 client: windows of 64 pipelined commands,
// 80% PUT and 20% GET over its own uniformly chosen keys. Replies come
// back in request order, and a GET observes every earlier PUT of its
// window, so bver is an exact model.
func bulkLane(cfg runCfg, c *client, l *lane, m *bulkModel, from, to int64) {
	r, bver := m.r, m.ver
	type expect struct {
		get bool
		i   int
		ver uint32
	}
	exp := make([]expect, serveDepth)
	var k [keyLen]byte
	var v, want [valLen]byte
	for {
		t0 := now()
		if t0 >= to {
			return
		}
		timed := t0 >= from
		mode := 0
		if timed {
			mode = l.mode(t0)
		}
		for j := range exp {
			i := r.Intn(len(bver))
			key := cfg.g.key(k[:], nsBulk, i)
			if r.Intn(100) < 80 {
				bver[i]++
				c.send("PUT", key, cfg.g.value(v[:], nsBulk, i, bver[i], valLen))
				exp[j] = expect{i: i}
				if timed {
					l.puts++
					l.putBytes += keyLen + valLen
				}
			} else {
				c.send("GET", key)
				exp[j] = expect{get: true, i: i, ver: bver[i]}
				if timed {
					l.gets++
				}
			}
		}
		if err := c.w.Flush(); err != nil {
			l.fail("serve-mixed bulk: %v", err)
			return
		}
		for _, e := range exp {
			l.attempted++
			rep, err := c.reply()
			switch {
			case err != nil:
				l.fail("serve-mixed bulk: %v", err)
				return
			case e.get && (rep.kind != '$' || rep.nil || !bytes.Equal(rep.data, cfg.g.value(want[:], nsBulk, e.i, e.ver, valLen))):
				l.fail("serve-mixed bulk get %d: %s", e.i, rep)
			case !e.get && rep.kind != '+':
				l.fail("serve-mixed bulk put %d: %s", e.i, rep)
			}
		}
		if timed {
			l.ops[mode] += serveDepth
		}
	}
}

// sweep reads every key of namespace ns back through the server,
// pipelined, and checks it against the model.
func sweep(cfg runCfg, c *client, l *lane, ns byte, ver []uint32) {
	var k [keyLen]byte
	var want [valLen]byte
	for base := 0; base < len(ver); base += sweepPipeline {
		n := min(sweepPipeline, len(ver)-base)
		for i := base; i < base+n; i++ {
			c.send("GET", cfg.g.key(k[:], ns, i))
		}
		if err := c.w.Flush(); err != nil {
			l.fail("serve-mixed sweep: %v", err)
			return
		}
		for i := base; i < base+n; i++ {
			l.attempted++
			rep, err := c.reply()
			if err != nil {
				l.fail("serve-mixed sweep: %v", err)
				return
			}
			if rep.kind != '$' || rep.nil || !bytes.Equal(rep.data, cfg.g.value(want[:], ns, i, ver[i], valLen)) {
				l.fail("serve-mixed sweep %c%d: %s", ns, i, rep)
			}
		}
	}
}

// client speaks the server's RESP-like protocol over one connection.
type client struct {
	nc  net.Conn
	r   *bufio.Reader
	w   *bufio.Writer
	buf []byte
}

func dial(addr string) (*client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &client{nc: nc, r: bufio.NewReaderSize(nc, 64<<10), w: bufio.NewWriterSize(nc, 64<<10)}, nil
}

func (c *client) close() { c.nc.Close() }

// send buffers one command in array-of-bulk-strings framing.
func (c *client) send(cmd string, args ...[]byte) {
	c.w.WriteByte('*')
	c.w.WriteString(strconv.Itoa(1 + len(args)))
	c.w.WriteString("\r\n$")
	c.w.WriteString(strconv.Itoa(len(cmd)))
	c.w.WriteString("\r\n")
	c.w.WriteString(cmd)
	c.w.WriteString("\r\n")
	for _, a := range args {
		c.w.WriteByte('$')
		c.w.WriteString(strconv.Itoa(len(a)))
		c.w.WriteString("\r\n")
		c.w.Write(a)
		c.w.WriteString("\r\n")
	}
}

type reply struct {
	kind byte   // '+', '-', ':' or '$'
	data []byte // status/error text, integer digits, or bulk value
	nil  bool   // $-1
}

func (r reply) String() string { return fmt.Sprintf("reply %c%q nil=%v", r.kind, r.data, r.nil) }

var errFraming = errors.New("bad reply framing")

// reply reads one reply; its data is valid until the next call.
func (c *client) reply() (reply, error) {
	line, err := c.r.ReadSlice('\n')
	if err != nil {
		return reply{}, err
	}
	if len(line) < 3 || line[len(line)-2] != '\r' {
		return reply{}, errFraming
	}
	rep := reply{kind: line[0], data: line[1 : len(line)-2]}
	if rep.kind != '$' {
		return rep, nil
	}
	n, err := strconv.Atoi(string(rep.data))
	if err != nil {
		return reply{}, errFraming
	}
	if n < 0 {
		rep.nil = true
		rep.data = nil
		return rep, nil
	}
	if cap(c.buf) < n+2 {
		c.buf = make([]byte, n+2)
	}
	c.buf = c.buf[:n+2]
	if _, err := io.ReadFull(c.r, c.buf); err != nil {
		return reply{}, err
	}
	rep.data = c.buf[:n]
	return rep, nil
}

// roundTrip sends one command and reads its reply, adding the round
// trip to all when timed.
func (c *client) roundTrip(timed bool, all *hist, cmd string, args ...[]byte) (reply, error) {
	st := now()
	c.send(cmd, args...)
	if err := c.w.Flush(); err != nil {
		return reply{}, err
	}
	rep, err := c.reply()
	if timed {
		all.add(now() - st)
	}
	return rep, err
}

// txn runs TXN BEGIN, PUT key v1, PUT key v2, TXN COMMIT, one round trip
// each, checking every reply.
func (c *client) txn(timed bool, all *hist, key, v1, v2 []byte) error {
	steps := []struct {
		cmd  string
		args [][]byte
		want string
	}{
		{"TXN", [][]byte{[]byte("BEGIN")}, "OK"},
		{"PUT", [][]byte{key, v1}, "QUEUED"},
		{"PUT", [][]byte{key, v2}, "QUEUED"},
		{"TXN", [][]byte{[]byte("COMMIT")}, "OK"},
	}
	for _, s := range steps {
		rep, err := c.roundTrip(timed, all, s.cmd, s.args...)
		if err != nil {
			return err
		}
		if rep.kind != '+' || string(rep.data) != s.want {
			return fmt.Errorf("%s: %s", s.cmd, rep)
		}
	}
	return nil
}
