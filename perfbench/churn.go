package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"

	"unixhash/internal/core"
	"unixhash/internal/db"
	"unixhash/internal/metrics"
	"unixhash/internal/pagefile"
)

// churn-disk: an embedded, file-backed table far larger than its buffer
// pool, under delete-one/insert-one turnover. Writes run beside reads
// and checkpoints (Sync) run as background work, so the split policy,
// overflow allocation and freeing, eviction and page-file I/O do the
// work. One client and no timers: every count repeats exactly for a
// seed.
type churnSpec struct {
	live      int // live keys
	turnovers int // per episode: live*turnovers delete/insert steps
	syncEvery int // steps between checkpoints
	bigEvery  int // every bigEvery-th key has a big value
}

// The live set is sized so the page file stays far below common
// file-size limits: every 2047 overflow pages past the newest bucket
// generation move the next ones to a split point twice as far out, and
// at 100k live keys the file reaches 1.08 GB logical (21 MB allocated),
// which a 1 GiB RLIMIT_FSIZE turns into write errors. 50k live keys end
// near 36 MB logical.
var churnDefault = churnSpec{live: 50_000, turnovers: 2, syncEvery: 20_000, bigEvery: 100}

const churnSample = 8 // traced windows: one step in this many gets spans

func churnValLen(s churnSpec, i int) int {
	if i%s.bigEvery == 0 {
		return bigLen
	}
	return valLen
}

// episode is one fresh table: set-up, a fixed number of turnovers, and
// the final checks.
type episode struct {
	setupS    float64 // process CPU seconds
	setupWall float64 // seconds
	from, to  int64
	before    snap
	after     snap
	final     db.Stats
	fileBytes float64 // allocated bytes (st_blocks) at the end
	liveBytes float64
	spaceAmp  float64
	heapMB    float64 // live heap at the end, table still open
	cpuS      float64 // process CPU seconds over the timed phase
	// counts is the registry delta over the timed phase: the exact
	// core, buffer and page-file work this seed's inputs cause.
	counts map[string]int64
}

// churnEpisode runs one episode on lane l. win, when set, drives the
// traced windows.
func churnEpisode(cfg runCfg, s churnSpec, tr *tracer, l *lane, win *window) (*episode, error) {
	dir, err := os.MkdirTemp(cfg.workdir, "churn-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "table.db")
	ep := &episode{}

	st, cpuSetup := setupStart()
	fs, err := pagefile.OpenFile(path, core.DefaultBsize, pagefile.CostModel{})
	if err != nil {
		return nil, err
	}
	defer fs.Close()
	reg := metrics.New()
	opts := &core.Options{Store: newTimedStore(fs, tr), Metrics: reg}
	if tr != nil {
		opts.Hash = tr.hash
	}
	d, err := db.Open("", db.Hash, &db.Config{Hash: opts})
	if err != nil {
		return nil, err
	}
	defer d.Close()
	var k [keyLen]byte
	val := make([]byte, bigLen)
	for i := 0; i < s.live; i++ {
		if err := d.Put(cfg.g.key(k[:], nsChurn, i), cfg.g.value(val, nsChurn, i, 0, churnValLen(s, i))); err != nil {
			return nil, fmt.Errorf("churn-disk setup: put %d: %w", i, err)
		}
	}
	if err := d.Sync(); err != nil {
		return nil, fmt.Errorf("churn-disk setup: sync: %w", err)
	}
	ep.setupS = float64(cpuNS()-cpuSetup) / 1e9
	ep.setupWall = float64(now()-st) / 1e9

	r := cfg.g.rng(200)
	buf := make([]byte, 0, bigLen)
	want := make([]byte, bigLen)
	lo, hi := 0, s.live
	steps := s.live * s.turnovers
	ep.from = now()
	if win != nil && win.start == 0 {
		win.start = ep.from
	}
	ep.before = takeSnap(reg, tr)
	cpu0 := cpuNS()
	for step := 0; step < steps; step++ {
		t0 := now()
		mode := l.mode(t0)
		sampled := l.sample(mode, churnSample)
		h := &l.h[mode]

		// GET a live key.
		i := lo + r.Intn(hi-lo)
		key := cfg.g.key(k[:], nsChurn, i)
		ns, v, err := timedGet(tr, sampled, d, key, buf)
		buf = v
		if err != nil || !bytes.Equal(v, cfg.g.value(want, nsChurn, i, 0, churnValLen(s, i))) {
			l.fail("churn-disk get %d: %v", i, err)
		}
		h.get.add(ns)
		h.all.add(ns)
		opSpan(tr, sampled, kOpGet, t0, key)

		// GET an absent key.
		t1 := now()
		key = cfg.g.key(k[:], nsMiss, r.Intn(1<<30))
		ns, buf, err = timedGet(tr, sampled, d, key, buf)
		if !errors.Is(err, db.ErrNotFound) {
			l.fail("churn-disk miss: got %v", err)
		}
		h.miss.add(ns)
		h.all.add(ns)
		opSpan(tr, sampled, kOpMiss, t1, key)

		// DELETE the oldest key.
		t2 := now()
		key = cfg.g.key(k[:], nsChurn, lo)
		ns, err = timedDelete(tr, sampled, d, key)
		if err != nil {
			l.fail("churn-disk delete %d: %v", lo, err)
		}
		lo++
		h.del.add(ns)
		h.all.add(ns)
		opSpan(tr, sampled, kOpDel, t2, key)

		// PUT a new key.
		t3 := now()
		key = cfg.g.key(k[:], nsChurn, hi)
		nv := cfg.g.value(val, nsChurn, hi, 0, churnValLen(s, hi))
		ns, err = timedPut(tr, sampled, d, key, nv)
		if err != nil {
			l.fail("churn-disk put %d: %v", hi, err)
		}
		hi++
		h.put.add(ns)
		h.all.add(ns)
		opSpan(tr, sampled, kOpPut, t3, key)

		l.ops[mode] += 4
		l.attempted += 4
		l.gets += 2
		l.puts++
		l.putBytes += int64(keyLen + len(nv))

		if (step+1)%s.syncEvery == 0 {
			t4 := now()
			inTrace := mode == 1
			slot, tag := spanBegin(tr, inTrace, nil)
			err := d.Sync()
			spanEnd(tr, inTrace, slot, tag, kDbSync, t4, now())
			opSpan(tr, inTrace, kOpSync, t4, nil)
			if err != nil {
				l.fail("churn-disk sync: %v", err)
			}
		}
	}
	ep.to = now()
	ep.after = takeSnap(reg, tr)
	ep.cpuS = float64(cpuNS()-cpu0) / 1e9
	if tr != nil {
		tr.on.Store(false)
	}
	ep.counts = map[string]int64{}
	for name, v := range ep.after.c {
		ep.counts[name] = v - ep.before.c[name]
	}

	// Final checks: a checkpoint, the structural verifier, the count,
	// and a scan that must end cleanly and return exactly the live
	// window: one check per live key, plus one per pair the scan returns
	// that is not live.
	if err := d.Sync(); err != nil {
		l.fail("churn-disk final sync: %v", err)
	}
	l.attempted += 4 + int64(s.live)
	if err := db.Verify(d); err != nil {
		l.fail("churn-disk verify: %v", err)
	}
	if n := d.Len(); n != s.live {
		l.fail("churn-disk len %d, want %d", n, s.live)
	}
	liveIdx := make(map[[keyLen]byte]int, s.live)
	for i := lo; i < hi; i++ {
		var kk [keyLen]byte
		cfg.g.key(kk[:], nsChurn, i)
		liveIdx[kk] = i
		ep.liveBytes += float64(keyLen + churnValLen(s, i))
	}
	c := d.Seq()
	seen := 0
	for c.Next() {
		var kk [keyLen]byte
		copy(kk[:], c.Key())
		i, ok := liveIdx[kk]
		if !ok || len(c.Key()) != keyLen {
			l.attempted++
			l.fail("churn-disk scan: unexpected pair %q", c.Key())
			continue
		}
		if !bytes.Equal(c.Value(), cfg.g.value(want, nsChurn, i, 0, churnValLen(s, i))) {
			l.fail("churn-disk scan: key %d has a wrong value", i)
		}
		delete(liveIdx, kk)
		seen++
	}
	if err := c.Err(); err != nil {
		l.fail("churn-disk scan: %v", err)
	}
	for _, i := range liveIdx {
		l.fail("churn-disk scan: live key %d missing (saw %d)", i, seen)
	}

	if ep.final, err = d.Stats(); err != nil {
		return nil, err
	}
	if ep.fileBytes, err = allocatedBytes(path); err != nil {
		return nil, err
	}
	// The workload's premise: the table is larger than its pool.
	l.attempted++
	if tb := tablePages(ep.final) * int64(ep.final.PageSize); tb <= core.DefaultCacheSize {
		l.fail("churn-disk premise: table of %d bytes fits the %d-byte pool", tb, core.DefaultCacheSize)
	}
	ep.spaceAmp = ep.fileBytes / ep.liveBytes
	liveIdx = nil
	ep.heapMB = liveHeapMB()
	return ep, nil
}

func runChurnDisk(cfg runCfg) (*outcome, error) {
	return churnRun(cfg, churnDefault)
}

// churnMinEpisodes gives set-up time a median of at least three.
const churnMinEpisodes = 3

// churnRun repeats identical episodes until their timed phases add up
// to the run's seconds; set-up time is the median over episodes.
func churnRun(cfg runCfg, s churnSpec) (*outcome, error) {
	var tr *tracer
	var win *window
	if cfg.traced {
		tr = newTracer(spanBudget)
		win = &window{t: tr}
	}
	l := &lane{tr: tr, win: win}
	var eps []*episode
	var ph phases
	var measured float64
	for len(eps) < churnMinEpisodes || measured < cfg.seconds {
		ep, err := churnEpisode(cfg, s, tr, l, win)
		if err != nil {
			return nil, err
		}
		eps = append(eps, ep)
		measured += float64(ep.to-ep.from) / 1e9
		ph.add(ep.before, ep.after, win, ep.from, ep.to)
	}
	first, last := eps[0], eps[len(eps)-1]
	same := true
	for _, ep := range eps[1:] {
		same = same && reflect.DeepEqual(ep.counts, first.counts) && ep.spaceAmp == first.spaceAmp
	}
	var setupS, setupWall []float64
	var cpuS float64
	for _, ep := range eps {
		setupS = append(setupS, ep.setupS)
		setupWall = append(setupWall, ep.setupWall)
		cpuS += ep.cpuS
	}
	o := &outcome{attempted: l.attempted, failed: l.failed, env: map[string]any{
		"live_keys": s.live, "key_bytes": keyLen, "value_bytes": valLen, "big_value_bytes": bigLen,
		"big_every": s.bigEvery, "turnovers_per_episode": s.turnovers, "sync_every_steps": s.syncEvery,
		"pool_bytes":              core.DefaultCacheSize,
		"episodes":                len(eps),
		"episode_counts_repeat":   same,
		"setup_s_each":            setupS,
		"setup_wall_s_each":       setupWall,
		"table_pages_end":         tablePages(last.final),
		"table_bytes_end":         tablePages(last.final) * int64(last.final.PageSize),
		"file_allocated_bytes":    last.fileBytes,
		"file_logical_bytes":      last.final.Pages * int64(last.final.PageSize),
		"live_user_bytes":         last.liveBytes,
		"larger_than_pool":        tablePages(last.final)*int64(last.final.PageSize) > core.DefaultCacheSize,
		"timed_ops":               l.ops[0] + l.ops[1],
		"timed_seconds":           measured,
		"splits_uncontrolled_all": first.counts["hash_splits_uncontrolled_total"],
		"splits_controlled_all":   first.counts["hash_splits_controlled_total"],
	}}
	if cfg.traced {
		o.an = tr.analyze()
		o.metrics = layerMetrics(layerIn{ph: &ph, l: l, tr: tr, an: o.an, final: last.final, fileBytes: last.fileBytes})
		return o, nil
	}
	probe, probeErr, err := capacityProbe(cfg.g)
	if err != nil {
		return nil, err
	}
	o.env["capacity_probe_stop"] = probeErr
	h := &l.h[0]
	o.metrics = map[string]float64{
		"setup_s":       median(setupS),
		"ops_per_cpu_s": float64(l.ops[0]) / cpuS,
		"get_p50_us":    us(h.get.quantile(0.5)),
		"miss_p50_us":   us(h.miss.quantile(0.5)),
		"put_p50_us":    us(h.put.quantile(0.5)),
		"heap_mb":       last.heapMB,
		"space_amp":     last.spaceAmp,
		"capacity_keys": float64(probe),
	}
	return o, nil
}
