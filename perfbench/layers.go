package main

import (
	"runtime"

	"unixhash/internal/db"
	"unixhash/internal/metrics"
)

// snap is the registry and runtime state at one boundary of a timed
// phase; per-layer counts are deltas between two snaps.
type snap struct {
	c   map[string]int64
	mem runtime.MemStats
}

// takeSnap also reads the wrappers' counters of a traced run, under
// bench_* names.
func takeSnap(reg *metrics.Registry, tr *tracer) snap {
	var s snap
	s.c = reg.Snapshot().Counters
	if tr != nil {
		s.c["bench_hash_calls"] = tr.hashCalls.Load()
		s.c["bench_db_batches"] = tr.dbBatches.Load()
		s.c["bench_db_pairs"] = tr.dbPairs.Load()
		s.c["bench_db_multis"] = tr.dbMultis.Load()
	}
	runtime.ReadMemStats(&s.mem)
	return s
}

// liveHeapMB is the live Go heap after a full collection, in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// phases accumulates registry and runtime deltas, and the split of
// wall time into traced and untraced windows, over one or more timed
// phases.
type phases struct {
	delta                map[string]int64
	end                  map[string]int64 // counters after the last phase
	allocBytes, pauseNS  uint64
	tracedNS, untracedNS float64
}

func (p *phases) add(before, after snap, win *window, from, to int64) {
	if p.delta == nil {
		p.delta = map[string]int64{}
	}
	for k, v := range after.c {
		p.delta[k] += v - before.c[k]
	}
	p.end = after.c
	p.allocBytes += after.mem.TotalAlloc - before.mem.TotalAlloc
	p.pauseNS += after.mem.PauseTotalNs - before.mem.PauseTotalNs
	if win != nil {
		tr, un := win.tracedShare(from, to)
		p.tracedNS += tr
		p.untracedNS += un
	}
}

// layerIn gathers what the per-layer metrics are computed from.
type layerIn struct {
	ph        *phases
	l         *lane // all lanes merged
	tr        *tracer
	an        *analysis
	final     db.Stats // after the timed phase
	fileBytes float64  // bytes the page store holds at the end
	served    bool
}

// layerMetrics computes every per-layer metric; a layer that does no
// such work in this workload reports 0.
func layerMetrics(in layerIn) map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = 0
	}
	d := func(name string) float64 { return float64(in.ph.delta[name]) }
	l, tr, an := in.l, in.tr, in.an
	ops := float64(l.ops[0] + l.ops[1])
	tracedNS, untracedNS := in.ph.tracedNS, in.ph.untracedNS

	m["trace.overhead"] = ratio(ratio(float64(l.ops[1]), tracedNS), ratio(float64(l.ops[0]), untracedNS))
	u := &l.h[0]
	m["client.ops_per_s"] = ratio(float64(l.ops[0]), untracedNS/1e9)
	m["client.p99_us"] = us(u.all.quantile(0.99))
	m["client.del_p50_us"] = us(u.del.quantile(0.5))
	m["client.txn_p50_us"] = us(u.txn.quantile(0.5))

	if in.served {
		m["server.self_us_p50"] = us(an.selfP50(kOpGet, kOpMiss, kOpPut))
		m["server.puts_per_batch"] = ratio(d("server_puts_coalesced_total"), d("bench_db_multis"))
		m["db.getbuf_us_p50"] = us(tr.dbGet.load().quantile(0.5))
		m["db.putbatch_us_p50"] = us(tr.dbBatch.load().quantile(0.5))
		m["db.putbatch_pairs_mean"] = ratio(d("bench_db_pairs"), d("bench_db_batches"))
		m["db.commit_us_p50"] = us(tr.dbCommit.load().quantile(0.5))
		m["db.busy_frac"] = ratio(float64(tr.dbBusy.Load()), tracedNS)
	} else {
		m["db.getbuf_us_p50"] = us(an.durP50(kDbGet))
	}

	m["core.get_self_ns_p50"] = an.selfP50(kDbGet)
	m["core.put_self_ns_p50"] = an.selfP50(kDbPut)
	m["core.chain_pages_per_walk"] = ratio(d("hash_chain_pages_total"), d("hash_chain_walks_total"))
	hits, skips, fps := d("hash_filter_hits_total"), d("hash_filter_skips_total"), d("hash_filter_false_positives_total")
	m["core.filter_skip_rate"] = ratio(skips, hits+skips+fps)
	m["core.filter_fp_rate"] = ratio(fps, fps+skips)
	kputs := d("hash_puts_total") / 1000
	m["core.splits_uncontrolled_per_kput"] = ratio(d("hash_splits_uncontrolled_total"), kputs)
	m["core.splits_controlled_per_kput"] = ratio(d("hash_splits_controlled_total"), kputs)
	m["core.ovfl_allocs_per_kput"] = ratio(d("hash_ovfl_allocs_total"), kputs)
	m["core.ovfl_frees_per_kput"] = ratio(d("hash_ovfl_frees_total"), kputs)
	if h := in.final.Hash; h != nil {
		m["core.buckets_end"] = float64(h.Buckets)
		m["core.keys_per_bucket_end"] = ratio(float64(in.final.Keys), float64(h.Buckets))
		m["core.ovfl_pages_end"] = float64(h.OverflowPages)
	}

	bh, bm := d("buffer_hits_total"), d("buffer_misses_total")
	m["buffer.hit_ratio"] = ratio(bh, bh+bm)
	m["buffer.misses_per_op"] = ratio(bm, ops)
	m["buffer.evictions_per_op"] = ratio(d("buffer_evictions_total"), ops)
	m["buffer.prefetched_per_prefetch"] = ratio(d("buffer_prefetched_total"), d("hash_prefetches_total"))

	m["pagefile.reads_per_get"] = ratio(d("pagefile_reads_total"), float64(l.gets))
	m["pagefile.writes_per_put"] = ratio(d("pagefile_writes_total"), float64(l.puts))
	m["pagefile.read_us_p50"] = us(tr.pfRead.load().quantile(0.5))
	m["pagefile.write_us_p50"] = us(tr.pfWrite.load().quantile(0.5))
	m["pagefile.sync_ms_p50"] = tr.pfSync.load().quantile(0.5) / 1e6
	m["pagefile.busy_frac"] = ratio(float64(tr.pfBusy.Load()), tracedNS)
	m["pagefile.write_amp"] = ratio(d("pagefile_written_bytes_total"), float64(l.putBytes))
	m["pagefile.file_mb_end"] = in.fileBytes / 1e6

	commits := d("hash_txn_commits_total")
	m["wal.bytes_per_commit"] = ratio(d("wal_appended_bytes_total"), commits)
	m["wal.fsyncs_per_commit"] = ratio(d("wal_fsyncs_total"), commits)
	m["wal.joins_per_commit"] = ratio(d("wal_fsync_joins_total"), commits)
	m["wal.resets"] = d("wal_resets_total")
	m["wal.appended_mb_end"] = float64(in.ph.end["wal_appended_bytes_total"]) / 1e6

	m["hashfunc.calls_per_op"] = ratio(d("bench_hash_calls"), float64(l.ops[1]))
	m["hashfunc.ns_per_call"] = an.durP50(kHash)

	m["runtime.alloc_bytes_per_op"] = ratio(float64(in.ph.allocBytes), ops)
	m["runtime.gc_pause_ms"] = float64(in.ph.pauseNS) / 1e6
	return m
}
