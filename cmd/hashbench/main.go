// Command hashbench regenerates every table and figure in the paper's
// evaluation section ("A New Hashing Package for UNIX", Seltzer & Yigit,
// USENIX Winter 1991):
//
//	hashbench fig5            Figures 5a-c: page size x fill factor sweep
//	hashbench fig6            Figure 6: known vs dynamically grown table
//	hashbench fig7            Figure 7: buffer pool size sweep
//	hashbench fig8a           Figure 8a: dictionary DB vs ndbm and hsearch
//	hashbench fig8b           Figure 8b: password DB vs ndbm and hsearch
//	hashbench methods         hash vs btree under the same workload
//	hashbench ablate          ablations: split policy, hash functions
//	hashbench concurrency     read + write scaling at 1-8 goroutines
//	                          (read-only, mixed, write-heavy, hot-key);
//	                          writes BENCH_concurrency.json
//	hashbench metrics         instrumented workload; writes
//	                          BENCH_metrics.json
//	hashbench bulkload        batched write pipeline vs looped Put; writes
//	                          BENCH_bulkload.json
//	hashbench txn             durable single Put via WAL commit vs full
//	                          sync, with commit latency percentiles;
//	                          writes BENCH_txn.json
//	hashbench misses          negative-lookup latency vs overflow-chain
//	                          depth with the per-bucket tag filter on
//	                          vs off, plus a cold scan through the
//	                          vectored chain read-ahead; writes
//	                          BENCH_misses.json
//	hashbench serve           live traced workload with the telemetry
//	                          endpoint up (watch with dbcli hashmon)
//	hashbench serveload       the network front end over real TCP:
//	                          pipelined write throughput at 1 vs 8
//	                          shards plus a mixed workload with window
//	                          latency percentiles; writes
//	                          BENCH_serve.json
//	hashbench oplog           op-ledger overhead contract: the mixed
//	                          phase ledger-off vs ledger-on, with the
//	                          recorder's phase breakdown and exemplar
//	                          phase coverage; writes BENCH_obs.json
//	hashbench all             everything above except concurrency,
//	                          metrics, bulkload, txn, serve,
//	                          serveload and oplog
//
// Flags:
//
//	-n N      dictionary size (default: the paper's 24474; smaller is
//	          faster and preserves the shapes). For bulkload, the key
//	          ceiling: points above N keys are skipped (0 = all, up
//	          to 1M).
//	-quick    shorthand for -n 4000
//	-check X  bulkload: exit nonzero if the PutBatch speedup at the
//	          largest size falls below X, or if presized PutBatch
//	          does not beat unsized. concurrency: exit nonzero if the
//	          8-goroutine write-heavy speedup falls below X (skipped
//	          on GOMAXPROCS=1 hosts). txn: exit nonzero if the WAL
//	          durable-put speedup over full sync falls below X.
//	          serveload: exit nonzero if the 8-shard aggregate write
//	          throughput speedup over 1 shard falls below X. oplog:
//	          exit nonzero if ledger-on throughput falls below X of
//	          ledger-off, or the exemplars' phase sums stray more
//	          than 10% from end-to-end latency. misses:
//	          exit nonzero if a filtered depth-4 miss costs more than
//	          X times a depth-0 miss, or the scan phase prefetched no
//	          pages. The CI regression gates.
//	-conns M  serveload: client connection count (default 8)
//	-pipeline D
//	          serveload: commands pipelined per window (default 64)
//	-mix P    serveload: write percentage of the mixed phase
//	          (default 30)
//	-telemetry ADDR
//	          serve only: telemetry listen address (":0" picks a free
//	          port; the first output line reports the choice)
//	-dur D    serve only: how long to run the workload (0 = until
//	          killed)
package main

import (
	"flag"
	"fmt"
	"os"

	"unixhash/internal/bench"
)

func main() {
	n := flag.Int("n", 0, "dictionary size (0 = the paper's 24474 keys)")
	quick := flag.Bool("quick", false, "use a 4000-key dictionary")
	check := flag.Float64("check", 0, "regression gate (0 = none): bulkload, concurrency, txn, serveload and oplog fail below this ratio; misses fails above it (a ceiling)")
	telemetry := flag.String("telemetry", "127.0.0.1:0", "serve: telemetry listen address")
	dur := flag.Duration("dur", 0, "serve: workload duration (0 = until killed)")
	conns := flag.Int("conns", 0, "serveload: client connections (0 = 8)")
	pipeline := flag.Int("pipeline", 0, "serveload: pipeline depth (0 = 64)")
	mix := flag.Int("mix", 0, "serveload: mixed-phase write percentage (0 = 30)")
	flag.Usage = usage
	flag.Parse()
	if *quick && *n == 0 {
		*n = 4000
	}
	if flag.NArg() != 1 {
		usage()
		os.Exit(2)
	}
	cmd := flag.Arg(0)
	run := func(name string) error {
		switch name {
		case "fig5":
			res, err := bench.Fig5(*n, 1<<20, nil, nil)
			if err != nil {
				return err
			}
			fmt.Print(res)
		case "fig6":
			res, err := bench.Fig6(*n, nil)
			if err != nil {
				return err
			}
			fmt.Print(res)
		case "fig7":
			res, err := bench.Fig7(*n, nil)
			if err != nil {
				return err
			}
			fmt.Print(res)
		case "fig8a":
			res, err := bench.Fig8Dict(*n)
			if err != nil {
				return err
			}
			fmt.Print(res)
		case "fig8b":
			res, err := bench.Fig8Passwd(0)
			if err != nil {
				return err
			}
			fmt.Print(res)
		case "methods":
			res, err := bench.Methods(*n)
			if err != nil {
				return err
			}
			fmt.Print(res)
		case "ablate":
			sp, err := bench.AblateSplitPolicy(*n)
			if err != nil {
				return err
			}
			fmt.Print(sp)
			fmt.Println()
			hf, err := bench.AblateHashFuncs(*n)
			if err != nil {
				return err
			}
			count := *n
			if count <= 0 {
				count = 24474
			}
			fmt.Print(bench.FormatHashFuncs(hf, count))
		case "concurrency":
			res, err := bench.Concurrency(*n, 0)
			if err != nil {
				return err
			}
			fmt.Print(res)
			data, err := res.JSON()
			if err != nil {
				return err
			}
			if err := os.WriteFile("BENCH_concurrency.json", data, 0o644); err != nil {
				return err
			}
			fmt.Println("\nwrote BENCH_concurrency.json")
			if *check > 0 {
				if err := res.Gate(*check); err != nil {
					return err
				}
			}
		case "metrics":
			res, err := bench.MetricsRun(*n)
			if err != nil {
				return err
			}
			fmt.Print(res)
			data, err := res.JSON()
			if err != nil {
				return err
			}
			if err := os.WriteFile("BENCH_metrics.json", data, 0o644); err != nil {
				return err
			}
			fmt.Println("\nwrote BENCH_metrics.json")
		case "bulkload":
			res, err := bench.Bulkload(*n)
			if err != nil {
				return err
			}
			fmt.Print(res)
			data, err := res.JSON()
			if err != nil {
				return err
			}
			if err := os.WriteFile("BENCH_bulkload.json", data, 0o644); err != nil {
				return err
			}
			fmt.Println("\nwrote BENCH_bulkload.json")
			if *check > 0 {
				if err := res.Gate(*check); err != nil {
					return err
				}
				fmt.Printf("gate passed: batch speedup %.2fx >= %.2fx, presized beats unsized\n",
					res.SpeedupAtMax, *check)
			}
		case "txn":
			res, err := bench.Txn(*n)
			if err != nil {
				return err
			}
			fmt.Print(res)
			data, err := res.JSON()
			if err != nil {
				return err
			}
			if err := os.WriteFile("BENCH_txn.json", data, 0o644); err != nil {
				return err
			}
			fmt.Println("\nwrote BENCH_txn.json")
			if *check > 0 {
				if err := res.Gate(*check); err != nil {
					return err
				}
				fmt.Printf("gate passed: WAL durable-put speedup %.2fx >= %.2fx\n",
					res.WalSpeedup, *check)
			}
		case "misses":
			res, err := bench.Misses(*n)
			if err != nil {
				return err
			}
			fmt.Print(res)
			data, err := res.JSON()
			if err != nil {
				return err
			}
			if err := os.WriteFile("BENCH_misses.json", data, 0o644); err != nil {
				return err
			}
			fmt.Println("\nwrote BENCH_misses.json")
			if *check > 0 {
				if err := res.Gate(*check); err != nil {
					return err
				}
				fmt.Printf("gate passed: filtered depth-4/depth-0 miss ratio %.2fx <= %.2fx, %d pages prefetched\n",
					res.Depth4Over0, *check, res.ScanPrefetchedPages)
			}
		case "serve":
			return bench.Serve(*n, *telemetry, *dur, os.Stdout)
		case "oplog":
			res, err := bench.Oplog(*conns, *pipeline, *mix)
			if err != nil {
				return err
			}
			fmt.Print(res)
			data, err := res.JSON()
			if err != nil {
				return err
			}
			if err := os.WriteFile("BENCH_obs.json", data, 0o644); err != nil {
				return err
			}
			fmt.Println("\nwrote BENCH_obs.json")
			if *check > 0 {
				if err := res.Gate(*check); err != nil {
					return err
				}
				fmt.Printf("gate passed: ledger-on throughput %.2fx >= %.2fx, median phase coverage %.2f\n",
					res.ThroughputRatio, *check, res.Coverage.Median)
			}
		case "serveload":
			res, err := bench.Serveload(*conns, *pipeline, *mix)
			if err != nil {
				return err
			}
			fmt.Print(res)
			data, err := res.JSON()
			if err != nil {
				return err
			}
			if err := os.WriteFile("BENCH_serve.json", data, 0o644); err != nil {
				return err
			}
			fmt.Println("\nwrote BENCH_serve.json")
			if *check > 0 {
				if err := res.Gate(*check); err != nil {
					return err
				}
				fmt.Printf("gate passed: 8-shard write speedup %.2fx >= %.2fx\n",
					res.WriteSpeedup, *check)
			}
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		return nil
	}

	var names []string
	if cmd == "all" {
		names = []string{"fig5", "fig6", "fig7", "fig8a", "fig8b", "methods", "ablate"}
	} else {
		names = []string{cmd}
	}
	for i, name := range names {
		if i > 0 {
			fmt.Println()
			fmt.Println("================================================================")
			fmt.Println()
		}
		if err := run(name); err != nil {
			fmt.Fprintf(os.Stderr, "hashbench %s: %v\n", name, err)
			os.Exit(1)
		}
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: hashbench [-n N | -quick] {fig5|fig6|fig7|fig8a|fig8b|methods|ablate|concurrency|metrics|bulkload|txn|misses|serve|serveload|oplog|all}

Regenerates the evaluation figures of "A New Hashing Package for UNIX"
(Seltzer & Yigit, USENIX Winter 1991). See EXPERIMENTS.md for the
mapping between output and the paper's figures.
`)
	flag.PrintDefaults()
}
