// Command perfbench is the repository's benchmark: three workloads that
// drive the shipped hash package only through its public entry points
// (db.Open for embedded users; server.Serve over db.OpenSharded for
// network clients), check every answer against a model, and print one
// JSON result line. An untraced run (--trace 0) reports the end-to-end
// metrics; a traced run (--trace 1) reports the per-layer metrics, a
// per-layer self-time table and a span dump. See README.md for why each
// workload exists and what each metric should move.
//
//	go run . --workload hot-read --seed 1 --seconds 10 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	name, unit string
	higher     bool
}

// endToEnd lists the untraced metrics; every workload reports each one.
var endToEnd = []metricDef{
	{"setup_s", "s", false},
	{"ops_per_cpu_s", "1/s", true},
	{"get_p50_us", "us", false},
	{"miss_p50_us", "us", false},
	{"put_p50_us", "us", false},
	{"heap_mb", "MB", false},
	{"space_amp", "ratio", false},
	{"capacity_keys", "count", true},
}

// perLayer lists the traced metrics; every workload reports each one,
// with 0 where the workload gives that layer no such work (README.md
// says which apply where).
var perLayer = []metricDef{
	{"client.ops_per_s", "1/s", true},
	{"client.p99_us", "us", false},
	{"client.del_p50_us", "us", false},
	{"client.txn_p50_us", "us", false},
	{"server.self_us_p50", "us", false},
	{"server.puts_per_batch", "count", true},
	{"db.getbuf_us_p50", "us", false},
	{"db.putbatch_us_p50", "us", false},
	{"db.putbatch_pairs_mean", "count", true},
	{"db.commit_us_p50", "us", false},
	{"db.busy_frac", "ratio", false},
	{"core.get_self_ns_p50", "ns", false},
	{"core.put_self_ns_p50", "ns", false},
	{"core.chain_pages_per_walk", "ratio", false},
	{"core.filter_skip_rate", "ratio", true},
	{"core.filter_fp_rate", "ratio", false},
	{"core.splits_uncontrolled_per_kput", "count", false},
	{"core.splits_controlled_per_kput", "count", false},
	{"core.ovfl_allocs_per_kput", "count", false},
	{"core.ovfl_frees_per_kput", "count", false},
	{"core.buckets_end", "count", false},
	{"core.keys_per_bucket_end", "ratio", true},
	{"core.ovfl_pages_end", "count", false},
	{"buffer.hit_ratio", "ratio", true},
	{"buffer.misses_per_op", "ratio", false},
	{"buffer.evictions_per_op", "ratio", false},
	{"buffer.prefetched_per_prefetch", "ratio", true},
	{"pagefile.reads_per_get", "ratio", false},
	{"pagefile.writes_per_put", "ratio", false},
	{"pagefile.read_us_p50", "us", false},
	{"pagefile.write_us_p50", "us", false},
	{"pagefile.sync_ms_p50", "ms", false},
	{"pagefile.busy_frac", "ratio", false},
	{"pagefile.write_amp", "ratio", false},
	{"pagefile.file_mb_end", "MB", false},
	{"wal.bytes_per_commit", "B", false},
	{"wal.fsyncs_per_commit", "ratio", false},
	{"wal.joins_per_commit", "ratio", true},
	{"wal.resets", "count", true},
	{"wal.appended_mb_end", "MB", false},
	{"hashfunc.calls_per_op", "ratio", false},
	{"hashfunc.ns_per_call", "ns", false},
	{"runtime.alloc_bytes_per_op", "B", false},
	{"runtime.gc_pause_ms", "ms", false},
	{"trace.overhead", "ratio", true},
}

// runCfg is one invocation's settings.
type runCfg struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	workdir  string
	g        gen
}

// outcome is what a workload hands back for printing.
type outcome struct {
	attempted, failed int64
	metrics           map[string]float64
	env               map[string]any
	an                *analysis // traced runs only
}

var workloads = map[string]func(runCfg) (*outcome, error){
	"hot-read":    runHotRead,
	"churn-disk":  runChurnDisk,
	"serve-mixed": runServeMixed,
}

func main() {
	var cfg runCfg
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "hot-read, churn-disk or serve-mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1: traced run (per-layer metrics)")
	flag.StringVar(&cfg.workdir, "workdir", filepath.Join(".bench_build", "perfbench-work"), "scratch directory for table files and trace output")
	flag.Parse()
	run, ok := workloads[cfg.workload]
	if !ok || (trace != 0 && trace != 1) || cfg.seconds <= 0 || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload {hot-read|churn-disk|serve-mixed} --seed N --seconds S --trace {0|1}")
		os.Exit(2)
	}
	cfg.traced = trace == 1
	cfg.g = newGen(cfg.seed)
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fatal(err)
	}

	o, err := run(cfg)
	if err != nil {
		fatal(err)
	}

	env := environment(cfg)
	for k, v := range o.env {
		env[k] = v
	}
	envLine, err := json.Marshal(map[string]any{"env": env})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(envLine))

	defs := endToEnd
	if cfg.traced {
		defs = perLayer
		if err := writeTrace(cfg, o); err != nil {
			fatal(err)
		}
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := o.metrics[d.name]
		if !ok {
			fatal(fmt.Errorf("workload %s did not report %s", cfg.workload, d.name))
		}
		ms[d.name] = metric{Value: v, Unit: d.unit}
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{o.failed == 0 && o.attempted > 0, o.attempted, o.failed, ms})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

// writeTrace prints the self-time table and writes it with the span
// dump under the work directory.
func writeTrace(cfg runCfg, o *outcome) error {
	base := filepath.Join(cfg.workdir, fmt.Sprintf("trace-%s", cfg.workload))
	served := cfg.workload == "serve-mixed"
	var sb strings.Builder
	fmt.Fprintf(&sb, "per-layer self time, %s seed %d (sampled spans)\n", cfg.workload, cfg.seed)
	o.an.selfTable(&sb, served)
	fmt.Fprintf(&sb, "trace.overhead %.4f\n", o.metrics["trace.overhead"])
	fmt.Print(sb.String())
	if err := os.WriteFile(base+"-self.txt", []byte(sb.String()), 0o644); err != nil {
		return err
	}
	return o.an.dump(base + "-spans.csv.gz")
}

// environment records where and on what a result was measured.
func environment(cfg runCfg) map[string]any {
	var u syscall.Utsname
	kernel := "unknown"
	if syscall.Uname(&u) == nil {
		kernel = utsString(u.Release[:])
	}
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"workload":      cfg.workload,
		"seed":          cfg.seed,
		"seconds":       cfg.seconds,
		"traced":        cfg.traced,
		"commit":        commit,
		"source_sha256": sourceDigest(),
		"go_version":    runtime.Version(),
		"num_cpu":       runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"kernel":        kernel,
	}
}

func utsString(b []int8) string {
	s := make([]byte, 0, len(b))
	for _, c := range b {
		if c == 0 {
			break
		}
		s = append(s, byte(c))
	}
	return string(s)
}

// sourceDigest hashes the Go sources and module files of the checkout
// the benchmark runs in (the working directory), so a result names the
// code it measured even where no git metadata exists.
func sourceDigest() string {
	var files []string
	filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00", p)
		io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
