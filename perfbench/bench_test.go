package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

// A small churn-disk: the same code path as the benchmark's, sized to
// run in a test.
var churnSmall = churnSpec{live: 3000, turnovers: 2, syncEvery: 500, bigEvery: 100}

func churnOnce(t *testing.T, seed int64) (*episode, int) {
	t.Helper()
	cfg := runCfg{workload: "churn-disk", seed: seed, workdir: t.TempDir(), g: newGen(seed)}
	l := &lane{}
	ep, err := churnEpisode(cfg, churnSmall, nil, l, nil)
	if err != nil {
		t.Fatal(err)
	}
	if l.failed != 0 {
		t.Fatalf("seed %d: %d failed operations", seed, l.failed)
	}
	probe, _, err := capacityProbe(cfg.g)
	if err != nil {
		t.Fatal(err)
	}
	return ep, probe
}

// layerCounts keeps the core, buffer and page-file counters.
func layerCounts(c map[string]int64) map[string]int64 {
	out := map[string]int64{}
	for k, v := range c {
		if strings.HasPrefix(k, "hash_") || strings.HasPrefix(k, "buffer_") || strings.HasPrefix(k, "pagefile_") {
			out[k] = v
		}
	}
	return out
}

func TestChurnDiskRepeatsForOneSeed(t *testing.T) {
	a, probeA := churnOnce(t, 7)
	b, probeB := churnOnce(t, 7)
	if ca, cb := layerCounts(a.counts), layerCounts(b.counts); !reflect.DeepEqual(ca, cb) {
		t.Errorf("counts differ between runs of one seed:\n%v\n%v", ca, cb)
	}
	if a.counts["hash_puts_total"] == 0 || a.counts["pagefile_writes_total"] == 0 {
		t.Errorf("counts look empty: %v", a.counts)
	}
	if a.spaceAmp != b.spaceAmp {
		t.Errorf("space_amp %v != %v", a.spaceAmp, b.spaceAmp)
	}
	if probeA != probeB {
		t.Errorf("capacity_keys %d != %d", probeA, probeB)
	}
	if a.final.Hash.Buckets != b.final.Hash.Buckets || a.final.Hash.OverflowPages != b.final.Hash.OverflowPages {
		t.Errorf("final geometry differs: %+v vs %+v", a.final.Hash, b.final.Hash)
	}
}

func TestSeedChangesKeyStream(t *testing.T) {
	g1, g2 := newGen(7), newGen(8)
	var k1, k2 [keyLen]byte
	same := 0
	for i := 0; i < 1000; i++ {
		if bytes.Equal(g1.key(k1[:], nsChurn, i), g2.key(k2[:], nsChurn, i)) {
			same++
		}
	}
	if same != 0 {
		t.Errorf("%d of 1000 keys identical across seeds", same)
	}
	seen := map[string]bool{}
	for i := 0; i < 100000; i++ {
		seen[string(g1.key(k1[:], nsChurn, i))] = true
	}
	if len(seen) != 100000 {
		t.Errorf("key stream repeats: %d distinct of 100000", len(seen))
	}
}

// BENCHMARK.json must declare exactly the metrics the program prints.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(got), len(want))
		}
		for i, w := range want {
			better := "lower"
			if w.higher {
				better = "higher"
			}
			if g := got[i]; g.Name != w.name || g.Unit != w.unit || g.Better != better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, g, w)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q has no implementation", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, program %d", len(spec.Workloads), len(workloads))
	}
}

func TestHistQuantileInsideBucket(t *testing.T) {
	for _, v := range []int64{0, 1, 127, 128, 129, 1000, 123456, 1 << 40} {
		lo, hi := histBounds(histIndex(v))
		if float64(v) < lo || float64(v) >= hi {
			t.Errorf("value %d outside its bucket [%v, %v)", v, lo, hi)
		}
	}
	var h hist
	for i := int64(1); i <= 1000; i++ {
		h.add(i * 1000)
	}
	if q := h.quantile(0.5); q < 490e3 || q > 510e3 {
		t.Errorf("median of 1..1000 µs = %v ns", q)
	}
}

// Self time is the span minus the union of its children, never
// negative, and children link to the containing span with their key.
func TestAnalyzeSelfTime(t *testing.T) {
	tr := newTracer(16)
	tr.record(span{kind: kOpGet, start: 0, end: 100, tag: 1})
	tr.record(span{kind: kDbGet, start: 10, end: 90, tag: 1})
	tr.record(span{kind: kHash, start: 20, end: 30, tag: 1})
	tr.record(span{kind: kPfRead, start: 25, end: 50})
	tr.record(span{kind: kPfRead, start: 60, end: 70})
	tr.record(span{kind: kDbGet, start: 200, end: 300, tag: 2}) // no request span
	a := tr.analyze()
	want := []int64{20, 40, 10, 25, 10, 100}
	for i, w := range want {
		if a.self[i] != w {
			t.Errorf("span %d (%s): self %d, want %d", i, kindNames[a.spans[i].kind], a.self[i], w)
		}
		if a.self[i] < 0 {
			t.Errorf("span %d: negative self time", i)
		}
	}
	if a.spans[1].parent != 0 || a.spans[2].parent != 1 || a.spans[3].parent != 1 || a.spans[5].parent != -1 {
		t.Errorf("parents %d %d %d %d", a.spans[1].parent, a.spans[2].parent, a.spans[3].parent, a.spans[5].parent)
	}
	if a.req[3] != 0 || a.req[5] != -1 {
		t.Errorf("request ids %d %d", a.req[3], a.req[5])
	}
}
