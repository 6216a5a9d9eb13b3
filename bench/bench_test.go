package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input")
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("percentile of nothing should be 0")
	}
}

func TestHighestPercentileWithTenBeyond(t *testing.T) {
	for _, c := range []struct{ n, want int }{{19, 0}, {20, 52}, {76, 87}, {100, 90}, {101, 90}, {264, 96}, {1000, 99}, {100000, 99}} {
		got := highestPercentile(c.n, 10)
		if got != c.want {
			t.Errorf("highestPercentile(%d, 10) = %d, want %d", c.n, got, c.want)
		}
		if got > 0 && samplesBeyond(c.n, float64(got)/100) < 10 {
			t.Errorf("n=%d: p%d has only %d samples beyond it", c.n, got, samplesBeyond(c.n, float64(got)/100))
		}
	}
	if samplesBeyond(100, 0.90) != 10 || samplesBeyond(99, 0.90) != 10 || samplesBeyond(90, 0.90) != 9 {
		t.Error("samplesBeyond disagrees with the interpolated rank")
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartileSpread(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} // quartiles 2.75, 5.5, 8.25
	if got := quartileSpread(ten); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("spread of 1..10 = %v, want 1", got)
	}
	three := []float64{10, 12, 11} // quartiles 10, 11, 12
	if got := quartileSpread(three); math.Abs(got-2.0/11) > 1e-12 {
		t.Errorf("spread of three = %v, want %v", got, 2.0/11)
	}
	if quartileSpread([]float64{7}) != 0 {
		t.Error("one sample has no spread")
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "window", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "ingest", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "close", Start: 40, End: 90},
		{ID: 4, Parent: 3, Name: "dump", Start: 50, End: 60},
		{ID: 5, Parent: 0, Name: "window", Start: 100, End: 150},
	}
	want := []int64{30, 20, 40, 10, 50}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of span %d = %d, want %d", spans[i].ID, got, want[i])
		}
	}
	if ns := selfByName(spans); ns["window"] != 80 || ns["dump"] != 10 {
		t.Errorf("selfByName = %v", ns)
	}
	var off *tracer
	if off.add("x", 0, 0, time.Now(), time.Now()) != 0 {
		t.Error("a nil tracer must record nothing")
	}
}

func TestDigestOrderIndependent(t *testing.T) {
	rows := []rowHash{
		newRowHash(1, 32).u64(10).u64(7),
		newRowHash(1, 32).u64(11).u64(7),
		newRowHash(6, 32).str("example.com").u64(3),
	}
	digest := func(order []int, tuples uint64) uint64 {
		var d windowDigest
		for _, i := range order {
			d.add(rows[i])
		}
		return d.finish(tuples)
	}
	base := digest([]int{0, 1, 2}, 500)
	if digest([]int{2, 0, 1}, 500) != base {
		t.Error("digest depends on row order")
	}
	if digest([]int{0, 1}, 500) == base || digest([]int{0, 1, 2}, 501) == base || digest([]int{0, 0, 2}, 500) == base {
		t.Error("digest misses a changed row set or tuple count")
	}
	if newRowHash(1, 32).u64(10).u64(7) == newRowHash(1, 32).u64(7).u64(10) {
		t.Error("row hash ignores column order")
	}
	if newRowHash(1, 32).str("ab").str("c") == newRowHash(1, 32).str("a").str("bc") {
		t.Error("row hash ignores string boundaries")
	}
}

func TestVerdict(t *testing.T) {
	steady := func(v float64) []float64 { return []float64{v * 0.995, v, v * 1.005, v, v} }
	for _, c := range []struct {
		name      string
		base, new []float64
		better    string
		want      string
	}{
		{"throughput up", steady(100), steady(120), "higher", "better"},
		{"throughput down", steady(100), steady(85), "higher", "worse"},
		{"latency up", steady(10), steady(12), "lower", "worse"},
		{"latency down", steady(10), steady(8), "lower", "better"},
		{"within bound", steady(10), steady(10.4), "lower", "same"},
		{"too noisy to tell", []float64{8, 9, 10, 11, 12}, steady(13), "lower", "unresolved"},
		{"single samples", []float64{10}, []float64{10.2}, "lower", "same"},
	} {
		if _, _, got := verdict(c.base, c.new, c.better, 0.08); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareRecords(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, pktsPerS float64) string {
		rec := &record{Runs: []*result{
			{Workload: seqName, Metrics: map[string]metric{"pkts_per_s": {pktsPerS, "pkts/s"}}},
			{Workload: seqName, Traced: true, Metrics: map[string]metric{"pkts_per_s": {1, "pkts/s"}}},
		}}
		path := filepath.Join(dir, name)
		if err := writeRecord(path, rec); err != nil {
			t.Fatal(err)
		}
		return path
	}
	bf := filepath.Join(dir, "BENCHMARK.json")
	spec := `{"workloads":[{"name":"` + seqName + `","why":"w"}],
		"end_to_end":[{"name":"pkts_per_s","unit":"pkts/s","better":"higher","bound":0.08}]}`
	if err := os.WriteFile(bf, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	old, same, slow := write("old.json", 500_000), write("same.json", 510_000), write("slow.json", 400_000)
	var out bytes.Buffer
	worse, err := compareRecords(&out, bf, old, old+","+same)
	if err != nil || worse || !strings.Contains(out.String(), "same") {
		t.Errorf("same-speed records: worse=%v err=%v\n%s", worse, err, out.String())
	}
	out.Reset()
	worse, err = compareRecords(&out, bf, old, slow)
	if err != nil || !worse || !strings.Contains(out.String(), "worse") {
		t.Errorf("slower record: worse=%v err=%v\n%s", worse, err, out.String())
	}
}

// BENCHMARK.json is what the driver reads and the tables in metrics.go are
// what the benchmark prints; they must name the same things.
func TestBenchmarkFileAgrees(t *testing.T) {
	bf, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in metrics.go", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, metrics.go %q / %q",
				i, bf.Workloads[i].Name, bf.Workloads[i].Why, w.name, w.why)
		}
	}
	check := func(kind string, file []boundedMetric, defs []metricDef) {
		if len(file) != len(defs) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in metrics.go", kind, len(file), len(defs))
		}
		for i, d := range defs {
			if file[i].Name != d.name || file[i].Unit != d.unit || file[i].Better != d.better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, metrics.go %+v", kind, i, file[i], d)
			}
			if file[i].Bound < 0 || file[i].Bound > 0.25 {
				t.Errorf("%s: bound %v outside [0, 0.25]", d.name, file[i].Bound)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
}

// The smoke run asserts presence and determinism only, never a timing.
func TestQuickSmoke(t *testing.T) {
	cfg := config{seed: 1, seconds: 0.2, quick: true, outDir: t.TempDir(), log: io.Discard}
	traces := map[[2]int]*traceSet{}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := runOne(cfg, w, traced, traces)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d gates=%v",
					w.name, traced, res.Correct, res.Failed, res.Attempted, res.Gates)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != d.unit {
					t.Errorf("%s traced=%v: metric %s = %+v (present %v)", w.name, traced, d.name, m, ok)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, d.name, m.Value)
				}
			}
			if traced {
				if _, err := os.Stat(filepath.Join(cfg.outDir, "trace-"+w.name+".json")); err != nil {
					t.Errorf("%s: span file: %v", w.name, err)
				}
			}
		}
	}

	small, _ := workloadByName(smallName)
	run := func(seed int64) *result {
		c := cfg
		c.seed = seed
		res, err := runOne(c, small, false, map[[2]int]*traceSet{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	exact := func(r *result) string {
		return fmt.Sprint(r.Digests, r.Metrics["sp_tuples_per_window"].Value, r.Metrics["found_share"].Value)
	}
	a, b, other := run(7), run(7), run(8)
	if exact(a) != exact(b) {
		t.Errorf("same seed, different counts or digests:\n%s\n%s", exact(a), exact(b))
	}
	if strings.Join(a.Digests, " ") == strings.Join(other.Digests, " ") {
		t.Error("different seeds gave the same digests: the trace does not depend on the seed")
	}
}
