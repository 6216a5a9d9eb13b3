package runtime_test

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/eval"
	"repro/internal/flightrec"
	"repro/internal/pisa"
	"repro/internal/planner"
	"repro/internal/queries"
	"repro/internal/runtime"
	"repro/internal/subscribe"
	"repro/internal/telemetry"
	"repro/internal/tracez"
)

var updateObserverGolden = flag.Bool("update-observers", false, "rewrite testdata/observer_w*.golden")

// TestObserverGolden pins everything the observers of a fully wired
// deployment serve — /metrics, /debug/queries and the retained /debug/trace
// trees — after the small-scale evaluation workload (all eleven queries) at
// one and two workers, to testdata/observer_w{1,2}.golden. Wall-clock values
// are taken out: histogram _sum/_bucket lines, the recorder's eval, fresh
// and busy times and window quantiles, and span times. So are the values of
// the series the scheduler paces: the two subscription gauges that sample
// how far the subscriber's writer goroutine had got, and the shards'
// back-pressure counts. Everything else is a count, and must not move when
// the way the observers are fed changes. Regenerate with -update-observers.
func TestObserverGolden(t *testing.T) {
	scale := eval.SmallScale()
	w, err := eval.NewWorkload(scale)
	if err != nil {
		t.Fatal(err)
	}
	qs := queries.All(eval.ScaledParams(scale))
	tr, err := planner.Train(qs, []int{8, 16, 24}, w.TrainingFrames())
	if err != nil {
		t.Fatal(err)
	}
	cfg := pisa.DefaultConfig()
	plan, err := planner.PlanQueries(tr, qs, cfg, planner.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	windows := w.Gen.Windows()
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			rt, err := runtime.NewWithOptions(plan, cfg, runtime.Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()
			reg := telemetry.NewRegistry()
			// Every window is head-sampled, so retention does not depend on
			// close latency.
			tz := tracez.New(tracez.Options{HeadEvery: 1, RetainCap: windows})
			tz.Instrument(reg)
			rec := flightrec.New(windows, nil)
			rec.Instrument(reg)
			rec.AttachTraceIndex(tz.Has)
			srv := subscribe.NewServer()
			srv.Instrument(reg)
			// A queue deeper than the run's updates: nothing is ever dropped.
			if _, err := srv.Attach(io.Discard, subscribe.SubscribeRequest{
				Mode: subscribe.Sample, AllLevels: true, QueueCap: 1 << 14}); err != nil {
				t.Fatal(err)
			}
			rt.Instrument(reg, tz)
			rt.AttachFlightRecorder(rec)
			rt.SetResultSink(srv)
			for i := 0; i < windows; i++ {
				rt.ProcessWindow(w.Frames(i))
			}
			// Close flushes the subscriber's queue, so its delivery counters
			// are final.
			srv.Close()

			got := renderMetrics(reg) + renderQueries(t, rec, windows) + renderTrees(tz)
			path := filepath.Join("testdata", fmt.Sprintf("observer_w%d.golden", workers))
			if *updateObserverGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update-observers)", err)
			}
			if got != string(want) {
				t.Errorf("observers diverge from %s:\n%s", path, firstDiff(string(want), got))
			}
		})
	}
}

// schedulerPaced names the series whose values depend on goroutine
// scheduling: how far the subscriber's writer goroutine had drained its
// queue when Publish sampled it, and how often the dispatch side and the
// shard workers found their rings full or empty.
var schedulerPaced = []string{"sonata_subscribe_queue_depth ", "sonata_subscribe_queue_highwater ",
	"sonata_runtime_ring_full_total{", "sonata_runtime_worker_parks_total{"}

// renderMetrics is /metrics without histogram sums and buckets.
func renderMetrics(reg *telemetry.Registry) string {
	var raw strings.Builder
	reg.WritePrometheus(&raw)
	var b strings.Builder
	b.WriteString("== /metrics\n")
	sc := bufio.NewScanner(strings.NewReader(raw.String()))
	for sc.Scan() {
		line := sc.Text()
		name, _, _ := strings.Cut(line, " ")
		if strings.HasSuffix(strings.Split(name, "{")[0], "_sum") ||
			strings.HasSuffix(strings.Split(name, "{")[0], "_bucket") {
			continue
		}
		for _, p := range schedulerPaced {
			if strings.HasPrefix(line, p) {
				line = name + " *"
			}
		}
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String()
}

// renderQueries is /debug/queries?n=<every window> with the wall-clock
// fields zeroed.
func renderQueries(t *testing.T, rec *flightrec.Recorder, windows int) string {
	t.Helper()
	s := rec.Snapshot(windows)
	s.WindowP50NS, s.WindowP99NS, s.FreshP50NS, s.FreshP99NS = 0, 0, 0, 0
	zero := func(rs []flightrec.Record) {
		for i := range rs {
			rs[i].EvalNS, rs[i].FreshNS, rs[i].BusyNS = 0, 0, 0
		}
	}
	zero(s.Queries)
	for _, h := range s.History {
		zero(h)
	}
	out, err := json.MarshalIndent(&s, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return "== /debug/queries\n" + string(out) + "\n"
}

// renderTrees lists every retained trace tree, oldest first, one span a line:
// name, parent name, shard, instance and attributes.
func renderTrees(tz *tracez.Tracer) string {
	var b strings.Builder
	b.WriteString("== /debug/trace\n")
	trees := tz.Trees()
	for i := len(trees) - 1; i >= 0; i-- {
		tree := trees[i]
		fmt.Fprintf(&b, "window %d: %d spans\n", tree.Window, len(tree.Spans))
		names := make(map[uint32]string, len(tree.Spans))
		for _, sp := range tree.Spans {
			names[sp.ID] = tracez.NameString(sp.Name)
		}
		for _, sp := range tree.Spans {
			parent := "-"
			if sp.Parent != 0 {
				parent = names[sp.Parent]
			}
			attrs := make([]string, 0, sp.NAttr)
			for j := 0; j < int(sp.NAttr); j++ {
				attrs = append(attrs, fmt.Sprintf("%s=%d", tracez.AttrKeyString(sp.Attrs[j].Key), sp.Attrs[j].Val))
			}
			sort.Strings(attrs)
			fmt.Fprintf(&b, "  %s <- %s shard=%d q%d/%d %s\n", tracez.NameString(sp.Name), parent,
				sp.Shard, sp.QID, sp.Level, strings.Join(attrs, " "))
		}
	}
	return b.String()
}

// firstDiff shows the first differing line of two renderings, with context.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < max(len(wl), len(gl)); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("line %d:\n  want %q\n  got  %q", i+1, w, g)
		}
	}
	return "(equal)"
}
