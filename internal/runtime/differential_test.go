package runtime_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/eval"
	"repro/internal/flightrec"
	"repro/internal/pisa"
	"repro/internal/planner"
	"repro/internal/queries"
	"repro/internal/runtime"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/tuple"
)

// TestShardedMatchesSequential is the correctness contract of the batched
// and sharded pipelines: over the full evaluation workload (background
// traffic plus the standard attack suite, all eleven queries), every window
// report must be identical to the scalar per-tuple oracle's — results,
// tuple counts, switch counters, filter updates, and emitter volume alike.
// The oracle (Options.Scalar on one inline shard) is the frame-at-a-time,
// tuple-at-a-time interpreter; against it run the batched inline shard and
// 2/8-worker shard sets (prescreened switch batches, columnar engines), plus
// the scalar walk itself spread over workers.
func TestShardedMatchesSequential(t *testing.T) {
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

	run := func(opts runtime.Options) []string {
		rt, err := runtime.NewWithOptions(plan, cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		if opts.Workers > 1 && rt.Workers() < 2 {
			t.Fatalf("workers=%d built a %d-shard runtime", opts.Workers, rt.Workers())
		}
		// The monitoring port is crossed through the wire codec under Scalar
		// and a mirror batch at a time otherwise; what it is counted as
		// carrying — in the registry and per instance in the flight recorder —
		// must not depend on which.
		reg := telemetry.NewRegistry()
		rt.Instrument(reg, nil)
		rec := flightrec.New(w.Gen.Windows(), nil)
		rt.AttachFlightRecorder(rec)
		snaps := make([]string, 0, w.Gen.Windows()+1)
		for i := 0; i < w.Gen.Windows(); i++ {
			snaps = append(snaps, snapshotReport(rt.ProcessWindow(w.Frames(i))))
		}
		rt.Close()
		port := fmt.Sprintf("emitter frames=%d bytes=%d malformed=%d\n",
			reg.Counter("sonata_emitter_frames_total", "").Value(),
			reg.Counter("sonata_emitter_bytes_total", "").Value(),
			reg.Counter("sonata_emitter_malformed_total", "").Value())
		for _, r := range rec.Snapshot(0).Queries {
			port += fmt.Sprintf("q%d/%d mirror bytes=%d\n", r.QID, r.Level, r.CumBytes)
		}
		return append(snaps, port)
	}

	want := run(runtime.Options{Scalar: true}) // per-tuple oracle
	if !strings.Contains(want[len(want)-1], "frames=") || strings.Contains(want[len(want)-1], "bytes=0 ") {
		t.Fatalf("the oracle counted nothing at the monitoring port:\n%s", want[len(want)-1])
	}
	modes := []struct {
		name string
		opts runtime.Options
	}{
		{"inline", runtime.Options{}},
		{"workers=1", runtime.Options{Workers: 1}},
		{"workers=2", runtime.Options{Workers: 2}},
		{"workers=8", runtime.Options{Workers: 8}},
		{"workers=1-scalar", runtime.Options{Workers: 1, Scalar: true}},
		{"workers=2-scalar", runtime.Options{Workers: 2, Scalar: true}},
	}
	for _, mode := range modes {
		got := run(mode.opts)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s window %d diverged from scalar oracle:\n--- oracle\n%s\n--- %s\n%s",
					mode.name, i, want[i], mode.name, got[i])
			}
		}
	}
}

// snapshotReport renders a window report into a canonical string. Result
// tuples are already sorted by the engine; join sub-pipeline outputs are
// sorted here because their order is map-iteration dependent even on one
// shard.
func snapshotReport(rep *runtime.WindowReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "window=%d tuplesToSP=%d filterUpdates=%d emitterFrames=%d emitterMalformed=%d\n",
		rep.Index, rep.TuplesToSP, rep.FilterUpdates, rep.EmitterFrames, rep.EmitterMalformed)
	fmt.Fprintf(&b, "switch: in=%d mirrored=%d collisions=%d dumps=%d\n",
		rep.Switch.PacketsIn, rep.Switch.Mirrored, rep.Switch.Collisions, rep.Switch.DumpTuples)
	keys := make([]stream.QueryKey, 0, len(rep.PerQuery))
	for k := range rep.PerQuery {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].QID != keys[j].QID {
			return keys[i].QID < keys[j].QID
		}
		return keys[i].Level < keys[j].Level
	})
	for _, k := range keys {
		fmt.Fprintf(&b, "perquery q%d/%d=%d\n", k.QID, k.Level, rep.PerQuery[k])
	}
	for _, res := range rep.AllResults {
		fmt.Fprintf(&b, "result q%d/%d tuples=%s left=%s right=%s\n", res.QID, res.Level,
			renderTuples(res.Tuples, false),
			renderTuples(res.LeftOutputs, true),
			renderTuples(res.RightOutputs, true))
	}
	return b.String()
}

func renderTuples(ts [][]tuple.Value, sortThem bool) string {
	out := make([]string, len(ts))
	for i, tup := range ts {
		parts := make([]string, len(tup))
		for j, v := range tup {
			parts[j] = v.String()
		}
		out[i] = strings.Join(parts, ",")
	}
	if sortThem {
		sort.Strings(out)
	}
	return "[" + strings.Join(out, " | ") + "]"
}
