package runtime_test

import (
	"fmt"
	goruntime "runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/eval"
	"repro/internal/fields"
	"repro/internal/flightrec"
	"repro/internal/pisa"
	"repro/internal/planner"
	"repro/internal/queries"
	"repro/internal/query"
	"repro/internal/runtime"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/tracez"
)

// collisionReplanner is the re-planning policy of examples/adaptive over
// Runtime.Replan: once the deployed plan's cumulative collision rate passes
// threshold, re-train on the last keep windows and swap the new plan in
// before the next window.
type collisionReplanner struct {
	rt        *runtime.Runtime
	qs        []*query.Query
	threshold float64
	keep      int
	recent    []planner.Frames
	replans   int
}

// processWindow processes one window and reports whether it re-planned.
func (a *collisionReplanner) processWindow(t *testing.T, frames [][]byte) (*runtime.WindowReport, bool) {
	t.Helper()
	rep := a.rt.ProcessWindow(frames)
	a.recent = append(a.recent, frames)
	if len(a.recent) > a.keep {
		a.recent = a.recent[len(a.recent)-a.keep:]
	}
	if !a.rt.NeedsReplan(a.threshold) {
		return rep, false
	}
	if err := a.rt.Replan(planAll(t, a.qs, a.recent, pisa.DefaultConfig())); err != nil {
		t.Fatal(err)
	}
	a.replans++
	return rep, true
}

// growthTraces returns a light training trace and its 10x-volume live
// counterpart (the same shape, and so ~10x the unique keys for the
// distinct-based query).
func growthTraces(t *testing.T, liveWindows int) (light, heavy *trace.Generator) {
	t.Helper()
	cfg := trace.DefaultConfig()
	cfg.PacketsPerWindow = 1_500
	cfg.Windows = 2
	cfg.Hosts = 3_000
	light, err := trace.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.PacketsPerWindow = 15_000
	cfg.Windows = liveWindows
	cfg.Seed = 2
	if heavy, err = trace.NewGenerator(cfg); err != nil {
		t.Fatal(err)
	}
	return light, heavy
}

// superspreader counts distinct (sIP, dIP) pairs: its key population
// scales with traffic volume, which is what breaks the trained sizing.
func superspreader() *query.Query {
	q := query.NewBuilder("superspreader", 3*time.Second).
		Map(query.F(fields.SrcIP), query.F(fields.DstIP)).
		Distinct().
		Map(query.C(fields.SrcIP), query.ConstCol(1)).
		Reduce(query.AggSum, fields.SrcIP).
		Filter(query.Gt(fields.AggVal, 5_000)).
		MustBuild()
	q.ID = 1
	return q
}

// TestAdaptiveReplanOnTrafficGrowth reproduces the Section 3.3 scenario:
// the planner sizes registers from training traffic; live traffic then
// grows well past the estimate, registers overflow, the collision signal
// fires, and a re-plan with recent windows restores a low collision rate.
func TestAdaptiveReplanOnTrafficGrowth(t *testing.T) {
	lightGen, heavyGen := growthTraces(t, 6)
	qs := []*query.Query{superspreader()}
	plan := planAll(t, qs, []planner.Frames{framesWin(lightGen, 0), framesWin(lightGen, 1)}, pisa.DefaultConfig())
	rt, err := runtime.NewWithOptions(plan, pisa.DefaultConfig(), runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ar := &collisionReplanner{rt: rt, qs: qs, threshold: 0.01, keep: 2}

	var sawReplan bool
	var collisionsBefore, collisionsAfter uint64
	for w := 0; w < heavyGen.Windows(); w++ {
		rep, replanned := ar.processWindow(t, framesWin(heavyGen, w))
		if !sawReplan {
			// Windows up to and including the one that fired the signal.
			collisionsBefore += rep.Switch.Collisions
		} else {
			collisionsAfter += rep.Switch.Collisions
		}
		if replanned {
			sawReplan = true
		}
	}
	if !sawReplan {
		t.Fatalf("collision signal never triggered a re-plan (before=%d)", collisionsBefore)
	}
	if collisionsBefore == 0 {
		t.Fatal("expected collisions before the re-plan")
	}
	if collisionsAfter*10 > collisionsBefore {
		t.Errorf("re-plan did not restore low collisions: before=%d after=%d",
			collisionsBefore, collisionsAfter)
	}
	if ar.replans == 0 {
		t.Error("replan counter did not advance")
	}
}

// TestAdaptiveReplanReleasesWorkers: every re-plan replaces a shard set
// whose workers are persistent goroutines, so Replan must stop them — and
// Close must stop the last set. Traffic grows twice (10x the volume, then
// 3x again over 10x the hosts), each surge overflowing the registers sized
// for the one before; with a threshold any collision passes, that is two
// re-plans. Afterwards the goroutine count is back where it began.
func TestAdaptiveReplanReleasesWorkers(t *testing.T) {
	lightGen, heavyGen := growthTraces(t, 2)
	surge := trace.DefaultConfig()
	surge.PacketsPerWindow = 45_000
	surge.Windows = 2
	surge.Hosts = 30_000
	surge.Seed = 3
	surgeGen, err := trace.NewGenerator(surge)
	if err != nil {
		t.Fatal(err)
	}
	qs := []*query.Query{superspreader()}
	plan := planAll(t, qs, []planner.Frames{framesWin(lightGen, 0), framesWin(lightGen, 1)}, pisa.DefaultConfig())
	before := goruntime.NumGoroutine()
	rt, err := runtime.NewWithOptions(plan, pisa.DefaultConfig(), runtime.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Workers() != 2 {
		t.Fatalf("deployed %d shards, want 2 (the leak needs live workers)", rt.Workers())
	}
	ar := &collisionReplanner{rt: rt, qs: qs, threshold: 1e-9, keep: 2}
	for _, g := range []*trace.Generator{heavyGen, surgeGen} {
		for w := 0; w < g.Windows(); w++ {
			ar.processWindow(t, framesWin(g, w))
		}
	}
	if ar.replans < 2 {
		t.Fatalf("only %d re-plans; the test needs at least two", ar.replans)
	}
	rt.Close()
	// A joined worker has signalled but may not have exited yet.
	after := goruntime.NumGoroutine()
	for i := 0; after > before && i < 200; i++ {
		time.Sleep(5 * time.Millisecond)
		after = goruntime.NumGoroutine()
	}
	if after != before {
		t.Errorf("%d goroutines after Close, %d before deploy: %d re-plans stranded workers",
			after, before, ar.replans)
	}
}

// replanWorkload is the small evaluation workload with two plans over it.
// from plans the first three header queries on a tenth of the training
// traffic, so its registers overflow on the full traffic; to plans all eight
// on all of it, so a re-plan from one to the other installs instances the
// first never had.
type replanWorkload struct {
	w        *eval.Workload
	from, to *planner.Plan
}

func newReplanWorkload(t *testing.T) *replanWorkload {
	t.Helper()
	scale := eval.SmallScale()
	w, err := eval.NewWorkload(scale)
	if err != nil {
		t.Fatal(err)
	}
	qs := queries.TopEight(eval.ScaledParams(scale))
	cfg := pisa.DefaultConfig()
	train := w.TrainingFrames()
	var sparse []planner.Frames
	for _, f := range train {
		var tenth planner.Frames
		for i := 0; i < len(f); i += 10 {
			tenth = append(tenth, f[i])
		}
		sparse = append(sparse, tenth)
	}
	return &replanWorkload{w: w,
		from: planAll(t, qs[:3], sparse, cfg),
		to:   planAll(t, qs, train, cfg)}
}

// replanAt is the window after which the tests re-plan; windows from
// replanAt+1 on run under the new plan.
const replanAt = 1

// TestReplanMatchesFreshRuntime is Replan's differential: after a re-plan
// at window w, every report from w+1 on equals the report of a runtime
// built fresh from the new plan and fed the same windows — apart from
// Index, which carries on — and so does the collision rate, at one and two
// workers and on the scalar oracle. (It fails if Replan keeps the old
// deployment's collision sums or refinement links.)
func TestReplanMatchesFreshRuntime(t *testing.T) {
	rw := newReplanWorkload(t)
	cfg := pisa.DefaultConfig()
	for _, opts := range []runtime.Options{{Workers: 1}, {Workers: 2}, {Scalar: true}} {
		t.Run(fmt.Sprintf("workers=%d,scalar=%v", opts.Workers, opts.Scalar), func(t *testing.T) {
			rt, err := runtime.NewWithOptions(rw.from, cfg, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()
			fresh, err := runtime.NewWithOptions(rw.to, cfg, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer fresh.Close()
			for i := 0; i <= replanAt; i++ {
				rt.ProcessWindow(rw.w.Frames(i))
			}
			if rt.CollisionRate() == 0 {
				t.Fatal("the first plan never collided; the collision-rate check is vacuous")
			}
			if err := rt.Replan(rw.to); err != nil {
				t.Fatal(err)
			}
			if rt.Plan() != rw.to {
				t.Fatal("Plan() does not return the re-planned plan")
			}
			for i := replanAt + 1; i < rw.w.Gen.Windows(); i++ {
				got := rt.ProcessWindow(rw.w.Frames(i))
				want := fresh.ProcessWindow(rw.w.Frames(i))
				if got.Index != i {
					t.Errorf("window %d reported Index %d", i, got.Index)
				}
				g, w := *got, *want
				g.Index, w.Index = 0, 0
				if a, b := snapshotReport(&g), snapshotReport(&w); a != b {
					t.Errorf("window %d: re-planned runtime diverged from a fresh one:\n--- fresh\n%s\n--- re-planned\n%s", i, b, a)
				}
				if a, b := rt.CollisionRate(), fresh.CollisionRate(); a != b {
					t.Errorf("window %d: collision rate %v, fresh runtime %v", i, a, b)
				}
			}
		})
	}
}

// recordingSink records each published report's index and checks that each
// of its results has the per-instance record beside it.
type recordingSink struct {
	lane       *tracez.Ring
	indices    []int
	unrecorded []string
}

func (s *recordingSink) Publish(rep *runtime.WindowReport) []uint64 {
	s.indices = append(s.indices, rep.Index)
	for i, res := range rep.AllResults {
		if i >= len(rep.Instances) || rep.Instances[i].QID != res.QID || rep.Instances[i].Level != res.Level {
			s.unrecorded = append(s.unrecorded, fmt.Sprintf("window %d q%d/%d", rep.Index, res.QID, res.Level))
		}
	}
	return nil
}

func (s *recordingSink) AttachTracez(r *tracez.Ring) { s.lane = r }

// TestReplanKeepsObservers: a registry, a tracer, a flight recorder and a
// result sink attached before a re-plan stay attached across it. The
// registry's series count every window (the engine-side ones included),
// the sink sees strictly increasing indices and a record for every instance
// of the new plan, the recorder tracks exactly the new plan's instances,
// and post-re-plan trace trees carry every new instance's op span on a
// shard lane. (It fails if Replan skips Instrument, skips
// AttachFlightRecorder, or restarts the window index.)
func TestReplanKeepsObservers(t *testing.T) {
	rw := newReplanWorkload(t)
	rt, err := runtime.NewWithOptions(rw.from, pisa.DefaultConfig(), runtime.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	reg := telemetry.NewRegistry()
	tz := tracez.New(tracez.Options{HeadEvery: 1})
	rec := flightrec.New(16, nil)
	sink := &recordingSink{}
	rt.SetResultSink(sink)
	rt.Instrument(reg, tz)
	rt.AttachFlightRecorder(rec)

	n := rw.w.Gen.Windows()
	var tuplesToSP uint64
	for i := 0; i < n; i++ {
		if i == replanAt+1 {
			if err := rt.Replan(rw.to); err != nil {
				t.Fatal(err)
			}
		}
		tuplesToSP += rt.ProcessWindow(rw.w.Frames(i)).TuplesToSP
	}

	s := reg.Snapshot()
	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		{"sonata_runtime_windows_total", s.Counter("sonata_runtime_windows_total"), uint64(n)},
		{"sonata_runtime_tuples_to_sp_total", s.Counter("sonata_runtime_tuples_to_sp_total"), tuplesToSP},
		{"sonata_stream_tuples_in_total", s.Counter("sonata_stream_tuples_in_total"), tuplesToSP},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
	if got := s.Gauges["sonata_runtime_window_index"]; got != int64(n-1) {
		t.Errorf("sonata_runtime_window_index = %d, want %d", got, n-1)
	}

	if len(sink.indices) != n {
		t.Fatalf("sink saw %d windows, want %d", len(sink.indices), n)
	}
	for i := 1; i < n; i++ {
		if sink.indices[i] <= sink.indices[i-1] {
			t.Errorf("sink indices not strictly increasing: %v", sink.indices)
			break
		}
	}
	if len(sink.unrecorded) > 0 {
		t.Errorf("sink has no per-instance record for %v", sink.unrecorded)
	}
	if sink.lane == nil {
		t.Error("sink has no trace lane")
	}

	var want, tracked []string
	for _, qp := range rw.to.Queries {
		for _, lp := range qp.Levels {
			want = append(want, fmt.Sprintf("q%d/%d", qp.Query.ID, lp.Level))
		}
	}
	snap := rec.Snapshot(0)
	for _, r := range snap.Queries {
		tracked = append(tracked, fmt.Sprintf("q%d/%d", r.QID, r.Level))
	}
	slices.Sort(want)
	slices.Sort(tracked)
	if !slices.Equal(tracked, want) {
		t.Errorf("flight recorder tracks %v, want the new plan's %v", tracked, want)
	}
	if snap.Window != n-1 {
		t.Errorf("flight recorder's latest window = %d, want %d", snap.Window, n-1)
	}

	trees := 0
	for _, tree := range tz.Trees() {
		if tree.Window <= replanAt {
			continue
		}
		trees++
		ops := map[stream.QueryKey]bool{}
		for _, sp := range tree.Spans {
			if sp.Name == tracez.NameOpEval && sp.Shard >= 0 {
				ops[stream.QueryKey{QID: sp.QID, Level: sp.Level}] = true
			}
		}
		for _, qp := range rw.to.Queries {
			for _, lp := range qp.Levels {
				if !ops[stream.QueryKey{QID: qp.Query.ID, Level: uint8(lp.Level)}] {
					t.Errorf("window %d: no op span for q%d/%d", tree.Window, qp.Query.ID, lp.Level)
				}
			}
		}
	}
	if trees != n-replanAt-1 {
		t.Errorf("retained %d post-re-plan trees, want %d (HeadEvery=1)", trees, n-replanAt-1)
	}
}

// TestReplanFailureKeepsPlan: a plan that fails to build, or a re-plan with
// frames of an open window buffered, is an error that leaves the runtime
// exactly as it was — every following report equals that of a twin that
// was never asked to re-plan. (It fails if Replan stops or replaces the old
// shard set before the new one has built, or accepts buffered frames.)
func TestReplanFailureKeepsPlan(t *testing.T) {
	rw := newReplanWorkload(t)
	cfg := pisa.DefaultConfig()
	opts := runtime.Options{Workers: 2}
	rt, err := runtime.NewWithOptions(rw.from, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	twin, err := runtime.NewWithOptions(rw.from, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer twin.Close()

	// The new plan's program with one more instance, of a query the plan
	// does not hold: the build fails once links and instances are derived.
	bad := *rw.to
	extra := *rw.to.Program.Instances[0]
	extra.QID = 99
	bad.Program = &pisa.Program{Instances: append(slices.Clone(rw.to.Program.Instances), &extra)}

	for i := 0; i < rw.w.Gen.Windows(); i++ {
		frames := rw.w.Frames(i)
		var got *runtime.WindowReport
		switch i {
		case replanAt + 1:
			if err := rt.Replan(&bad); err == nil {
				t.Fatal("Replan of a plan with an unplanned program instance succeeded")
			}
			got = rt.ProcessWindow(frames)
		case replanAt + 2:
			rt.Process(frames[0])
			if err := rt.Replan(rw.to); err == nil {
				t.Fatal("Replan with a frame buffered succeeded")
			}
			for _, f := range frames[1:] {
				rt.Process(f)
			}
			got = rt.CloseWindow()
		default:
			got = rt.ProcessWindow(frames)
		}
		want := twin.ProcessWindow(frames)
		if a, b := snapshotReport(got), snapshotReport(want); a != b {
			t.Errorf("window %d diverged from the twin:\n--- twin\n%s\n--- after failed re-plan\n%s", i, b, a)
		}
	}
	if rt.Plan() != rw.from {
		t.Error("a failed re-plan replaced the plan")
	}
}

// TestReplanZeroesDroppedRegisterGauges: a re-plan onto fewer switches
// leaves the dropped switches' register series registered, and from the
// next close on they read 0 — the live deployment has no registers there —
// while the surviving switch reads its own. The re-plan goes from the
// small-scale plan on four shards to a one-query All-SP plan, which builds
// one shard and installs no register at all.
func TestReplanZeroesDroppedRegisterGauges(t *testing.T) {
	rw := newReplanWorkload(t)
	cfg := pisa.DefaultConfig()
	one := queries.TopEight(eval.ScaledParams(eval.SmallScale()))[:1]
	tr, err := planner.Train(one, []int{8, 16, 24}, rw.w.TrainingFrames())
	if err != nil {
		t.Fatal(err)
	}
	opts := planner.DefaultOptions()
	opts.Mode = planner.ModeAllSP
	allSP, err := planner.PlanQueries(tr, one, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := runtime.NewWithOptions(rw.to, cfg, runtime.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	reg := telemetry.NewRegistry()
	rt.Instrument(reg, nil)
	gauges := func(family string) []int64 {
		var v []int64
		for shard := range 4 {
			v = append(v, reg.Snapshot().Gauges[fmt.Sprintf(`%s{shard="%d"}`, family, shard)])
		}
		return v
	}
	rt.ProcessWindow(rw.w.Frames(0))
	if c := gauges("sonata_switch_register_entries_capacity"); slices.Contains(c, 0) {
		t.Fatalf("before the re-plan, register capacity per shard %v: every shard should hold registers", c)
	}
	if err := rt.Replan(allSP); err != nil {
		t.Fatal(err)
	}
	if rt.Workers() != 1 {
		t.Fatalf("the All-SP plan built %d shards, want 1", rt.Workers())
	}
	rt.ProcessWindow(rw.w.Frames(1))
	for _, family := range []string{"sonata_switch_register_entries_capacity", "sonata_switch_register_entries_used"} {
		if got := gauges(family); !slices.Equal(got, []int64{0, 0, 0, 0}) {
			t.Errorf("%s after the re-plan = %v, want all 0", family, got)
		}
	}
}
