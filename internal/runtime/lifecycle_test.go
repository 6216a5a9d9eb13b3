package runtime_test

import (
	goruntime "runtime"
	"testing"

	"repro/internal/eval"
	"repro/internal/pisa"
	"repro/internal/planner"
	"repro/internal/queries"
	"repro/internal/runtime"
)

// lifecyclePlan builds a small multi-query plan shared by the persistent-
// worker lifecycle tests below. They run under the race detector via the
// `race` target in make check, so every path they take — zero-frame closes,
// mid-window Close, inline execution after it — is exercised against the
// worker goroutines' ring and barrier synchronization.
func lifecyclePlan(t *testing.T) (*eval.Workload, *planner.Plan, pisa.Config) {
	t.Helper()
	scale := eval.SmallScale()
	w, err := eval.NewWorkload(scale)
	if err != nil {
		t.Fatal(err)
	}
	qs := queries.TopEight(eval.ScaledParams(scale))
	tr, err := planner.Train(qs, []int{8, 16, 24}, w.TrainingFrames())
	if err != nil {
		t.Fatal(err)
	}
	cfg := pisa.DefaultConfig()
	plan, err := planner.PlanQueries(tr, qs, cfg, planner.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return w, plan, cfg
}

func newLifecycleRuntime(t *testing.T, plan *planner.Plan, cfg pisa.Config, opts runtime.Options) *runtime.Runtime {
	t.Helper()
	rt, err := runtime.NewWithOptions(plan, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// lifecycleModes are the deployments every lifecycle schedule runs on:
// shard sets with live workers. Each is compared against one shard executing
// inline on the caller (lifecycleOracle) run through the same schedule.
var (
	lifecycleOracle = runtime.Options{Workers: 1}
	lifecycleModes  = []runtime.Options{{Workers: 2}, {Workers: 8}}
)

// TestShardedZeroFrameWindows closes windows that saw no frames — before any
// traffic, between two real windows, and several in a row — and requires
// every deployment's reports to match one inline shard's for the same
// schedule. A zero-frame close still runs the full barrier (every shard
// executes EndWindow on its state), so under -race this doubles as a check
// that an empty epoch leaves no shard state behind.
func TestShardedZeroFrameWindows(t *testing.T) {
	w, plan, cfg := lifecyclePlan(t)

	run := func(opts runtime.Options) []string {
		rt := newLifecycleRuntime(t, plan, cfg, opts)
		defer rt.Close()
		var snaps []string
		snap := func() { snaps = append(snaps, snapshotReport(rt.CloseWindow())) }
		snap() // zero-frame window before any traffic
		for _, f := range w.Frames(0) {
			rt.Process(f)
		}
		snap() // real window
		snap() // zero-frame window between real windows
		snap()
		snap() // consecutive zero-frame windows
		for _, f := range w.Frames(1) {
			rt.Process(f)
		}
		snap() // real window after the empty run
		return snaps
	}

	want := run(lifecycleOracle)
	for _, opts := range lifecycleModes {
		got := run(opts)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("workers=%d window %d diverged:\n--- reference\n%s\n--- got\n%s",
					opts.Workers, i, want[i], got[i])
			}
		}
	}
}

// TestShardedCloseMidWindow stops the persistent workers halfway through a
// window. The contract: frames already pushed are fully processed before the
// workers exit, the rest of the window runs inline on the caller, and the
// window's report is bit-identical to one from a runtime that was never
// closed. Close must also be safe to repeat, after-close windows must keep
// producing correct (single-goroutine) reports, and on one shard — which
// never had workers — Close changes nothing.
func TestShardedCloseMidWindow(t *testing.T) {
	w, plan, cfg := lifecyclePlan(t)

	baseline := func() []string {
		rt := newLifecycleRuntime(t, plan, cfg, lifecycleOracle)
		var snaps []string
		for i := 0; i < 2; i++ {
			for _, f := range w.Frames(i) {
				rt.Process(f)
			}
			snaps = append(snaps, snapshotReport(rt.CloseWindow()))
		}
		return snaps
	}()

	for _, opts := range lifecycleModes {
		rt := newLifecycleRuntime(t, plan, cfg, opts)
		frames := w.Frames(0)
		for _, f := range frames[:len(frames)/2] {
			rt.Process(f)
		}
		rt.Close() // mid-window: workers drain their rings and exit
		rt.Close() // repeat must be a no-op
		for _, f := range frames[len(frames)/2:] {
			rt.Process(f)
		}
		if got := snapshotReport(rt.CloseWindow()); got != baseline[0] {
			t.Errorf("workers=%d: window spanning Close diverged:\n--- never closed\n%s\n--- closed mid-window\n%s",
				opts.Workers, baseline[0], got)
		}
		// The runtime stays usable after Close: subsequent windows run inline.
		for _, f := range w.Frames(1) {
			rt.Process(f)
		}
		if got := snapshotReport(rt.CloseWindow()); got != baseline[1] {
			t.Errorf("workers=%d: window after Close diverged:\n--- never closed\n%s\n--- after Close\n%s",
				opts.Workers, baseline[1], got)
		}
		rt.Close()
	}
}

// TestShardedBackToBackCloseWindow hammers the close barrier: many
// CloseWindow calls with no Process in between, racing each epoch's
// close/merge against the previous one's shard-side reset, then a real
// window to prove the pipeline state survived.
func TestShardedBackToBackCloseWindow(t *testing.T) {
	w, plan, cfg := lifecyclePlan(t)

	run := func(opts runtime.Options) []string {
		rt := newLifecycleRuntime(t, plan, cfg, opts)
		defer rt.Close()
		var snaps []string
		for _, f := range w.Frames(0) {
			rt.Process(f)
		}
		snaps = append(snaps, snapshotReport(rt.CloseWindow()))
		for i := 0; i < 16; i++ {
			snaps = append(snaps, snapshotReport(rt.CloseWindow()))
		}
		for _, f := range w.Frames(1) {
			rt.Process(f)
		}
		snaps = append(snaps, snapshotReport(rt.CloseWindow()))
		return snaps
	}

	want := run(lifecycleOracle)
	for _, opts := range lifecycleModes {
		got := run(opts)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("workers=%d snapshot %d diverged:\n--- reference\n%s\n--- got\n%s",
					opts.Workers, i, want[i], got[i])
			}
		}
	}
}

// TestOneShardStartsNoGoroutine: Workers <= 1 is a single-goroutine
// pipeline — the one shard executes on the caller, so neither construction
// nor a window starts a goroutine.
func TestOneShardStartsNoGoroutine(t *testing.T) {
	w, plan, cfg := lifecyclePlan(t)
	for _, workers := range []int{0, 1} {
		before := goruntime.NumGoroutine()
		rt := newLifecycleRuntime(t, plan, cfg, runtime.Options{Workers: workers})
		rt.ProcessWindow(w.Frames(0))
		// Workers of earlier tests may still be exiting, so only growth counts.
		if after := goruntime.NumGoroutine(); after > before {
			t.Errorf("Workers=%d: %d goroutines with a runtime deployed, %d before", workers, after, before)
		}
	}
}
