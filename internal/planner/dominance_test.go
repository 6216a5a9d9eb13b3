package planner_test

import (
	"reflect"
	goruntime "runtime"
	"testing"

	"repro/internal/eval"
	"repro/internal/pisa"
	"repro/internal/planner"
	"repro/internal/queries"
)

// TestSonataDominatesFig8Configs sweeps the dominance property of
// TestPlansAlwaysFitRandomSwitches over every small-scale Fig. 8 switch
// configuration: with the eight header queries planned together, Sonata's
// trained estimate is at most every restricted mode's, also where Sonata's
// greedy alone plans more than one of them (actions=2: 14,382 against
// Max-DP's 1,226). Selection reads no clock and starts no goroutine, so
// Sonata's plan is also the same when planned again at GOMAXPROCS 1.
func TestSonataDominatesFig8Configs(t *testing.T) {
	scale := eval.SmallScale()
	w, err := eval.NewWorkload(scale)
	if err != nil {
		t.Fatal(err)
	}
	qs := queries.TopEight(eval.ScaledParams(scale))
	tr, err := planner.Train(qs, planner.DefaultMenu, w.TrainingFrames())
	if err != nil {
		t.Fatal(err)
	}
	names, cfgs := eval.Fig8Configs(pisa.DefaultConfig())
	if len(cfgs) != 28 {
		t.Fatalf("%d Fig. 8 configurations, want 28", len(cfgs))
	}
	for i, cfg := range cfgs {
		planned := map[planner.Mode]uint64{}
		for _, mode := range []planner.Mode{planner.ModeSonata, planner.ModeAllSP, planner.ModeFilterDP, planner.ModeMaxDP, planner.ModeFixRef} {
			opts := planner.DefaultOptions()
			opts.Mode = mode
			plan, err := planner.PlanQueries(tr, qs, cfg, opts)
			if err != nil {
				t.Fatalf("%s %v: %v", names[i], mode, err)
			}
			if err := plan.Program.Validate(cfg); err != nil {
				t.Fatalf("%s %v: invalid program: %v", names[i], mode, err)
			}
			planned[mode] = plan.ExpectedN()
			if n := planned[planner.ModeSonata]; n > planned[mode] {
				t.Errorf("%s: Sonata plans N %d, above %v's %d", names[i], n, mode, planned[mode])
			}
			if mode != planner.ModeSonata {
				continue
			}
			procs := goruntime.GOMAXPROCS(1)
			again, err := planner.PlanQueries(tr, qs, cfg, opts)
			goruntime.GOMAXPROCS(procs)
			if err != nil || !reflect.DeepEqual(plan, again) {
				t.Errorf("%s: Sonata planned again at GOMAXPROCS 1 differs (%v)", names[i], err)
			}
		}
	}
}
