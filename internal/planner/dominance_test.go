package planner_test

import (
	"fmt"
	"reflect"
	goruntime "runtime"
	"testing"

	"repro/internal/eval"
	"repro/internal/pisa"
	"repro/internal/planner"
	"repro/internal/queries"
	"repro/internal/query"
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

// TestPlaceMatchesReferencePlacer holds pisa.Program.Place, which places
// every program plan selection builds, to the first-fit placer it replaced
// followed by Validate (plan_ref_test.go), over the trial programs of the
// random switches of TestPlansAlwaysFitRandomSwitches and of every
// small-scale Fig. 8 configuration with the eight header queries: both
// accept the same programs, with the same stages, and Validate accepts
// every program Place places.
func TestPlaceMatchesReferencePlacer(t *testing.T) {
	check := func(t *testing.T, what string, tr *planner.TrainingResult, qs []*query.Query, names []string, cfgs []pisa.Config) {
		var accepted, rejected int
		for i, cfg := range cfgs {
			t.Run(names[i], func(t *testing.T) {
				a, r := planner.PlaceMatchesPlacer(t, tr, qs, cfg, 200)
				accepted, rejected = accepted+a, rejected+r
			})
		}
		t.Logf("%s: %d programs placed, %d refused", what, accepted, rejected)
		if accepted == 0 || rejected == 0 {
			t.Errorf("%s: %d programs placed and %d refused: one side of the comparison is never exercised", what, accepted, rejected)
		}
	}
	tr, qs, cfgs := planner.RandomSwitches(t)
	names := make([]string, len(cfgs))
	for i := range names {
		names[i] = fmt.Sprintf("random%d", i)
	}
	check(t, "random switches", tr, qs, names, cfgs)
	// The same switches squeezed until every per-stage limit binds: a few
	// stateless actions per stage, and one chain whose 256 slots of 64 bits
	// fill a stage's register memory exactly, or half of it.
	for i := range cfgs {
		cfgs[i].StatelessPerStage = 1 + i%4
		cfgs[i].RegisterChains = 1
		cfgs[i].MaxRegisterBitsPerOp = 1 << 14
		cfgs[i].RegisterBitsPerStage = 1 << (14 + i%2)
	}
	check(t, "squeezed random switches", tr, qs, names, cfgs)

	scale := eval.SmallScale()
	w, err := eval.NewWorkload(scale)
	if err != nil {
		t.Fatal(err)
	}
	qs = queries.TopEight(eval.ScaledParams(scale))
	tr, err = planner.Train(qs, planner.DefaultMenu, w.TrainingFrames())
	if err != nil {
		t.Fatal(err)
	}
	names, cfgs = eval.Fig8Configs(pisa.DefaultConfig())
	check(t, "Fig. 8", tr, qs, names, cfgs)
}

// TestSwapSearchIsPairwiseOptimal holds Sonata's swap search, on the
// random switches of TestPlansAlwaysFitRandomSwitches and on every
// small-scale Fig. 8 configuration with the eight header queries, to what
// it promises (planner.SwapSearchIsPairwiseOptimal): its choice places and
// costs no more than the incumbent, and where it stopped short of its cap,
// brute force over every cheaper one- and two-query move, unpruned, finds
// none that places.
func TestSwapSearchIsPairwiseOptimal(t *testing.T) {
	var searched, improved, finished int
	check := func(t *testing.T, tr *planner.TrainingResult, qs []*query.Query, names []string, cfgs []pisa.Config) {
		for i, cfg := range cfgs {
			t.Run(names[i], func(t *testing.T) {
				s, imp, capped := planner.SwapSearchIsPairwiseOptimal(t, tr, qs, cfg)
				if s {
					searched++
				}
				if imp {
					improved++
				}
				if s && !capped {
					finished++
				}
			})
		}
	}
	tr, qs, cfgs := planner.RandomSwitches(t)
	names := make([]string, len(cfgs))
	for i := range names {
		names[i] = fmt.Sprintf("random%d", i)
	}
	check(t, tr, qs, names, cfgs)

	scale := eval.SmallScale()
	w, err := eval.NewWorkload(scale)
	if err != nil {
		t.Fatal(err)
	}
	qs = queries.TopEight(eval.ScaledParams(scale))
	tr, err = planner.Train(qs, planner.DefaultMenu, w.TrainingFrames())
	if err != nil {
		t.Fatal(err)
	}
	names, cfgs = eval.Fig8Configs(pisa.DefaultConfig())
	check(t, tr, qs, names, cfgs)
	t.Logf("search ran on %d switches, improved on %d, ended short of its cap on %d", searched, improved, finished)
	if improved == 0 || finished == 0 {
		t.Errorf("search ran on %d switches, improved on %d and ended short of its cap on %d: a check is never exercised", searched, improved, finished)
	}
}

// TestSwapSearchSkipsOverlongCuts: on small-scale Fig. 8a's shallowest
// pipelines the swap search drops every move onto a candidate with more
// switch tables in one pipeline than the switch has stages, which cannot
// place, so it ends short of its placement cap instead of spending it all
// on such moves.
func TestSwapSearchSkipsOverlongCuts(t *testing.T) {
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
	for _, stages := range []int{1, 2, 4} {
		cfg := pisa.DefaultConfig()
		cfg.Stages = stages
		n, searched := planner.SwapPlacements(t, tr, qs, cfg)
		t.Logf("fig8a stages=%d: searched %v, %d placements", stages, searched, n)
		if searched && n >= planner.SwapCap {
			t.Errorf("fig8a stages=%d: the swap search spent its whole cap (%d placements)", stages, n)
		}
	}
}

// TestLevelsAreProgramInstances: a plan's levels are its switch program.
// Walking every query's levels, each level's Left and then its Right is the
// pointer at the next position of Plan.Program.Instances, and the program
// holds nothing else — for all eleven queries planned together at small
// scale, on every Fig. 8 configuration and the default switch, in every
// mode. The runtime assembles each shard's switch program from the levels
// it owns, in installation order, on the strength of this.
func TestLevelsAreProgramInstances(t *testing.T) {
	scale := eval.SmallScale()
	w, err := eval.NewWorkload(scale)
	if err != nil {
		t.Fatal(err)
	}
	qs := queries.All(eval.ScaledParams(scale))
	tr, err := planner.Train(qs, planner.DefaultMenu, w.TrainingFrames())
	if err != nil {
		t.Fatal(err)
	}
	names, cfgs := eval.Fig8Configs(pisa.DefaultConfig())
	names, cfgs = append(names, "default"), append(cfgs, pisa.DefaultConfig())
	for i, cfg := range cfgs {
		for _, mode := range []planner.Mode{planner.ModeSonata, planner.ModeAllSP, planner.ModeFilterDP, planner.ModeMaxDP, planner.ModeFixRef} {
			opts := planner.DefaultOptions()
			opts.Mode = mode
			plan, err := planner.PlanQueries(tr, qs, cfg, opts)
			if err != nil {
				t.Fatalf("%s %v: %v", names[i], mode, err)
			}
			next := 0
			side := func(qp *planner.QueryPlan, lp *planner.LevelPlan, what string, spec *pisa.InstanceSpec) {
				if next >= len(plan.Program.Instances) || plan.Program.Instances[next] != spec {
					t.Errorf("%s %v: %s level %d %s is not program instance %d", names[i], mode, qp.Query.Name, lp.Level, what, next)
				}
				next++
			}
			for _, qp := range plan.Queries {
				for li := range qp.Levels {
					lp := &qp.Levels[li]
					side(qp, lp, "left", lp.Left)
					if lp.Right != nil {
						side(qp, lp, "right", lp.Right)
					}
				}
			}
			if next != len(plan.Program.Instances) {
				t.Errorf("%s %v: levels hold %d sides, the program %d instances", names[i], mode, next, len(plan.Program.Instances))
			}
		}
	}
}
