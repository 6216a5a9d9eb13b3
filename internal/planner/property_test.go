package planner

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/pisa"
	"repro/internal/queries"
	"repro/internal/query"
)

// TestPlansAlwaysFitRandomSwitches is the planner's safety property: for
// arbitrary (valid) switch configurations, every mode must either produce a
// program that passes the switch's own constraint validation, or fail with
// an error — never emit an invalid program. The All-SP fallback (zero
// switch resources) guarantees feasibility, so errors should not occur
// either. It is also the dominance property: Sonata's plan space holds
// every restricted mode's, so its plan's trained estimate is never above
// theirs.
func TestPlansAlwaysFitRandomSwitches(t *testing.T) {
	windows := trainingWindows(t, 1, 4000)
	p := queries.DefaultParams()
	qs := []*query.Query{
		q1(100),
		queries.Superspreader(p),
		queries.SlowlorisAttacks(p),
	}
	for i, q := range qs {
		q.ID = uint16(i + 1)
	}
	tr, err := Train(qs, []int{8, 16}, windows)
	if err != nil {
		t.Fatal(err)
	}

	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		cfg := pisa.Config{
			Stages:               1 + r.Intn(32),
			StatefulPerStage:     r.Intn(9),
			StatelessPerStage:    8 + r.Intn(120),
			RegisterBitsPerStage: int64(1+r.Intn(64)) << 17,
			MetadataBits:         128 + r.Intn(8<<10),
			RegisterChains:       1 + r.Intn(4),
		}
		cfg.MaxRegisterBitsPerOp = cfg.RegisterBitsPerStage / int64(1+r.Intn(2))
		if err := cfg.Validate(); err != nil {
			t.Fatalf("trial %d generated invalid config: %v", trial, err)
		}
		planned := map[Mode]uint64{}
		for _, mode := range []Mode{ModeSonata, ModeMaxDP, ModeFixRef, ModeAllSP, ModeFilterDP} {
			opts := DefaultOptions()
			opts.Mode = mode
			plan, err := PlanQueries(tr, qs, cfg, opts)
			if err != nil {
				t.Errorf("trial %d %v: planning failed despite All-SP fallback: %v", trial, mode, err)
				continue
			}
			planned[mode] = plan.ExpectedN()
			if n := planned[ModeSonata]; mode != ModeSonata && n > planned[mode] {
				t.Errorf("trial %d: Sonata plans N %d, above %v's %d (cfg %+v)", trial, n, mode, planned[mode], cfg)
			}
			if err := plan.Program.Validate(cfg); err != nil {
				t.Errorf("trial %d %v: invalid program: %v (cfg %+v)", trial, mode, err, cfg)
			}
			// The plan must cover every query exactly once.
			if len(plan.Queries) != len(qs) {
				t.Errorf("trial %d %v: %d query plans for %d queries", trial, mode, len(plan.Queries), len(qs))
			}
		}
	}
}

// swapSearchIsPairwiseOptimal checks Sonata's swap search on cfg from the
// incumbent choose hands it: the choice it returns places and costs no more
// than the incumbent, and, when the search ended short of its cap, no
// cheaper choice one or two queries away places — found by trying every
// one without the footprint prune, so the prune never dropped a move that
// places. It reports whether the search ran, whether it improved on the
// incumbent, and whether it spent its cap.
func swapSearchIsPairwiseOptimal(t *testing.T, tr *TrainingResult, qs []*query.Query, cfg pisa.Config) (searched, improved, capped bool) {
	t.Helper()
	s, err := newSelector(tr, qs, cfg, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	incumbent, final := s.incumbent()
	if final {
		return false, false, false
	}
	choice, capped := swapSearch(s.cands, s.cfg, incumbent, s.candidateResources, s.places)
	if !s.places(choice) {
		t.Fatalf("search choice %v does not place", choice)
	}
	cost := s.totalCost(choice)
	if cost > s.totalCost(incumbent) {
		t.Fatalf("search choice %v costs %d, incumbent %v %d", choice, cost, incumbent, s.totalCost(incumbent))
	}
	if capped {
		return true, cost < s.totalCost(incumbent), true
	}
	noCheaperMovePlaces(t, s, choice)
	return true, cost < s.totalCost(incumbent), false
}

// noCheaperMovePlaces fails t when a choice one or two queries away from
// choice costs less and places, trying every one (no prune).
func noCheaperMovePlaces(t *testing.T, s *selector, choice []int) {
	t.Helper()
	cost := s.totalCost(choice)
	trial := slices.Clone(choice)
	placesCheaper := func() {
		if s.totalCost(trial) < cost && s.places(trial) {
			t.Fatalf("choice %v costs %d and places, search stopped at %v costing %d", trial, s.totalCost(trial), choice, cost)
		}
	}
	for qi := range s.cands {
		for ci := range s.cands[qi] {
			trial[qi] = ci
			placesCheaper()
			for qj := qi + 1; qj < len(s.cands) && ci != choice[qi]; qj++ {
				for cj := range s.cands[qj] {
					if cj != choice[qj] {
						trial[qj] = cj
						placesCheaper()
					}
				}
				trial[qj] = choice[qj]
			}
		}
		trial[qi] = choice[qi]
	}
}

// swapPlacements runs Sonata's swap search on cfg from the incumbent choose
// hands it and counts the placements it tries. It reports whether the
// search ran at all (a final incumbent skips it).
func swapPlacements(t *testing.T, tr *TrainingResult, qs []*query.Query, cfg pisa.Config) (placements int, searched bool) {
	t.Helper()
	s, err := newSelector(tr, qs, cfg, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	incumbent, final := s.incumbent()
	if final {
		return 0, false
	}
	swapSearch(s.cands, s.cfg, incumbent, s.candidateResources, func(choice []int) bool {
		placements++
		return s.places(choice)
	})
	return placements, true
}

// TestSwapSearchFromAllSPOnShallowSwitches runs the swap search from the
// All-SP choice, which always places, on switches one to four stages deep,
// where the best candidates run as many switch tables as there are stages:
// the search must end short of its cap, and no cheaper choice one or two
// queries away from where it ends may place. A stage prune that dropped a
// candidate whose longest pipeline exactly fills the stages fails here.
func TestSwapSearchFromAllSPOnShallowSwitches(t *testing.T) {
	tr, qs, _ := randomSwitches(t)
	for stages := 1; stages <= 4; stages++ {
		cfg := pisa.DefaultConfig()
		cfg.Stages = stages
		s, err := newSelector(tr, qs, cfg, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		allSP := make([]int, len(qs))
		for qi := range allSP {
			allSP[qi] = slices.IndexFunc(s.cands[qi], func(c candidate) bool {
				return len(c.path) == 1 && c.cuts[0] == [2]int{}
			})
		}
		choice, capped := swapSearch(s.cands, s.cfg, allSP, s.candidateResources, s.places)
		if capped {
			t.Fatalf("stages=%d: the search spent its cap", stages)
		}
		if s.totalCost(choice) >= s.totalCost(allSP) {
			t.Errorf("stages=%d: the search did not improve on All-SP (%d)", stages, s.totalCost(allSP))
		}
		noCheaperMovePlaces(t, s, choice)
	}
}
