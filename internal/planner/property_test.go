package planner

import (
	"math/rand"
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
