package runtime

import (
	"fmt"
	"testing"

	"repro/internal/pisa"
	"repro/internal/planner"
	"repro/internal/queries"
	"repro/internal/query"
	"repro/internal/trace"
)

// TestSonataNeverMissesAcrossSeeds is the accuracy property behind the
// whole design: for varied workloads, the partitioned + refined plan must
// report every key the all-at-the-stream-processor plan reports (once its
// refinement pipeline has warmed up). Run over several seeds and queries so
// the property is exercised on traffic the thresholds were not tuned
// against.
func TestSonataNeverMissesAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed equivalence is slow")
	}
	p := queries.DefaultParams()
	p.NewTCPThresh = 150
	p.SpreaderThresh = 120
	p.DDoSThresh = 150
	mk := []func(queries.Params) *query.Query{
		queries.NewlyOpenedTCPConns,
		queries.Superspreader,
		queries.DDoS,
	}
	for seed := int64(1); seed <= 3; seed++ {
		for qi, make := range mk {
			q := make(p)
			q.ID = uint16(qi + 1)
			t.Run(fmt.Sprintf("seed%d/%s", seed, q.Name), func(t *testing.T) {
				cfg := trace.DefaultConfig()
				cfg.Seed = seed
				cfg.PacketsPerWindow = 5_000
				cfg.Windows = 6
				cfg.Hosts = 600
				g, err := trace.NewGenerator(cfg)
				if err != nil {
					t.Fatal(err)
				}
				trace.StandardAttackSuite(g)

				var train []planner.Frames
				for i := 0; i < 2; i++ {
					train = append(train, planner.Frames(g.WindowRecords(i).Frames()))
				}
				tr, err := planner.Train([]*query.Query{q}, []int{8, 16, 24}, train)
				if err != nil {
					t.Fatal(err)
				}
				swCfg := pisa.DefaultConfig()

				run := func(mode planner.Mode) (map[uint64]bool, int) {
					opts := planner.DefaultOptions()
					opts.Mode = mode
					plan, err := planner.PlanQueries(tr, []*query.Query{q}, swCfg, opts)
					if err != nil {
						t.Fatal(err)
					}
					rt, err := NewWithOptions(plan, swCfg, Options{})
					if err != nil {
						t.Fatal(err)
					}
					delay := plan.Queries[0].Delay()
					found := map[uint64]bool{}
					for w := 2; w < g.Windows(); w++ {
						rep := rt.ProcessWindow(g.WindowRecords(w).Frames())
						// Skip the refinement warm-up windows.
						if w-2 < delay-1 {
							continue
						}
						for _, res := range rep.Results {
							for _, tup := range res.Tuples {
								found[tup[0].U] = true
							}
						}
					}
					return found, delay
				}

				allSP, _ := run(planner.ModeAllSP)
				sonata, delay := run(planner.ModeSonata)
				// Compare on windows both plans reported (beyond warm-up).
				missed := 0
				for k := range allSP {
					if !sonata[k] {
						missed++
						t.Errorf("sonata (delay %d) missed key %d", delay, k)
					}
				}
				if len(allSP) == 0 {
					t.Log("no detections this seed; property vacuous")
				}
			})
		}
	}
}
