package runtime

import (
	"testing"
	"time"

	"repro/internal/fields"
	"repro/internal/pisa"
	"repro/internal/planner"
	"repro/internal/queries"
	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/trace"
)

// buildWorkload generates a trace with a SYN flood, returning training
// windows and replay windows.
func buildWorkload(t *testing.T, pkts int, windows int) (*trace.Generator, []planner.Frames) {
	t.Helper()
	cfg := trace.DefaultConfig()
	cfg.PacketsPerWindow = pkts
	cfg.Windows = windows
	cfg.Hosts = 600
	g, err := trace.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g.AddAttack(trace.NewSYNFlood(trace.StandardVictim, 64, pkts/20, 0, g.Duration()))
	var train []planner.Frames
	for i := 0; i < 2; i++ {
		w := g.WindowRecords(i)
		frames := make(planner.Frames, len(w.Records))
		for j, r := range w.Records {
			frames[j] = r.Data
		}
		train = append(train, frames)
	}
	return g, train
}

func framesOf(w trace.Window) [][]byte {
	frames := make([][]byte, len(w.Records))
	for i, r := range w.Records {
		frames[i] = r.Data
	}
	return frames
}

func q1(th uint64) *query.Query {
	q := query.NewBuilder("newly_opened_tcp_conns", 3*time.Second).
		Filter(query.Eq(fields.TCPFlags, fields.FlagSYN)).
		Map(query.F(fields.DstIP), query.ConstCol(1)).
		Reduce(query.AggSum, fields.DstIP).
		Filter(query.Gt(fields.AggVal, th)).
		MustBuild()
	q.ID = 1
	return q
}

func planFor(t *testing.T, qs []*query.Query, train []planner.Frames, cfg pisa.Config, mode planner.Mode) *planner.Plan {
	t.Helper()
	tr, err := planner.Train(qs, []int{8, 16, 24}, train)
	if err != nil {
		t.Fatal(err)
	}
	opts := planner.DefaultOptions()
	opts.Mode = mode
	plan, err := planner.PlanQueries(tr, qs, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestEndToEndSonataDetectsFlood(t *testing.T) {
	g, train := buildWorkload(t, 6000, 6)
	qs := []*query.Query{q1(100)}
	cfg := pisa.DefaultConfig()
	plan := planFor(t, qs, train, cfg, planner.ModeSonata)
	rt, err := NewWithOptions(plan, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}

	delay := plan.Queries[0].Delay()
	var detected bool
	var maxTuples uint64
	for w := 0; w < g.Windows(); w++ {
		rep := rt.ProcessWindow(framesOf(g.WindowRecords(w)))
		if rep.TuplesToSP > maxTuples {
			maxTuples = rep.TuplesToSP
		}
		// After the refinement pipeline has warmed up (delay windows), the
		// victim must appear in the finest results.
		if w >= delay-1 {
			for _, res := range rep.Results {
				for _, tup := range res.Tuples {
					if tup[0].U == uint64(trace.StandardVictim) {
						detected = true
					}
				}
			}
		}
	}
	if !detected {
		t.Fatal("victim never detected at the finest level")
	}
	// Load reduction: the stream processor must see orders of magnitude
	// fewer tuples than the per-window packet count.
	if maxTuples*20 > 6000 {
		t.Errorf("TuplesToSP per window = %d; expected well below %d", maxTuples, 6000)
	}
	if rt.CollisionRate() > 0.01 {
		t.Errorf("collision rate = %v", rt.CollisionRate())
	}
}

func TestEndToEndAllSPMatchesSonataResults(t *testing.T) {
	g, train := buildWorkload(t, 5000, 5)
	qs := []*query.Query{q1(100)}
	cfg := pisa.DefaultConfig()

	run := func(mode planner.Mode) (map[uint64]bool, uint64) {
		plan := planFor(t, qs, train, cfg, mode)
		rt, err := NewWithOptions(plan, cfg, Options{})
		if err != nil {
			t.Fatal(err)
		}
		found := map[uint64]bool{}
		var tuples uint64
		for w := 0; w < g.Windows(); w++ {
			rep := rt.ProcessWindow(framesOf(g.WindowRecords(w)))
			tuples += rep.TuplesToSP
			for _, res := range rep.Results {
				for _, tup := range res.Tuples {
					found[tup[0].U] = true
				}
			}
		}
		return found, tuples
	}

	allSP, allSPTuples := run(planner.ModeAllSP)
	sonata, sonataTuples := run(planner.ModeSonata)

	// Sonata must find everything All-SP finds (its refinement filters are
	// trained not to sacrifice accuracy) — the victim in particular.
	if !allSP[uint64(trace.StandardVictim)] || !sonata[uint64(trace.StandardVictim)] {
		t.Fatalf("victim missing: allSP=%v sonata=%v", allSP, sonata)
	}
	for k := range allSP {
		if !sonata[k] {
			t.Errorf("Sonata missed key %d that All-SP reported", k)
		}
	}
	if sonataTuples*50 > allSPTuples {
		t.Errorf("Sonata %d tuples vs All-SP %d: insufficient reduction", sonataTuples, allSPTuples)
	}
}

func TestEndToEndJoinQuery(t *testing.T) {
	cfg := trace.DefaultConfig()
	cfg.PacketsPerWindow = 5000
	cfg.Windows = 5
	cfg.Hosts = 600
	g, err := trace.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	victim := trace.StandardVictim
	g.AddAttack(trace.NewSlowloris(victim, 400, 0, g.Duration()))

	p := queries.DefaultParams()
	p.SlowlorisBytesThresh = 2000
	p.SlowlorisRatioThresh = 5
	q := queries.SlowlorisAttacks(p)
	q.ID = 8

	var train []planner.Frames
	for i := 0; i < 2; i++ {
		train = append(train, planner.Frames(framesOf(g.WindowRecords(i))))
	}
	swCfg := pisa.DefaultConfig()
	plan := planFor(t, []*query.Query{q}, train, swCfg, planner.ModeSonata)
	rt, err := NewWithOptions(plan, swCfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	detected := false
	for w := 0; w < g.Windows(); w++ {
		rep := rt.ProcessWindow(framesOf(g.WindowRecords(w)))
		for _, res := range rep.Results {
			for _, tup := range res.Tuples {
				if tup[0].U == uint64(victim) {
					detected = true
				}
			}
		}
	}
	if !detected {
		t.Fatal("slowloris victim never detected through the partitioned join")
	}
}

func TestRefinementUpdatesHappen(t *testing.T) {
	g, train := buildWorkload(t, 5000, 4)
	qs := []*query.Query{q1(100)}
	cfg := pisa.DefaultConfig()
	plan := planFor(t, qs, train, cfg, planner.ModeFixRef)
	if plan.Queries[0].Delay() < 2 {
		t.Skip("Fix-REF plan collapsed to one level on this workload")
	}
	rt, err := NewWithOptions(plan, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var updates int
	for w := 0; w < g.Windows(); w++ {
		rep := rt.ProcessWindow(framesOf(g.WindowRecords(w)))
		updates += rep.FilterUpdates
	}
	if updates == 0 {
		t.Error("refinement never updated any filter entries")
	}
	if len(rt.EntrySummary()) < 2 {
		t.Error("entry summary missing levels")
	}
}

// TestLinkResolutionSurfacesMissingInstance: a refinement link whose gated
// level the switch program does not run is a construction error — not, as it
// was, an update error dropped at every window close — while a level whose
// cut leaves the filter at the stream processor (every level of the All-SP
// plan) resolves to no switch-side table and is none.
func TestLinkResolutionSurfacesMissingInstance(t *testing.T) {
	_, train := buildWorkload(t, 5000, 4)
	cfg := pisa.DefaultConfig()
	plan := planFor(t, []*query.Query{q1(100)}, train, cfg, planner.ModeFixRef)
	if plan.Queries[0].Delay() < 2 {
		t.Skip("Fix-REF plan collapsed to one level on this workload")
	}
	links, err := planLinks(plan)
	if err != nil || len(links) == 0 {
		t.Fatalf("links = %v, %v", links, err)
	}
	sw, err := pisa.NewSwitch(cfg, plan.Program, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := links[0].resolve(stream.NewDynTables(), sw); err != nil || len(links[0].tables) == 0 {
		t.Fatalf("resolving against the plan's own program: %d tables, %v", len(links[0].tables), err)
	}
	var short pisa.Program
	for _, spec := range plan.Program.Instances {
		if spec.Level != links[0].To {
			short.Instances = append(short.Instances, spec)
		}
	}
	if sw, err = pisa.NewSwitch(cfg, &short, nil); err != nil {
		t.Fatal(err)
	}
	if err := links[0].resolve(stream.NewDynTables(), sw); err == nil {
		t.Fatal("a switch that does not run the gated level resolved")
	}
	allSP := planFor(t, []*query.Query{q1(100)}, train, cfg, planner.ModeAllSP)
	rt, err := NewWithOptions(allSP, cfg, Options{})
	if err != nil {
		t.Fatalf("All-SP plan: %v", err)
	}
	for i := range rt.links {
		if n := len(rt.links[i].tables); n != 0 {
			t.Errorf("All-SP link %d resolved %d switch-side tables", i, n)
		}
	}
}

func TestStreamMetricsPerQueryBreakdown(t *testing.T) {
	g, train := buildWorkload(t, 4000, 3)
	qs := []*query.Query{q1(100)}
	cfg := pisa.DefaultConfig()
	plan := planFor(t, qs, train, cfg, planner.ModeAllSP)
	rt, err := NewWithOptions(plan, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep := rt.ProcessWindow(framesOf(g.WindowRecords(2)))
	if rep.TuplesToSP == 0 {
		t.Fatal("All-SP reported zero tuples")
	}
	var sum uint64
	for _, c := range rep.Instances {
		sum += c.TuplesToSP
	}
	if sum != rep.TuplesToSP {
		t.Errorf("per-query sum %d != total %d", sum, rep.TuplesToSP)
	}
	if rep.EmitterFrames == 0 {
		t.Error("emitter frame counter did not advance")
	}
	_ = stream.QueryKey{}
}
