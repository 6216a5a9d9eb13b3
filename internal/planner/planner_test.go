package planner

import (
	"slices"
	"testing"
	"time"

	"repro/internal/fields"
	"repro/internal/pisa"
	"repro/internal/queries"
	"repro/internal/query"
	"repro/internal/trace"
)

func q1(th uint64) *query.Query {
	q := query.NewBuilder("q1", time.Second).
		Filter(query.Eq(fields.TCPFlags, fields.FlagSYN)).
		Map(query.F(fields.DstIP), query.ConstCol(1)).
		Reduce(query.AggSum, fields.DstIP).
		Filter(query.Gt(fields.AggVal, th)).
		MustBuild()
	q.ID = 1
	return q
}

func TestAugmentMasksAndFilters(t *testing.T) {
	q := q1(40)
	key, ok := query.QueryRefinementKey(q)
	if !ok {
		t.Fatal("q1 must be refinable")
	}
	th := uint64(900)
	aug := AugmentQuery(q, key, 8, 16, Thresholds{Left: &th})

	// Dyn filter prepended at the previous level.
	first := &aug.Left.Ops[0]
	if first.DynFilterTable != DynTableName(1, 16) || first.DynLevel != 8 || first.DynKeyField != fields.DstIP {
		t.Errorf("dyn filter = %+v", first)
	}
	// Map output masked to /16.
	mapOp := &aug.Left.Ops[2]
	if mapOp.Kind != query.OpMap {
		t.Fatalf("op 2 = %v", mapOp.Kind)
	}
	if e := mapOp.Cols[0].Expr; e.Kind != query.ExprMask || e.Level != 16 {
		t.Errorf("key column expr = %+v", e)
	}
	// Threshold relaxed.
	last := &aug.Left.Ops[len(aug.Left.Ops)-1]
	if last.Clauses[0].Arg.U != 900 {
		t.Errorf("threshold = %d, want 900", last.Clauses[0].Arg.U)
	}
	// Original untouched.
	if q.Left.Ops[0].Kind != query.OpFilter || q.Left.Ops[0].DynFilterTable != "" {
		t.Error("original query mutated")
	}
	if q.Left.Ops[len(q.Left.Ops)-1].Clauses[0].Arg.U != 40 {
		t.Error("original threshold mutated")
	}
}

func TestAugmentFinestIsIdentityMask(t *testing.T) {
	q := q1(40)
	key, _ := query.QueryRefinementKey(q)
	aug2 := AugmentQuery(q, key, LevelStar, 32, Thresholds{})
	// No dyn filter for the coarsest instance; mask at /32 is identity so
	// the map is unchanged.
	if aug2.Left.Ops[0].DynFilterTable != "" {
		t.Error("coarsest instance must not have a dyn filter")
	}
	if e := aug2.Left.Ops[1].Cols[0].Expr; e.Kind == query.ExprMask {
		t.Error("finest level should not wrap the key in a mask")
	}
}

func trainingWindows(t *testing.T, nWindows, pktsPerWindow int) []Frames {
	t.Helper()
	cfg := trace.DefaultConfig()
	cfg.PacketsPerWindow = pktsPerWindow
	cfg.Windows = nWindows
	cfg.Hosts = 600
	g, err := trace.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g.AddAttack(trace.NewSYNFlood(trace.StandardVictim, 64, pktsPerWindow/20, 0, g.Duration()))
	var out []Frames
	for i := 0; i < nWindows; i++ {
		w := g.WindowRecords(i)
		frames := make(Frames, len(w.Records))
		for j, r := range w.Records {
			frames[j] = r.Data
		}
		out = append(out, frames)
	}
	return out
}

func TestTrainQuery1(t *testing.T) {
	windows := trainingWindows(t, 2, 6000)
	q := q1(100)
	tr, err := Train([]*query.Query{q}, DefaultMenu, windows)
	if err != nil {
		t.Fatal(err)
	}
	// The menu is shared by every deployment: Train must leave it alone.
	if !slices.Equal(DefaultMenu, []int{8, 16, 24}) {
		t.Fatalf("Train changed DefaultMenu to %v", DefaultMenu)
	}
	qt := tr.PerQuery[1]
	if !qt.Refinable || qt.Key.Field != fields.DstIP {
		t.Fatalf("training = %+v", qt)
	}
	wantLevels := []int{8, 16, 24, 32}
	if len(qt.Levels) != 4 {
		t.Fatalf("levels = %v", qt.Levels)
	}
	for i, l := range wantLevels {
		if qt.Levels[i] != l {
			t.Fatalf("levels = %v", qt.Levels)
		}
	}
	// The flood victim must satisfy at the finest level.
	if len(qt.Satisfy[32]) == 0 {
		t.Fatal("no satisfying keys at /32")
	}
	// Coarser levels must have relaxed (larger) thresholds: the victim's /8
	// aggregate dwarfs its /32 count.
	if th := qt.Th[8].Left; th == nil || *th < 100 {
		t.Errorf("relaxed /8 threshold = %v; want >= original", th)
	}
	// Satisfying set shrinks or holds as levels coarsen (prefixes merge).
	if len(qt.Satisfy[8]) > len(qt.Satisfy[32]) {
		t.Errorf("satisfy sizes: /8=%d /32=%d", len(qt.Satisfy[8]), len(qt.Satisfy[32]))
	}
	// Edge costs: once the dyn filter runs on the switch (cut >= 1), gated
	// edges see far less traffic than the full stream. (At cut 0 even the
	// dyn filter runs at the SP, so N equals the whole window.)
	star32 := qt.Edges[[2]int{LevelStar, 32}]
	gated32 := qt.Edges[[2]int{8, 32}]
	if gated32.Left.NAtCut[0] != star32.Left.NAtCut[0] {
		t.Errorf("cut-0 N must be the whole window: %d vs %d",
			gated32.Left.NAtCut[0], star32.Left.NAtCut[0])
	}
	if gated32.Left.Pipe.Tables[0].Kind.String() != "dyn-filter" {
		t.Fatalf("gated pipeline table 0 = %v", gated32.Left.Pipe.Tables[0].Kind)
	}
	if gated32.Left.NAtCut[1]*2 >= star32.Left.NAtCut[0] {
		t.Errorf("gated N(cut1) %d not well below window %d",
			gated32.Left.NAtCut[1], star32.Left.NAtCut[0])
	}
	// Deeper cuts never increase N.
	for i := 1; i < len(star32.Left.NAtCut); i++ {
		if star32.Left.NAtCut[i] > star32.Left.NAtCut[i-1] {
			t.Errorf("N increased with deeper cut: %v", star32.Left.NAtCut)
		}
	}
}

func TestPlanModesOrdering(t *testing.T) {
	windows := trainingWindows(t, 2, 6000)
	p := queries.DefaultParams()
	p.NewTCPThresh = 100
	qs := []*query.Query{q1(100)}
	tr, err := Train(qs, []int{8, 16, 24}, windows)
	if err != nil {
		t.Fatal(err)
	}
	cfg := pisa.DefaultConfig()
	costs := map[Mode]uint64{}
	for _, mode := range []Mode{ModeAllSP, ModeFilterDP, ModeMaxDP, ModeFixRef, ModeSonata} {
		opts := DefaultOptions()
		opts.Mode = mode
		plan, err := PlanQueries(tr, qs, cfg, opts)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if err := plan.Program.Validate(cfg); err != nil {
			t.Fatalf("%v: invalid program: %v", mode, err)
		}
		costs[mode] = plan.ExpectedN()
		t.Logf("%v: expected N = %d, delay = %d", mode, plan.ExpectedN(), plan.Queries[0].Delay())
	}
	if costs[ModeAllSP] < costs[ModeFilterDP] || costs[ModeFilterDP] < costs[ModeMaxDP] {
		t.Errorf("cost ordering violated: %v", costs)
	}
	if costs[ModeSonata] > costs[ModeMaxDP] {
		t.Errorf("Sonata (%d) should beat Max-DP (%d)", costs[ModeSonata], costs[ModeMaxDP])
	}
	// With ample resources Query 1 fits entirely on the switch, so Sonata's
	// expected N must be tiny compared to All-SP.
	if costs[ModeSonata]*100 > costs[ModeAllSP] {
		t.Errorf("Sonata %d not orders below All-SP %d", costs[ModeSonata], costs[ModeAllSP])
	}
}

func TestPlanTightSwitchForcesPartialOffload(t *testing.T) {
	windows := trainingWindows(t, 1, 4000)
	qs := []*query.Query{q1(100)}
	tr, err := Train(qs, []int{8, 16}, windows)
	if err != nil {
		t.Fatal(err)
	}
	// A switch with no stateful capacity: only stateless prefixes fit.
	cfg := pisa.DefaultConfig()
	cfg.StatefulPerStage = 0
	opts := DefaultOptions()
	plan, err := PlanQueries(tr, qs, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, inst := range plan.Program.Instances {
		for ti := 0; ti < inst.CutAt; ti++ {
			if inst.Tables[ti].Stateful {
				t.Fatalf("stateful table placed on a switch with A=0")
			}
		}
	}
	// Still better than nothing: the SYN filter runs on the switch.
	allSP := tr.WindowPackets
	if plan.ExpectedN() >= allSP {
		t.Errorf("stateless offload did not reduce N: %d vs %d", plan.ExpectedN(), allSP)
	}
}

func TestPlanILPAgreesWithGreedyOnEasyInstance(t *testing.T) {
	windows := trainingWindows(t, 1, 4000)
	qs := []*query.Query{q1(100)}
	tr, err := Train(qs, []int{8, 16}, windows)
	if err != nil {
		t.Fatal(err)
	}
	cfg := pisa.DefaultConfig()
	greedyOpts := DefaultOptions()
	gPlan, err := PlanQueries(tr, qs, cfg, greedyOpts)
	if err != nil {
		t.Fatal(err)
	}
	ilpOpts := DefaultOptions()
	ilpOpts.UseILP = true
	ilpOpts.ILPBudget = 5 * time.Second
	iPlan, err := PlanQueries(tr, qs, cfg, ilpOpts)
	if err != nil {
		t.Fatal(err)
	}
	// The ILP may only improve on the greedy incumbent.
	if iPlan.ExpectedN() > gPlan.ExpectedN() {
		t.Errorf("ILP (%d) worse than greedy (%d)", iPlan.ExpectedN(), gPlan.ExpectedN())
	}
}

func TestPlanJoinQueryUsesOnePlanForBothSides(t *testing.T) {
	windows := trainingWindows(t, 1, 5000)
	p := queries.DefaultParams()
	q := queries.SlowlorisAttacks(p)
	q.ID = 8
	tr, err := Train([]*query.Query{q}, []int{8, 16}, windows)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanQueries(tr, []*query.Query{q}, pisa.DefaultConfig(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	qp := plan.Queries[0]
	for _, lp := range qp.Levels {
		if lp.Right == nil {
			t.Fatal("join query level missing right side")
		}
		// Both sides share the level ladder by construction; the augmented
		// query must carry the same dyn table name on both sides when
		// refined.
		if lp.Prev != LevelStar {
			l := lp.Aug.Left.Ops[0]
			r := lp.Aug.Right.Ops[0]
			if l.DynFilterTable == "" || l.DynFilterTable != r.DynFilterTable {
				t.Errorf("level %d: dyn tables %q vs %q", lp.Level, l.DynFilterTable, r.DynFilterTable)
			}
		}
	}
}

func TestTrainRejectsEmptyInput(t *testing.T) {
	if _, err := Train(nil, []int{8}, []Frames{{}}); err == nil {
		t.Error("no queries accepted")
	}
	if _, err := Train([]*query.Query{q1(1)}, []int{8}, nil); err == nil {
		t.Error("no windows accepted")
	}
}
