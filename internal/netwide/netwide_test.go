package netwide

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/eval"
	"repro/internal/fields"
	"repro/internal/packet"
	"repro/internal/pisa"
	"repro/internal/planner"
	"repro/internal/queries"
	"repro/internal/query"
	"repro/internal/runtime"
	"repro/internal/stream"
	"repro/internal/trace"
)

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

func buildPlan(t *testing.T, g *trace.Generator, th uint64) *planner.Plan {
	t.Helper()
	var train []planner.Frames
	for i := 0; i < 2; i++ {
		w := g.WindowRecords(i)
		f := make(planner.Frames, len(w.Records))
		for j, r := range w.Records {
			f[j] = r.Data
		}
		train = append(train, f)
	}
	tr, err := planner.Train([]*query.Query{q1(th)}, []int{8, 16}, train)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := planner.PlanQueries(tr, []*query.Query{q1(th)}, pisa.DefaultConfig(), planner.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// shard routes a frame to a vantage point by source address, splitting any
// one attack's traffic across the fabric.
func shard(frame []byte, n int) int {
	var pkt packet.Packet
	if err := packet.NewParser(packet.ParserOptions{}).Parse(frame, &pkt); err != nil {
		return 0
	}
	return int(pkt.IPv4.Src) % n
}

// TestFabricDetectsSplitHeavyHitter is the headline network-wide property:
// a flood whose sources are spread over vantage points stays below the
// threshold at every single switch but crosses it once merged.
func TestFabricDetectsSplitHeavyHitter(t *testing.T) {
	const nSwitches = 4
	cfg := trace.DefaultConfig()
	cfg.PacketsPerWindow = 4_000
	cfg.Windows = 4
	cfg.Hosts = 500
	g, err := trace.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 600 SYNs per window from many sources: ~150 per switch after
	// sharding, threshold 400 — invisible to any single vantage point.
	g.AddAttack(trace.NewSYNFlood(trace.StandardVictim, 256, 600, 0, g.Duration()))
	plan := buildPlan(t, g, 400)

	fabric, err := New(plan, pisa.DefaultConfig(), nSwitches)
	if err != nil {
		t.Fatal(err)
	}
	if fabric.Size() != nSwitches {
		t.Fatalf("size = %d", fabric.Size())
	}
	detected := false
	for w := 2; w < g.Windows(); w++ {
		for _, r := range g.WindowRecords(w).Records {
			fabric.Process(shard(r.Data, nSwitches), r.Data)
		}
		rep := fabric.CloseWindow()
		if len(rep.PerSwitch) != nSwitches {
			t.Fatalf("per-switch stats = %d", len(rep.PerSwitch))
		}
		for _, res := range rep.Results {
			for _, tup := range res.Tuples {
				if tup[0].U == uint64(trace.StandardVictim) {
					detected = true
					if tup[1].U < 400 {
						t.Errorf("merged count %d below threshold", tup[1].U)
					}
				}
			}
		}
	}
	if !detected {
		t.Fatal("split heavy hitter not detected by the fabric")
	}

	// Control: a single switch seeing only one shard must NOT detect.
	single, err := New(plan, pisa.DefaultConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for w := 2; w < g.Windows(); w++ {
		for _, r := range g.WindowRecords(w).Records {
			if shard(r.Data, nSwitches) == 0 {
				single.Process(0, r.Data)
			}
		}
		rep := single.CloseWindow()
		for _, res := range rep.Results {
			for _, tup := range res.Tuples {
				if tup[0].U == uint64(trace.StandardVictim) {
					t.Error("single shard should not cross the threshold")
				}
			}
		}
	}
}

func TestFabricRefinementFansOut(t *testing.T) {
	cfg := trace.DefaultConfig()
	cfg.PacketsPerWindow = 4_000
	cfg.Windows = 5
	cfg.Hosts = 500
	g, err := trace.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g.AddAttack(trace.NewSYNFlood(trace.StandardVictim, 64, 600, 0, g.Duration()))
	plan := buildPlan(t, g, 300)

	// Force a refined plan so updates actually occur; skip if the planner
	// legitimately chose a single level for this workload.
	refined := false
	for _, qp := range plan.Queries {
		if qp.Delay() > 1 {
			refined = true
		}
	}
	fabric, err := New(plan, pisa.DefaultConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	updates := 0
	for w := 2; w < g.Windows(); w++ {
		for _, r := range g.WindowRecords(w).Records {
			fabric.Process(shard(r.Data, 3), r.Data)
		}
		rep := fabric.CloseWindow()
		updates += rep.FilterUpdates
	}
	if refined && updates == 0 {
		t.Error("refined plan produced no fan-out updates")
	}
}

func TestFabricValidation(t *testing.T) {
	cfg := trace.DefaultConfig()
	cfg.PacketsPerWindow = 2_000
	cfg.Windows = 3
	cfg.Hosts = 200
	g, err := trace.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plan := buildPlan(t, g, 100)
	if _, err := New(plan, pisa.DefaultConfig(), 0); err == nil {
		t.Error("zero-switch fabric accepted")
	}
}

// TestOneSwitchFabricMatchesRuntime pins the fabric's refinement gate to the
// runtime's: over the evaluation workload and all eleven queries (joins
// included, where the gate is the left∩right sub-query intersection), a
// fabric with a single vantage point must report the runtime's Results and
// write the same number of filter entries, window by window.
func TestOneSwitchFabricMatchesRuntime(t *testing.T) {
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
	rt, err := runtime.New(plan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fabric, err := New(plan, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	render := func(results []stream.Result) string {
		out := ""
		for _, res := range results {
			out += fmt.Sprintf("q%d/%d %v\n", res.QID, res.Level, res.Tuples)
		}
		return out
	}
	updates := 0
	for i := 0; i < w.Gen.Windows(); i++ {
		frames := w.Frames(i)
		want := rt.ProcessWindow(frames)
		for _, f := range frames {
			fabric.Process(0, f)
		}
		got := fabric.CloseWindow()
		if g, r := render(got.Results), render(want.Results); g != r {
			t.Errorf("window %d results diverged:\n--- runtime\n%s--- fabric\n%s", i, r, g)
		}
		if got.FilterUpdates != want.FilterUpdates {
			t.Errorf("window %d: fabric wrote %d filter entries, runtime %d",
				i, got.FilterUpdates, want.FilterUpdates)
		}
		updates += want.FilterUpdates
	}
	if updates == 0 {
		t.Fatal("workload wrote no filter entries; test is vacuous")
	}
}
