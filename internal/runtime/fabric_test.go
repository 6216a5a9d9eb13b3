package runtime

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/pisa"
	"repro/internal/planner"
	"repro/internal/query"
	"repro/internal/trace"
)

// fabricWorkload generates a trace whose SYN flood comes from many sources,
// planned for Query 1 at threshold th over its first two windows.
func fabricWorkload(t *testing.T, windows, sources, perWindow int, th uint64) (*trace.Generator, *planner.Plan) {
	t.Helper()
	cfg := trace.DefaultConfig()
	cfg.PacketsPerWindow = 4_000
	cfg.Windows = windows
	cfg.Hosts = 500
	g, err := trace.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g.AddAttack(trace.NewSYNFlood(trace.StandardVictim, sources, perWindow, 0, g.Duration()))
	var train []planner.Frames
	for i := 0; i < 2; i++ {
		train = append(train, planner.Frames(framesOf(g.WindowRecords(i))))
	}
	tr, err := planner.Train([]*query.Query{q1(th)}, []int{8, 16}, train)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := planner.PlanQueries(tr, []*query.Query{q1(th)}, pisa.DefaultConfig(), planner.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return g, plan
}

// vantagePoint routes a frame by source address, splitting any one attack's
// traffic across the vantage points.
func vantagePoint(frame []byte, n int) int {
	var pkt packet.Packet
	if err := packet.NewParser(packet.ParserOptions{}).Parse(frame, &pkt); err != nil {
		return 0
	}
	return int(pkt.IPv4.Src) % n
}

// victimCount reports the victim's merged count in a window's results, and
// whether it was reported at all.
func victimCount(rep *WindowReport) (uint64, bool) {
	for _, res := range rep.Results {
		for _, tup := range res.Tuples {
			if tup[0].U == uint64(trace.StandardVictim) {
				return tup[1].U, true
			}
		}
	}
	return 0, false
}

// TestFabricDetectsSplitHeavyHitter is the headline network-wide property:
// a flood whose sources are spread over vantage points stays below the
// threshold at every single switch but crosses it once merged.
func TestFabricDetectsSplitHeavyHitter(t *testing.T) {
	const vps = 4
	// 600 SYNs per window from many sources: ~150 per switch after routing,
	// threshold 400 — invisible to any single vantage point.
	g, plan := fabricWorkload(t, 4, 256, 600, 400)
	rt, err := NewWithOptions(plan, pisa.DefaultConfig(), Options{VantagePoints: vps})
	if err != nil {
		t.Fatal(err)
	}
	detected := false
	for w := 2; w < g.Windows(); w++ {
		for _, r := range g.WindowRecords(w).Records {
			rt.ProcessAt(vantagePoint(r.Data, vps), r.Data)
		}
		if n, ok := victimCount(rt.CloseWindow()); ok {
			detected = true
			if n < 400 {
				t.Errorf("merged count %d below threshold", n)
			}
		}
	}
	if !detected {
		t.Fatal("split heavy hitter not detected across the vantage points")
	}

	// Control: a single switch seeing only one vantage point's share must NOT
	// detect.
	single, err := New(plan, pisa.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for w := 2; w < g.Windows(); w++ {
		for _, r := range g.WindowRecords(w).Records {
			if vantagePoint(r.Data, vps) == 0 {
				single.Process(r.Data)
			}
		}
		if _, ok := victimCount(single.CloseWindow()); ok {
			t.Error("single vantage point should not cross the threshold")
		}
	}
}

// TestFabricRefinementFansOut: a refinement update reaches the gated level's
// table on every vantage point's switch, on every shard that runs it.
func TestFabricRefinementFansOut(t *testing.T) {
	const vps = 3
	g, plan := fabricWorkload(t, 5, 64, 600, 300)
	// Updates occur only on a refined plan; the planner may legitimately
	// choose a single level for this workload.
	refined := false
	for _, qp := range plan.Queries {
		if qp.Delay() > 1 {
			refined = true
		}
	}
	rt, err := NewWithOptions(plan, pisa.DefaultConfig(), Options{VantagePoints: vps, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	updates := 0
	for w := 2; w < g.Windows(); w++ {
		for _, r := range g.WindowRecords(w).Records {
			rt.ProcessAt(vantagePoint(r.Data, vps), r.Data)
		}
		updates += rt.CloseWindow().FilterUpdates
	}
	if refined && updates == 0 {
		t.Error("refined plan produced no fan-out updates")
	}
	for i, s := range rt.shards {
		for vp, sw := range s.sws {
			if got, want := sw.TableUpdates(), s.sws[0].TableUpdates(); got != want {
				t.Errorf("shard %d vantage point %d wrote %d table entries, vantage point 0 %d", i, vp, got, want)
			}
		}
	}
}
