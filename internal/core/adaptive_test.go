package core

import (
	goruntime "runtime"
	"testing"
	"time"

	"repro/internal/fields"
	"repro/internal/planner"
	"repro/internal/query"
	"repro/internal/trace"
)

// TestAdaptiveReplanOnTrafficGrowth reproduces the Section 3.3 scenario:
// the planner sizes registers from training traffic; live traffic then
// grows well past the estimate, registers overflow, the collision signal
// fires, and a re-plan with recent windows restores a low collision rate.
func TestAdaptiveReplanOnTrafficGrowth(t *testing.T) {
	// Training trace: light traffic.
	light := trace.DefaultConfig()
	light.PacketsPerWindow = 1_500
	light.Windows = 2
	light.Hosts = 3_000
	lightGen, err := trace.NewGenerator(light)
	if err != nil {
		t.Fatal(err)
	}
	// Live trace: the same shape at 10x the volume (and so ~10x the unique
	// keys for the distinct-based query).
	heavy := light
	heavy.PacketsPerWindow = 15_000
	heavy.Windows = 6
	heavy.Seed = 2
	heavyGen, err := trace.NewGenerator(heavy)
	if err != nil {
		t.Fatal(err)
	}

	q := superspreader()

	s := New(Config{})
	s.Register(q)
	var train []planner.Frames
	for i := 0; i < 2; i++ {
		train = append(train, frames(lightGen, i))
	}
	if err := s.Train(train); err != nil {
		t.Fatal(err)
	}
	ar, err := s.DeployAdaptive(0.01, 2)
	if err != nil {
		t.Fatal(err)
	}

	var sawReplan bool
	var collisionsBefore, collisionsAfter uint64
	for w := 0; w < heavyGen.Windows(); w++ {
		rep, replanned, err := ar.ProcessWindow(frames(heavyGen, w))
		if err != nil {
			t.Fatal(err)
		}
		if !sawReplan {
			// Windows up to and including the one that fired the signal.
			collisionsBefore += rep.Switch.Collisions
		} else {
			collisionsAfter += rep.Switch.Collisions
		}
		if replanned {
			sawReplan = true
		}
	}
	if !sawReplan {
		t.Fatalf("collision signal never triggered a re-plan (before=%d)", collisionsBefore)
	}
	if collisionsBefore == 0 {
		t.Fatal("expected collisions before the re-plan")
	}
	if collisionsAfter*10 > collisionsBefore {
		t.Errorf("re-plan did not restore low collisions: before=%d after=%d",
			collisionsBefore, collisionsAfter)
	}
	if ar.Replans() == 0 {
		t.Error("replan counter did not advance")
	}
}

// superspreader counts distinct (sIP, dIP) pairs: its key population
// scales with traffic volume, which is what breaks the trained sizing.
func superspreader() *query.Query {
	return query.NewBuilder("superspreader", 3*time.Second).
		Map(query.F(fields.SrcIP), query.F(fields.DstIP)).
		Distinct().
		Map(query.C(fields.SrcIP), query.ConstCol(1)).
		Reduce(query.AggSum, fields.SrcIP).
		Filter(query.Gt(fields.AggVal, 5_000)).
		MustBuild()
}

func frames(g *trace.Generator, i int) [][]byte {
	w := g.WindowRecords(i)
	out := make([][]byte, len(w.Records))
	for j, r := range w.Records {
		out[j] = r.Data
	}
	return out
}

// TestAdaptiveReplanReleasesWorkers: every re-plan replaces a deployment
// whose shard workers are persistent goroutines, so the replaced runtime
// must be closed — and Close on the adaptive runtime must stop the last
// one. Traffic grows twice (10x the volume, then 3x again over 10x the
// hosts), each surge overflowing the registers sized for the one before;
// with a threshold any collision passes, that is two re-plans. Afterwards
// the goroutine count is back where it began.
func TestAdaptiveReplanReleasesWorkers(t *testing.T) {
	light := trace.DefaultConfig()
	light.PacketsPerWindow = 1_500
	light.Windows = 2
	light.Hosts = 3_000
	lightGen, err := trace.NewGenerator(light)
	if err != nil {
		t.Fatal(err)
	}
	heavy := light
	heavy.PacketsPerWindow = 15_000
	heavy.Seed = 2
	heavyGen, err := trace.NewGenerator(heavy)
	if err != nil {
		t.Fatal(err)
	}
	surge := heavy
	surge.PacketsPerWindow = 45_000
	surge.Hosts = 30_000
	surge.Seed = 3
	surgeGen, err := trace.NewGenerator(surge)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 2})
	s.Register(superspreader())
	if err := s.Train([]planner.Frames{frames(lightGen, 0), frames(lightGen, 1)}); err != nil {
		t.Fatal(err)
	}
	before := goruntime.NumGoroutine()
	ar, err := s.DeployAdaptive(1e-9, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ar.Runtime().Workers() != 2 {
		t.Fatalf("deployed %d shards, want 2 (the leak needs live workers)", ar.Runtime().Workers())
	}
	for _, g := range []*trace.Generator{heavyGen, surgeGen} {
		for w := 0; w < g.Windows(); w++ {
			if _, _, err := ar.ProcessWindow(frames(g, w)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if ar.Replans() < 2 {
		t.Fatalf("only %d re-plans; the test needs at least two", ar.Replans())
	}
	ar.Close()
	// A joined worker has signalled but may not have exited yet.
	after := goruntime.NumGoroutine()
	for i := 0; after > before && i < 200; i++ {
		time.Sleep(5 * time.Millisecond)
		after = goruntime.NumGoroutine()
	}
	if after != before {
		t.Errorf("%d goroutines after Close, %d before deploy: %d re-plans stranded workers",
			after, before, ar.Replans())
	}
}
