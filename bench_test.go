// Package repro's root benchmarks regenerate each table and figure of the
// paper at a reduced (benchmark-friendly) scale; cmd/eval runs the same
// experiments at full scale. One benchmark per evaluation artifact:
//
//	BenchmarkTable3Compile              — Table 3 (query compilation + codegen)
//	BenchmarkFig3Collisions             — Figure 3 (collision-rate model)
//	BenchmarkFig5Costs                  — Figure 5 (refinement cost matrix)
//	BenchmarkFig7aSingleQuery           — Figure 7a (per-query load, all plan modes)
//	BenchmarkFig7bMultiQuery            — Figure 7b (concurrent queries)
//	BenchmarkFig8Constraints            — Figure 8 (switch-constraint sweeps)
//	BenchmarkFig9CaseStudy              — Figure 9 (Zorro end-to-end)
//	BenchmarkRefinementUpdateOverhead   — Section 6.2 update-cost micro-benchmark
//
// Ablations (design choices DESIGN.md calls out):
//
//	BenchmarkAblationRefinementOnOff    — Sonata with vs without refinement
//	BenchmarkAblationRegisterChains     — d = 1 vs d = 3 collision shunting
//	BenchmarkAblationPlannerILP         — greedy packer vs ILP plan selection
//
// Micro-benchmarks of the hot paths alloc_budget.json pins (`make bench-alloc`):
//
//	BenchmarkSwitchProcess              — data-plane packets/second
//	BenchmarkSwitchProcessViewsProbed   — the batched, probed data plane, per 256-view batch
//	BenchmarkEngineIngest               — stream-processor tuples/second
//	BenchmarkMirrorBatchIngest          — the switch→SP batch hand-off, per 256-view batch
//	BenchmarkEmitterRoundTrip           — the wire codec on one tuple record
//	BenchmarkKeytabSteadyState          — keyed-state probe/insert at steady capacity
//	BenchmarkEngineJoinClose            — one window of an inner and a left-outer join, close included
//	BenchmarkRuntimeWindowClose         — one small window of the header queries' Sonata plan, close included
//	BenchmarkPlannerTrain               — training the header queries on two 10k-packet windows
//	BenchmarkPlanQueries                — planning the trained header queries, per level menu
//
// End-to-end throughput of the window loop is the harness's job: go run ./bench.
package main

import (
	goruntime "runtime"
	"testing"
	"time"

	"repro/internal/compile"
	"repro/internal/emitter"
	"repro/internal/eval"
	"repro/internal/fields"
	"repro/internal/packet"
	"repro/internal/pisa"
	"repro/internal/planner"
	"repro/internal/queries"
	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/tuple"
)

func benchScale() eval.Scale {
	return eval.Scale{PacketsPerWindow: 4_000, Windows: 5, TrainWindows: 2, Hosts: 500, Seed: 1}
}

func benchWorkload(b *testing.B) *eval.Workload {
	b.Helper()
	w, err := eval.NewWorkload(benchScale())
	if err != nil {
		b.Fatal(err)
	}
	return w
}

func BenchmarkTable3Compile(b *testing.B) {
	p := queries.DefaultParams()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := eval.Table3(p, []int{8, 16, 24})
		if len(t.Rows) != 11 {
			b.Fatal("table 3 incomplete")
		}
	}
}

func BenchmarkFig3Collisions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := eval.Fig3()
		if len(t.Rows) == 0 {
			b.Fatal("fig 3 empty")
		}
	}
}

func BenchmarkFig5Costs(b *testing.B) {
	w := benchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Fig5(w, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7aSingleQuery(b *testing.B) {
	w := benchWorkload(b)
	cfg := pisa.DefaultConfig()
	params := eval.ScaledParams(benchScale())
	// One representative query per iteration keeps the benchmark honest
	// about per-run cost; cmd/eval produces the full 8x5 grid.
	q := queries.NewlyOpenedTCPConns(params)
	q.ID = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := eval.NewExperiment(w, []*query.Query{q})
		if _, err := e.AllModes(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7bMultiQuery(b *testing.B) {
	w := benchWorkload(b)
	cfg := pisa.DefaultConfig()
	params := eval.ScaledParams(benchScale())
	// The full concurrent query set, as in the paper's Figure 7b.
	qs := queries.TopEight(params)
	run := func(b *testing.B, workers int) {
		b.Helper()
		// Warm-up: one full experiment outside the timer primes the page
		// cache, the allocator, and every per-package pool, so the timed
		// iterations measure the steady-state replay rather than first-touch
		// costs.
		{
			e := eval.NewExperiment(w, qs)
			e.Workers = workers
			if _, err := e.Run(cfg, planner.ModeSonata); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e := eval.NewExperiment(w, qs)
			e.Workers = workers
			res, err := e.Run(cfg, planner.ModeSonata)
			if err != nil {
				b.Fatal(err)
			}
			if workers > 1 {
				// Achievable speedup from measured shard busy times: total
				// work over critical path. Wall-clock ns/op only reflects it
				// when the host has as many free cores as shards.
				b.ReportMetric(res.SpeedupPotential(), "speedup-potential")
			}
		}
	}
	// The sharded worker count follows GOMAXPROCS, so `-cpu 1,4,8` sweeps
	// shard counts while `sequential` stays the single-goroutine baseline.
	b.Run("sequential", func(b *testing.B) { run(b, 1) })
	b.Run("sharded", func(b *testing.B) { run(b, goruntime.GOMAXPROCS(0)) })
}

func BenchmarkFig8Constraints(b *testing.B) {
	w := benchWorkload(b)
	params := eval.ScaledParams(benchScale())
	qs := queries.TopEight(params)[:3]
	e := eval.NewExperiment(w, qs)
	if _, err := e.Training(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// One sweep point per iteration: a stage-starved switch.
		cfg := pisa.DefaultConfig()
		cfg.Stages = 4
		if _, err := e.Run(cfg, planner.ModeSonata); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9CaseStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := eval.CaseStudy(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if res.AttackConfirmedWindow < 0 {
			b.Fatal("attack not confirmed")
		}
	}
}

func BenchmarkRefinementUpdateOverhead(b *testing.B) {
	// The Section 6.2 micro-benchmark: time to replace ~200 dynamic filter
	// entries on the switch at a window boundary.
	q := query.NewBuilder("q1", 3*time.Second).
		Filter(query.Eq(fields.TCPFlags, fields.FlagSYN)).
		Map(query.F(fields.DstIP), query.ConstCol(1)).
		Reduce(query.AggSum, fields.DstIP).
		Filter(query.Gt(fields.AggVal, 40)).
		MustBuild()
	q.ID = 1
	key, _ := query.QueryRefinementKey(q)
	aug := planner.AugmentQuery(q, key, 16, 32, planner.Thresholds{})
	pipe := compile.CompilePipeline(aug.Left.Ops)
	spec := &pisa.InstanceSpec{QID: 1, Level: 32, Ops: aug.Left.Ops, Tables: pipe.Tables,
		CutAt: len(pipe.Tables), StageOf: []int{0, 1, 2, 3, 4},
		RegEntries: []int{0, 0, 0, 0, 4096}}
	sw, err := pisa.NewSwitch(pisa.DefaultConfig(), &pisa.Program{Instances: []*pisa.InstanceSpec{spec}}, nil)
	if err != nil {
		b.Fatal(err)
	}
	keys := make([]string, 200)
	for i := range keys {
		keys[i] = stream.DynKeyFromValue(fields.DstIP, tuple.U64(uint64(i)<<16), 16)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sw.UpdateDynTable(1, 32, pisa.SideLeft, 0, keys); err != nil {
			b.Fatal(err)
		}
		sw.EndWindow() // includes the register reset the paper also times
	}
}

func BenchmarkAblationRefinementOnOff(b *testing.B) {
	w := benchWorkload(b)
	cfg := pisa.DefaultConfig()
	// Constrain the switch so refinement actually matters.
	cfg.RegisterBitsPerStage = 1 << 18
	cfg.MaxRegisterBitsPerOp = 1 << 17
	params := eval.ScaledParams(benchScale())
	qs := queries.TopEight(params)[:3]
	e := eval.NewExperiment(w, qs)
	if _, err := e.Training(); err != nil {
		b.Fatal(err)
	}
	b.Run("with-refinement", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := e.Run(cfg, planner.ModeSonata)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.MeanTuples(), "tuples/window")
		}
	})
	b.Run("without-refinement", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := e.Run(cfg, planner.ModeMaxDP)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.MeanTuples(), "tuples/window")
		}
	})
}

func BenchmarkAblationRegisterChains(b *testing.B) {
	for _, d := range []int{1, 3} {
		b.Run(chainName(d), func(b *testing.B) {
			w := benchWorkload(b)
			cfg := pisa.DefaultConfig()
			cfg.RegisterChains = d
			params := eval.ScaledParams(benchScale())
			qs := queries.TopEight(params)[:3]
			e := eval.NewExperiment(w, qs)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := e.Run(cfg, planner.ModeSonata)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Collisions), "collisions")
			}
		})
	}
}

func chainName(d int) string {
	return "d=" + string(rune('0'+d))
}

func BenchmarkAblationPlannerILP(b *testing.B) {
	w := benchWorkload(b)
	params := eval.ScaledParams(benchScale())
	qs := queries.TopEight(params)[:3]
	tr, err := planner.Train(qs, []int{8, 16, 24}, w.TrainingFrames())
	if err != nil {
		b.Fatal(err)
	}
	cfg := pisa.DefaultConfig()
	b.Run("greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			opts := planner.DefaultOptions()
			if _, err := planner.PlanQueries(tr, qs, cfg, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ilp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			opts := planner.DefaultOptions()
			opts.UseILP = true
			opts.ILPBudget = 2 * time.Second
			if _, err := planner.PlanQueries(tr, qs, cfg, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkSwitchProcess(b *testing.B) {
	q := query.NewBuilder("q1", 3*time.Second).
		Filter(query.Eq(fields.TCPFlags, fields.FlagSYN)).
		Map(query.F(fields.DstIP), query.ConstCol(1)).
		Reduce(query.AggSum, fields.DstIP).
		Filter(query.Gt(fields.AggVal, 40)).
		MustBuild()
	q.ID = 1
	pipe := compile.CompilePipeline(q.Left.Ops)
	spec := &pisa.InstanceSpec{QID: 1, Ops: q.Left.Ops, Tables: pipe.Tables,
		CutAt: len(pipe.Tables), StageOf: []int{0, 1, 2, 3},
		RegEntries: []int{0, 0, 0, 1 << 14}}
	sw, err := pisa.NewSwitch(pisa.DefaultConfig(), &pisa.Program{Instances: []*pisa.InstanceSpec{spec}}, nil)
	if err != nil {
		b.Fatal(err)
	}
	frame := packet.BuildFrame(nil, &packet.FrameSpec{
		SrcIP: 1, DstIP: 2, Proto: 6, DstPort: 80,
		TCPFlags: fields.FlagSYN, Pad: 256})
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw.Process(frame)
	}
}

// BenchmarkSwitchProcessViewsProbed is the data plane as deployed: one
// 256-view batch per iteration through the batched walk, flight-recorder
// probes attached, a populated dynamic filter, warm banks (the shape
// TestAllocBudget pins at zero allocations).
func BenchmarkSwitchProcessViewsProbed(b *testing.B) {
	sw, views := allocBudgetProbedSwitch(b, nil)
	sw.ProcessViews(views)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw.ProcessViews(views)
	}
}

// BenchmarkPrescreenEval is the dispatch side of the same deployment: one
// 256-view batch per iteration through Prescreen.Eval — the runnable bitmap,
// the header-field columns every instance reads, and the leading-filter
// atoms over them (TestAllocBudget pins it at zero allocations).
func BenchmarkPrescreenEval(b *testing.B) {
	pre := pisa.NewPrescreen()
	_, views := allocBudgetProbedSwitch(b, pre)
	var masks pisa.PrescreenMasks
	pre.Eval(views, &masks)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pre.Eval(views, &masks)
	}
}

// BenchmarkEngineIngest runs the stream hot path bare and instrumented; the
// two sub-benchmark numbers bound the telemetry overhead (the acceptance
// bar is <5% regression). The instrumented variant derives tuples/s from a
// registry snapshot diff rather than b.N, proving the counters see every
// tuple the loop pushed.
func BenchmarkEngineIngest(b *testing.B) {
	run := func(b *testing.B, reg *telemetry.Registry) {
		q := query.NewBuilder("q1", 3*time.Second).
			Filter(query.Eq(fields.TCPFlags, fields.FlagSYN)).
			Map(query.F(fields.DstIP), query.ConstCol(1)).
			Reduce(query.AggSum, fields.DstIP).
			Filter(query.Gt(fields.AggVal, 40)).
			MustBuild()
		q.ID = 1
		engine := stream.NewEngine(nil)
		engine.Instrument(reg)
		if err := engine.Install(q, 0, stream.Partition{LeftStart: 2}); err != nil {
			b.Fatal(err)
		}
		vals := []tuple.Value{tuple.U64(42), tuple.U64(1)}
		before := reg.Snapshot()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			engine.Instance(1, 0).IngestTuple(stream.SideLeft, vals)
			if i%100_000 == 99_999 {
				engine.EndWindow()
			}
		}
		b.StopTimer()
		if reg != nil {
			diff := reg.Snapshot().Diff(before)
			tuples := diff.Counter("sonata_stream_tuples_in_total")
			if tuples != uint64(b.N) {
				b.Fatalf("registry saw %d tuples, loop pushed %d", tuples, b.N)
			}
			b.ReportMetric(float64(tuples)/b.Elapsed().Seconds(), "tuples/s")
		}
	}
	b.Run("bare", func(b *testing.B) { run(b, nil) })
	b.Run("instrumented", func(b *testing.B) { run(b, telemetry.NewRegistry()) })
}

// BenchmarkMirrorBatchIngest is the monitoring port as deployed: one
// 256-view batch per iteration from the batched walk through the emitter's
// batch hand-off into warm All-SP-shaped engine instances (the shape
// TestAllocBudget pins at zero allocations). Four pipelines mirror every
// frame, so one iteration delivers 1,024 packets to the stream processor.
func BenchmarkMirrorBatchIngest(b *testing.B) {
	sw, views := allocBudgetMirrorBoundary(b)
	for i := 0; i < 2; i++ { // the engines' column batches flush every other iteration
		sw.ProcessViews(views)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw.ProcessViews(views)
	}
}

// BenchmarkEngineJoinClose is the stream processor's window close on join
// instances: one window of tuples into both sides of an inner and a
// left-outer join, then EndWindow (TestAllocBudget pins it at zero
// allocations).
func BenchmarkEngineJoinClose(b *testing.B) {
	window := allocBudgetJoinEngine(b)
	window()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		window()
	}
}

// BenchmarkRuntimeWindowClose is one small window of the deployed shape end
// to end — the header queries' Sonata plan on one shard, a 2,000-packet
// window replayed and closed — whose allocations TestAllocBudget bounds.
func BenchmarkRuntimeWindowClose(b *testing.B) {
	window := allocBudgetRuntimeWindow(b)
	window()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		window()
	}
}

// BenchmarkPlannerTrain is the planner's training pass as the deployment
// pays it at start-up and at every re-plan: the header queries over two
// training windows of about 10k packets (TestAllocBudget caps its
// allocations).
func BenchmarkPlannerTrain(b *testing.B) {
	train := allocBudgetTrain(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		train()
	}
}

// BenchmarkPlanQueries is plan selection as the deployment pays it at
// start-up and at every re-plan: the header queries, trained once on two
// 10k-packet windows, planned for the default switch. One sub-benchmark per
// level menu: the repo's default and the paper's {4, 8, …, 28}
// (TestAllocBudget caps the default menu's allocations).
func BenchmarkPlanQueries(b *testing.B) {
	for _, menu := range []struct {
		name   string
		levels []int
	}{
		{"menu=8-16-24", []int{8, 16, 24}},
		{"menu=paper", []int{4, 8, 12, 16, 20, 24, 28}},
	} {
		b.Run(menu.name, func(b *testing.B) {
			plan := allocBudgetPlan(b, menu.levels)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				plan()
			}
		})
	}
}

// BenchmarkEmitterRoundTrip is the wire codec — the reference path across
// the monitoring port — on one tuple record.
func BenchmarkEmitterRoundTrip(b *testing.B) {
	m := pisa.Mirror{QID: 1, Level: 32, EntryOp: 2,
		Vals: []tuple.Value{tuple.U64(0xC0A80101), tuple.U64(1)}}
	var buf []byte
	var dec emitter.MirrorDecoder
	var out pisa.Mirror
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = emitter.EncodeMirror(buf[:0], &m)
		if err := dec.Decode(buf, &out); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	// Steady-state allocation bound: the encode buffer and the decoder's
	// value buffer are both reused, so the round trip is allocation-free.
	allocs := testing.AllocsPerRun(100, func() {
		buf = emitter.EncodeMirror(buf[:0], &m)
		if err := dec.Decode(buf, &out); err != nil {
			b.Fatal(err)
		}
	})
	if allocs != 0 {
		b.Fatalf("round trip allocates %.1f per op, want 0", allocs)
	}
}
