package main

import (
	"encoding/json"
	"io"
	"net"
	"os"
	goruntime "runtime"
	"testing"
	"time"

	"repro/internal/compile"
	"repro/internal/emitter"
	"repro/internal/eval"
	"repro/internal/fields"
	"repro/internal/keytab"
	"repro/internal/packet"
	"repro/internal/pisa"
	"repro/internal/planner"
	"repro/internal/queries"
	"repro/internal/query"
	"repro/internal/runtime"
	"repro/internal/stream"
	"repro/internal/subscribe"
	"repro/internal/telemetry"
	"repro/internal/tracez"
	"repro/internal/tuple"
)

// TestAllocBudget is the gating side of `make bench-alloc`: each hot path
// runs under testing.AllocsPerRun and must not exceed the budget checked in
// as alloc_budget.json. Every budget but RuntimeWindowClose, PlannerTrain and
// PlanQueries is zero; those three are measured counts — of what a window's
// report and refinement rule sets allocate, of one training pass and of one
// planning pass. Tightening or relaxing one is a reviewed change to the JSON
// file, not a silent drift.
func TestAllocBudget(t *testing.T) {
	raw, err := os.ReadFile("alloc_budget.json")
	if err != nil {
		t.Fatal(err)
	}
	budgets := make(map[string]float64)
	if err := json.Unmarshal(raw, &budgets); err != nil {
		t.Fatal(err)
	}
	checkRuns := func(name string, runs int, fn func()) {
		t.Helper()
		budget, ok := budgets[name]
		if !ok {
			t.Fatalf("alloc_budget.json has no budget for %q", name)
		}
		if allocs := testing.AllocsPerRun(runs, fn); allocs > budget {
			t.Errorf("%s: %.1f allocs/op exceeds budget of %.0f", name, allocs, budget)
		}
	}
	check := func(name string, fn func()) {
		t.Helper()
		checkRuns(name, 200, fn)
	}

	// Data plane as deployed: a 256-view batch through the batched walk with
	// a populated dynamic filter and warm banks. Selections, columns, key
	// scratch and the emit pass's rows are all reused, and the per-instance
	// op counts are bulk adds.
	pre := pisa.NewPrescreen()
	dsw, views := allocBudgetDeployedSwitch(t, pre)
	dsw.ProcessViews(views) // warm: scratch grows to the batch, keys insert
	check("SwitchProcessViewsDeployed", func() { dsw.ProcessViews(views) })

	// The dispatch side of the same batch: runnable bitmap, the header-field
	// columns of the three instances' fields, one bitmap per leading-filter
	// atom — into masks that are reused batch after batch.
	var masks pisa.PrescreenMasks
	pre.Eval(views, &masks) // warm: columns and bitmaps grow to the batch
	check("PrescreenEval", func() { pre.Eval(views, &masks) })

	// Monitoring port as deployed: the same kind of batch through All-SP
	// instances, so every runnable frame crosses to the stream processor once
	// per instance — handed over a mirror batch at a time, adopted once per
	// view into the emitter's scratch, filtered and mapped straight into the
	// engines' column batches and folded into warm keys.
	msw, mviews := allocBudgetMirrorBoundary(t)
	for i := 0; i < 2; i++ { // warm: half the frames pass each filter, so two batches make the first flush
		msw.ProcessViews(mviews)
	}
	check("MirrorBatchIngest", func() { msw.ProcessViews(mviews) })

	// Monitoring port, wire codec: encode + decode of a mirror record
	// through reused buffers.
	m := pisa.Mirror{QID: 1, Level: 32, EntryOp: 2,
		Vals: []tuple.Value{tuple.U64(0xC0A80101), tuple.U64(1)}}
	var buf []byte
	var dec emitter.MirrorDecoder
	var out pisa.Mirror
	buf = emitter.EncodeMirror(buf[:0], &m)
	if err := dec.Decode(buf, &out); err != nil {
		t.Fatal(err)
	}
	check("EmitterRoundTrip", func() {
		buf = emitter.EncodeMirror(buf[:0], &m)
		if err := dec.Decode(buf, &out); err != nil {
			t.Fatal(err)
		}
	})

	// Keyed state on populated tables, a numeric key raw in its slot and a
	// string one tagged: a batch's keys resolved in one UpsertRows pass, and
	// a row-major GetOrInsert hit (a register dump's merge).
	vals := []tuple.Value{tuple.U64(7), tuple.Str("x")}
	keyCols := []tuple.Column{{U: []uint64{7, 8}}, {V: []tuple.Value{vals[1], tuple.Str("y")}}}
	keyIdx, keyRows, keyIdxs := []int{0, 1}, []int32{0, 1}, make([]int32, 2)
	tabs := []*keytab.Table{keytab.New([]bool{false}), keytab.New([]bool{false, true})}
	for w, tab := range tabs {
		tab.UpsertRows(keyCols, keyIdx[:w+1], keyRows, keyIdxs)
	}
	check("KeytabSteadyState", func() {
		for w, tab := range tabs {
			tab.UpsertRows(keyCols, keyIdx[:w+1], keyRows, keyIdxs)
			idx, existed := tab.GetOrInsert(vals[:w+1], nil, 1)
			if !existed || idx != int(keyIdxs[0]) {
				t.Fatal("warm key missing")
			}
			tab.SetAgg(idx, tab.Agg(idx)+1)
		}
	})

	// Stream processor: tuple ingest folding into an existing reduce key.
	eng := allocBudgetEngine(t)
	tvals := []tuple.Value{tuple.U64(42), tuple.U64(1)}
	eng.Instance(1, 0).IngestTuple(stream.SideLeft, tvals)
	check("EngineReduceHit", func() { eng.Instance(1, 0).IngestTuple(stream.SideLeft, tvals) })

	// Batched ingest: tuples buffered into the column-major batch and flushed
	// through filter+map+reduce. Each run crosses a flush boundary (300 rows
	// against a 256-row batch), so the budget covers both the append path and
	// the columnar flush with its bitmap, map-buffer, and bulk-probe scratch.
	mvals := []tuple.Value{tuple.U64(9), tuple.U64(42), tuple.U64(1)}
	bEng := allocBudgetMapEngine(t)
	for w := 0; w < 2; w++ {
		for i := 0; i < 600; i++ {
			mvals[0] = tuple.U64(uint64(i % 16))
			bEng.Instance(1, 0).IngestTuple(stream.SideLeft, mvals)
		}
		bEng.EndWindow()
	}
	check("EngineBatchedIngest", func() {
		for i := 0; i < 300; i++ {
			mvals[0] = tuple.U64(uint64(i % 16))
			bEng.Instance(1, 0).IngestTuple(stream.SideLeft, mvals)
		}
	})

	// Window close of join instances: a tuple-entered inner and left-outer
	// join whose right outputs are indexed in a reused keytab and whose
	// joined rows are built in one scratch row, over warm state, results and
	// per-query counts the engine hands out again next window.
	closeJoins := allocBudgetJoinEngine(t)
	for i := 0; i < 3; i++ {
		closeJoins()
	}
	check("EngineJoinClose", closeJoins)

	// The whole window close of the deployed shape: the header queries'
	// Sonata plan on one shard over a small fixed window, replayed into
	// warm state, then dump, decode, evaluation, refinement update and the
	// report. What is left is the report itself and the rule sets the
	// refinement publishes, not the join or the per-packet work.
	closeRuntime := allocBudgetRuntimeWindow(t)
	for i := 0; i < 3; i++ {
		closeRuntime()
	}
	check("RuntimeWindowClose", closeRuntime)

	// Result delivery: one window published through the subscription server
	// with a stalled drop-oldest subscriber and a draining one. Encode-once
	// into pooled frames plus drop-oldest recycling keeps the publish path
	// allocation-free once the frame buffers and dedup maps are warm. The
	// stalled subscriber's writer sits blocked in a pipe write; the draining
	// one's runs during the measurement, taking each window's frames in one
	// exchange and writing them to io.Discard, and allocates nothing either.
	// AllocsPerRun measures at GOMAXPROCS 1, so each run yields after
	// Publish: the woken writer drains the window and parks on its next
	// wake-up before the run returns, as it would on a core of its own.
	srv := subscribe.NewServer()
	srv.Instrument(telemetry.NewRegistry())
	defer srv.Close()
	stalled, peer := net.Pipe() // nobody reads: the writer blocks on its first frame
	defer peer.Close()
	defer stalled.Close() // unblocks (and evicts) the writer before srv.Close
	if _, err := srv.Attach(stalled, subscribe.SubscribeRequest{
		Mode: subscribe.Sample, Policy: subscribe.DropOldest, AllLevels: true, QueueCap: 4,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Attach(io.Discard, subscribe.SubscribeRequest{
		Mode: subscribe.Sample, Policy: subscribe.DropOldest, AllLevels: true,
	}); err != nil {
		t.Fatal(err)
	}
	rep := allocBudgetReport()
	publish := func() {
		srv.Publish(rep)
		goruntime.Gosched()
	}
	for i := 0; i < 4; i++ {
		publish() // warm: grow every circulating frame buffer, fill the stalled queue
	}
	check("SubscribePublish", publish)

	// Trace scoring: one window's span tree, written into a reused slice as
	// the runtime's close does, handed to CloseWindow with retention
	// disabled. The tree is copied only when retained, so the steady state
	// scores it without touching the heap.
	tzr := tracez.New(tracez.Options{HeadEvery: -1, MinWindows: 1 << 30})
	spans := make([]tracez.Span, 8)
	for i := range spans {
		spans[i] = tracez.Span{ID: uint32(i + 1), Parent: 1, Name: tracez.NameOpEval,
			QID: 1, Level: 32, DurNS: 1_000_000}.With(tracez.AttrTuplesIn, 17)
	}
	spans[0].Parent, spans[0].Name = 0, tracez.NameWindow
	win := 0
	record := func() {
		for i := range spans {
			spans[i].Window = int32(win)
		}
		tzr.CloseWindow(win, spans)
		win++
	}
	record() // warm: estimator buckets
	check("TraceRecord", record)

	// Planner training, the start-up and re-plan cost: not a zero-alloc
	// path — every window's batch, every profile and the learned result are
	// fresh — so its budget is the measured count, a ceiling that catches a
	// run, a window copy or a per-row allocation coming back. A pass takes
	// about 0.1 s, so it is measured over a few runs.
	checkRuns("PlannerTrain", 3, allocBudgetTrain(t))

	// Plan selection over the same trained queries at the default menu: each
	// refinement edge priced once, candidates built for each mode's cheapest
	// 48 combinations only, trial programs reusing each edge's augmented
	// query and pipelines. The plan, its program and every trial program are
	// fresh, so its budget is the measured count too. With 1 Kb of metadata
	// the greedy falls short of every query's cheapest candidate, so the
	// restricted modes' greedies and the capped swap search run as well.
	checkRuns("PlanQueries", 20, allocBudgetPlan(t, []int{8, 16, 24}, pisa.DefaultConfig()))
	checkRuns("PlanQueriesMeta1Kb", 3, allocBudgetPlan(t, []int{8, 16, 24}, meta1Kb()))
}

// meta1Kb is the default switch with 1 Kb of PHV metadata, a Fig. 8d row.
func meta1Kb() pisa.Config {
	cfg := pisa.DefaultConfig()
	cfg.MetadataBits = 1024
	return cfg
}

// allocBudgetReport fabricates a window report with a coarse and a finest
// instance per query, the shape the fan-out path sees live.
func allocBudgetReport() *runtime.WindowReport {
	mk := func(qid uint16, level uint8, n int) stream.Result {
		res := stream.Result{QID: qid, Level: level,
			Schema: tuple.Schema{fields.DstIP, fields.AggVal}}
		for i := 0; i < n; i++ {
			res.Tuples = append(res.Tuples,
				[]tuple.Value{tuple.U64(uint64(qid)<<24 | uint64(i)), tuple.U64(uint64(level))})
		}
		return res
	}
	rep := &runtime.WindowReport{
		Index:      7,
		Results:    []stream.Result{mk(1, 32, 6), mk(2, 16, 3)},
		AllResults: []stream.Result{mk(1, 8, 2), mk(1, 32, 6), mk(2, 16, 3)},
	}
	return rep
}

func allocBudgetQuery() *query.Query {
	q := query.NewBuilder("q1", 3*time.Second).
		Filter(query.Eq(fields.TCPFlags, fields.FlagSYN)).
		Map(query.F(fields.DstIP), query.ConstCol(1)).
		Reduce(query.AggSum, fields.DstIP).
		Filter(query.Gt(fields.AggVal, 40)).
		MustBuild()
	q.ID = 1
	return q
}

// allocBudgetDeployedSwitch builds the deployed shape of the data plane — a
// coarse instance, its refined sibling behind a populated dynamic filter,
// and a mid-pipeline distinct that mirrors per tuple — plus one parsed
// 256-frame batch that exercises each of them.
func allocBudgetDeployedSwitch(t testing.TB, ps *pisa.Prescreen) (*pisa.Switch, []pisa.View) {
	instance := func(q *query.Query, level uint8, cut int) *pisa.InstanceSpec {
		pipe := compile.CompilePipeline(q.Left.Ops)
		spec := &pisa.InstanceSpec{QID: q.ID, Level: level, Ops: q.Left.Ops, Tables: pipe.Tables,
			CutAt: cut, StageOf: make([]int, len(pipe.Tables)), RegEntries: make([]int, len(pipe.Tables))}
		for i := range pipe.Tables {
			spec.StageOf[i] = i
			if pipe.Tables[i].Stateful {
				spec.RegEntries[i] = 1 << 10
			}
		}
		return spec
	}
	coarse := allocBudgetQuery()
	refined := allocBudgetQuery()
	refined.Left.Ops = append([]query.Op{query.NewDynPacketFilter("q1.r16", fields.DstIP, 8)}, refined.Left.Ops...)
	spread := query.NewBuilder("spread", 3*time.Second).
		Map(query.F(fields.SrcIP), query.F(fields.DstIP)).
		Distinct().
		Map(query.C(fields.SrcIP), query.ConstCol(1)).
		Reduce(query.AggSum, fields.SrcIP).
		MustBuild()
	spread.ID = 2
	prog := &pisa.Program{Instances: []*pisa.InstanceSpec{
		instance(coarse, 8, 4), instance(refined, 16, 5), instance(spread, 32, 4)}}
	sw, err := pisa.NewSwitchShared(pisa.DefaultConfig(), prog, nil, ps)
	if err != nil {
		t.Fatal(err)
	}
	key := query.MaskValue(fields.DstIP, tuple.U64(uint64(packet.IPv4Addr(10, 0, 0, 0))), 8)
	if _, err := sw.UpdateDynTable(1, 16, pisa.SideLeft, 0, []tuple.Value{key}); err != nil {
		t.Fatal(err)
	}
	parser := packet.NewParser(packet.ParserOptions{})
	views := make([]pisa.View, 256)
	for i := range views {
		flags := uint8(fields.FlagSYN)
		if i%3 == 0 {
			flags = fields.FlagACK
		}
		views[i].Prepare(parser, packet.BuildFrame(nil, &packet.FrameSpec{
			SrcIP: uint32(1 + i%17), DstIP: packet.IPv4Addr(byte(10+i%2), 0, 0, byte(i%29)),
			Proto: 6, DstPort: 80, TCPFlags: flags, Pad: 128}))
	}
	return sw, views
}

// allocBudgetMirrorBoundary builds the All-SP shape of the monitoring port —
// a switch with nothing installed but the mirrors of a reduce, a distinct
// and both sides of a join, wired to an emitter as its batch sink, the
// engine behind it holding the whole queries — plus one parsed 256-frame
// batch of non-DNS traffic.
func allocBudgetMirrorBoundary(t testing.TB) (*pisa.Switch, []pisa.View) {
	spread := query.NewBuilder("spread", 3*time.Second).
		Map(query.F(fields.SrcIP), query.F(fields.DstIP)).
		Distinct().
		Map(query.C(fields.SrcIP), query.ConstCol(1)).
		Reduce(query.AggSum, fields.SrcIP).
		MustBuild()
	acks := query.NewBuilder("acks", 3*time.Second).
		Filter(query.Eq(fields.TCPFlags, fields.FlagACK)).
		Map(query.F(fields.DstIP), query.ConstCol(1)).
		Reduce(query.AggSum, fields.DstIP)
	flood := query.NewBuilder("flood", 3*time.Second).
		Filter(query.Eq(fields.TCPFlags, fields.FlagSYN)).
		Map(query.F(fields.DstIP), query.ConstCol(1)).
		Reduce(query.AggSum, fields.DstIP).
		OuterJoin(acks, fields.DstIP).
		Map(query.C(fields.DstIP), query.Diff(fields.AggVal, fields.AggVal2)).
		MustBuild()
	qs := []*query.Query{allocBudgetQuery(), spread, flood}
	engine := stream.NewEngine(nil)
	prog := &pisa.Program{}
	for i, q := range qs {
		q.ID = uint16(i + 1)
		if err := engine.Install(q, 0, stream.Partition{}); err != nil {
			t.Fatal(err)
		}
		prog.Instances = append(prog.Instances, &pisa.InstanceSpec{QID: q.ID, Ops: q.Left.Ops})
		if q.HasJoin() {
			prog.Instances = append(prog.Instances, &pisa.InstanceSpec{QID: q.ID, Side: pisa.SideRight, Ops: q.Right.Ops})
		}
	}
	sw, err := pisa.NewSwitchShared(pisa.DefaultConfig(), prog, emitter.New(engine), nil)
	if err != nil {
		t.Fatal(err)
	}
	parser := packet.NewParser(packet.ParserOptions{})
	views := make([]pisa.View, 256)
	for i := range views {
		views[i].Prepare(parser, packet.BuildFrame(nil, &packet.FrameSpec{
			SrcIP: uint32(1 + i%17), DstIP: packet.IPv4Addr(10, 0, 0, byte(i%29)),
			Proto: 6, DstPort: 80, TCPFlags: []uint8{fields.FlagSYN, fields.FlagACK}[i%2], Pad: 128}))
	}
	return sw, views
}

// allocBudgetJoinEngine installs the SYN-flood shape twice — SYNs per host
// minus ACKs per host, as an inner and as a left-outer join — with both
// sides' tuples entering at their reduces, and returns one window of it:
// overlapping keys ingested into both sides, then EndWindow.
func allocBudgetJoinEngine(t testing.TB) func() {
	eng := stream.NewEngine(nil)
	for i, outer := range []bool{false, true} {
		side := func(flag uint64) *query.Builder {
			return query.NewBuilder("side", 3*time.Second).
				Filter(query.Eq(fields.TCPFlags, flag)).
				Map(query.F(fields.DstIP), query.ConstCol(1)).
				Reduce(query.AggSum, fields.DstIP)
		}
		b := side(fields.FlagSYN)
		if outer {
			b = b.OuterJoin(side(fields.FlagACK), fields.DstIP)
		} else {
			b = b.Join(side(fields.FlagACK), fields.DstIP)
		}
		q := b.Map(query.C(fields.DstIP), query.Diff(fields.AggVal, fields.AggVal2)).MustBuild()
		q.ID = uint16(i + 1)
		if err := eng.Install(q, 0, stream.Partition{LeftStart: 2, RightStart: 2}); err != nil {
			t.Fatal(err)
		}
	}
	vals := make([]tuple.Value, 2)
	return func() {
		for qid := uint16(1); qid <= 2; qid++ {
			inst := eng.Instance(qid, 0)
			for i := 0; i < 64; i++ {
				vals[0], vals[1] = tuple.U64(uint64(i%24)), tuple.U64(1)
				inst.IngestTuple(stream.SideLeft, vals)
				vals[0] = tuple.U64(uint64(8 + i%24))
				inst.IngestTuple(stream.SideRight, vals)
			}
		}
		eng.EndWindow()
	}
}

// allocBudgetRuntimeWindow deploys the header queries' Sonata plan, trained
// on a small fixed trace, on one shard and returns one window of it: the
// trace's first evaluation window replayed, then Runtime.CloseWindow.
func allocBudgetRuntimeWindow(t testing.TB) func() {
	scale := eval.Scale{PacketsPerWindow: 2_000, Windows: 3, TrainWindows: 2, Hosts: 300, Seed: 1}
	w, err := eval.NewWorkload(scale)
	if err != nil {
		t.Fatal(err)
	}
	qs := queries.TopEight(eval.ScaledParams(scale))
	tr, err := planner.Train(qs, []int{8, 16, 24}, w.TrainingFrames())
	if err != nil {
		t.Fatal(err)
	}
	cfg := pisa.DefaultConfig()
	plan, err := planner.PlanQueries(tr, qs, cfg, planner.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rt, err := runtime.NewWithOptions(plan, cfg, runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	frames := w.Frames(w.EvalWindowIndices()[0])
	return func() {
		for _, f := range frames {
			rt.Process(f)
		}
		rt.CloseWindow()
	}
}

// allocBudgetTrain returns one training pass of the header queries over two
// windows of about 10k packets, generated once.
func allocBudgetTrain(t testing.TB) func() {
	scale := eval.Scale{PacketsPerWindow: 10_000, Windows: 3, TrainWindows: 2, Hosts: 1_000, Seed: 1}
	w, err := eval.NewWorkload(scale)
	if err != nil {
		t.Fatal(err)
	}
	qs := queries.TopEight(eval.ScaledParams(scale))
	windows := w.TrainingFrames()
	return func() {
		if _, err := planner.Train(qs, []int{8, 16, 24}, windows); err != nil {
			t.Fatal(err)
		}
	}
}

// allocBudgetPlan trains the header queries on the same two windows as
// allocBudgetTrain, once, under the level menu, and returns one planning pass
// of them for the switch.
func allocBudgetPlan(t testing.TB, menu []int, cfg pisa.Config) func() {
	scale := eval.Scale{PacketsPerWindow: 10_000, Windows: 3, TrainWindows: 2, Hosts: 1_000, Seed: 1}
	w, err := eval.NewWorkload(scale)
	if err != nil {
		t.Fatal(err)
	}
	qs := queries.TopEight(eval.ScaledParams(scale))
	tr, err := planner.Train(qs, menu, w.TrainingFrames())
	if err != nil {
		t.Fatal(err)
	}
	return func() {
		if _, err := planner.PlanQueries(tr, qs, cfg, planner.DefaultOptions()); err != nil {
			t.Fatal(err)
		}
	}
}

func allocBudgetEngine(t testing.TB) *stream.Engine {
	eng := stream.NewEngine(nil)
	if err := eng.Install(allocBudgetQuery(), 0, stream.Partition{LeftStart: 2}); err != nil {
		t.Fatal(err)
	}
	return eng
}

// allocBudgetMapEngine installs a chain whose tuple-phase section starts
// with a map, so ingest exercises the columnar map buffers before folding
// into the reduce.
func allocBudgetMapEngine(t testing.TB) *stream.Engine {
	q := query.NewBuilder("qm", 3*time.Second).
		Filter(query.Eq(fields.TCPFlags, fields.FlagSYN)).
		Map(query.F(fields.SrcIP), query.F(fields.DstIP), query.ConstCol(1)).
		Map(query.C(fields.DstIP), query.ConstCol(1)).
		Reduce(query.AggSum, fields.DstIP).
		Filter(query.Gt(fields.AggVal, 1<<40)).
		MustBuild()
	q.ID = 1
	eng := stream.NewEngine(nil)
	if err := eng.Install(q, 0, stream.Partition{LeftStart: 2}); err != nil {
		t.Fatal(err)
	}
	return eng
}

// BenchmarkKeytabSteadyState measures the per-tuple cost of a stream
// operator's keyed state once every key exists: a batch of 256 rows resolved
// in one UpsertRows pass, then each row's value folded into its entry's
// aggregate — the inner loop of every reduce.
func BenchmarkKeytabSteadyState(b *testing.B) {
	const keys, rows = 1024, 256
	tab := keytab.New([]bool{false})
	cols := []tuple.Column{{U: make([]uint64, keys)}, {U: make([]uint64, keys)}}
	sel := make([]int32, keys)
	for i := range keys {
		cols[0].U[i], cols[1].U[i], sel[i] = uint64(i), 1, int32(i)
	}
	keyIdx, idxs := []int{0}, make([]int32, keys)
	tab.UpsertRows(cols, keyIdx, sel, idxs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += rows {
		lo := i & (keys - 1)
		batch := sel[lo : lo+rows]
		tab.UpsertRows(cols, keyIdx, batch, idxs)
		for k, idx := range idxs[:rows] {
			tab.SetAgg(int(idx), tab.Agg(int(idx))+cols[1].U[batch[k]])
		}
	}
}
