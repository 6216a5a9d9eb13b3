package pisa_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/emitter"
	"repro/internal/eval"
	"repro/internal/packet"
	"repro/internal/pisa"
	"repro/internal/planner"
	"repro/internal/queries"
	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/tuple"
)

// fullPlan is the small-scale evaluation workload (background traffic plus
// the standard attack suite) and all eleven queries planned over it, trained
// and planned as the runtime's differential tests do — except that the
// switch program's registers are cut to a sixteenth of their planned size,
// so that on this workload banks overflow and collision shunts cross the
// monitoring port too.
func fullPlan(t *testing.T) (*eval.Workload, *planner.Plan) {
	t.Helper()
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
	plan, err := planner.PlanQueries(tr, qs, pisa.DefaultConfig(), planner.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	prog := &pisa.Program{}
	for _, spec := range plan.Program.Instances {
		c := *spec
		c.RegEntries = make([]int, len(spec.RegEntries))
		for j, n := range spec.RegEntries {
			c.RegEntries[j] = (n + 15) / 16
		}
		prog.Instances = append(prog.Instances, &c)
	}
	plan.Program = prog
	return w, plan
}

// planEngine installs every level of the plan into a stream engine, each
// resuming where its switch-side cut ends.
func planEngine(t *testing.T, plan *planner.Plan) (*stream.Engine, *stream.DynTables) {
	t.Helper()
	dyn := stream.NewDynTables()
	engine := stream.NewEngine(dyn)
	for _, qp := range plan.Queries {
		for _, lp := range qp.Levels {
			part := stream.Partition{LeftStart: lp.Left.Pipe.EntryFor(lp.Left.Cut).StartOp}
			if lp.Right != nil {
				part.RightStart = lp.Right.Pipe.EntryFor(lp.Right.Cut).StartOp
			}
			if err := engine.Install(lp.Aug, uint8(lp.Level), part); err != nil {
				t.Fatal(err)
			}
		}
	}
	return engine, dyn
}

// refine publishes, for every refinement edge of the plan, the keys the
// coarser level reported this window as what the finer level admits next
// window — in the stream processor's filter and every switch's — as the
// runtime's window close does (a join's keys here are the union of what its
// outputs carry).
func refine(plan *planner.Plan, results []stream.Result, dyn *stream.DynTables, switches ...*pisa.Switch) {
	for _, qp := range plan.Queries {
		f := qp.Key.Field
		for li := 0; li+1 < len(qp.Levels); li++ {
			from, to := qp.Levels[li].Level, qp.Levels[li+1].Level
			var keys []string
			add := func(rows [][]tuple.Value, schema tuple.Schema) {
				if col := schema.Index(f); col >= 0 {
					for _, row := range rows {
						keys = append(keys, stream.DynKeyFromValue(f, row[col], from))
					}
				}
			}
			for _, res := range results {
				if res.QID == qp.Query.ID && int(res.Level) == from {
					add(res.Tuples, res.Schema)
					add(res.LeftOutputs, res.LeftSchema)
					add(res.RightOutputs, res.RightSchema)
				}
			}
			set := query.NewDynSet(keys)
			dyn.Publish(planner.DynTableName(qp.Query.ID, to), set)
			for _, sw := range switches {
				for _, side := range []pisa.Side{pisa.SideLeft, pisa.SideRight} {
					if tab, err := sw.DynTable(qp.Query.ID, uint8(to), side, 0); err == nil && tab != nil {
						tab.Publish(set)
					}
				}
			}
		}
	}
}

// walkRecords keeps each instance's records in emission order.
type walkRecords map[string][]string

func (r walkRecords) HandleMirror(m pisa.Mirror) {
	name := fmt.Sprintf("q%d/r%d/s%d", m.QID, m.Level, m.Side)
	r[name] = append(r[name], fmt.Sprintf("ovf=%v merge=%d entry=%d vals=%v parsed=%v pkt=%x",
		m.Overflow, m.MergeOp, m.EntryOp, m.Vals, m.Parsed != nil, m.Packet))
}

func (r walkRecords) HandleMirrorBatch(b *pisa.MirrorBatch) { b.Records(r.HandleMirror) }

// teeSink records each batch's records and hands the batch on to the
// emitter.
type teeSink struct {
	walkRecords
	em *emitter.Emitter
}

func (s teeSink) HandleMirrorBatch(b *pisa.MirrorBatch) {
	b.Records(s.HandleMirror)
	s.em.HandleMirrorBatch(b)
}

// renderWindow renders what a window's walk is observable through besides
// its records: the dumps, the switch counters and the per-instance stats.
// PacketsIn and the prescreen's counters are the batched walk's caller's and
// the batched walk's alone.
func renderWindow(dumps []pisa.RegDump, st pisa.WindowStats) string {
	var b strings.Builder
	for _, d := range dumps {
		fmt.Fprintf(&b, "dump q%d/r%d/s%d merge=%d key=%v val=%d\n", d.QID, d.Level, d.Side, d.MergeOp, d.KeyVals, d.Val)
	}
	fmt.Fprintf(&b, "switch mirrored=%d collisions=%d dumps=%d regs=%d/%d\n",
		st.Mirrored, st.Collisions, st.DumpTuples, st.RegUsed, st.RegCapacity)
	for _, is := range st.Instances {
		fmt.Fprintf(&b, "q%d/r%d/s%d mirrored=%d collisions=%d dumps=%d regs=%d/%d ops=%v\n",
			is.QID, is.Level, is.Side, is.Mirrored, is.Collisions, is.DumpTuples, is.RegUsed, is.RegCapacity, is.OpIn)
	}
	return b.String()
}

// TestBatchedWalksMatchProcessFullPlan is TestBatchedWalksMatchProcess over
// the small-scale evaluation workload and its eleven-query plan: every
// window, the batched walk (256-view batches, as the runtime's shards run
// it) must send each instance's records, dump and count exactly what
// frame-at-a-time Process does. The batched switch's mirrors and dumps feed a
// stream processor whose results refine both switches' dynamic filters for
// the next window, so the finer levels walk real rule sets.
func TestBatchedWalksMatchProcessFullPlan(t *testing.T) {
	wl, plan := fullPlan(t)
	if err := plan.Program.CheckLowering(); err != nil {
		t.Fatalf("the planner's program fails the check a decoded one must pass: %v", err)
	}
	cfg := pisa.DefaultConfig()
	want := walkRecords{}
	ref, err := pisa.NewSwitchShared(cfg, plan.Program, want, nil)
	if err != nil {
		t.Fatal(err)
	}
	engine, dyn := planEngine(t, plan)
	got := teeSink{walkRecords{}, emitter.New(engine)}
	sw, err := pisa.NewSwitchShared(cfg, plan.Program, got, nil)
	if err != nil {
		t.Fatal(err)
	}
	gated := map[[2]int]bool{} // the levels behind a dynamic filter
	for _, qp := range plan.Queries {
		for _, lp := range qp.Levels[1:] {
			gated[[2]int{int(qp.Query.ID), lp.Level}] = true
		}
	}
	parser := packet.NewParser(packet.ParserOptions{})
	views := make([]pisa.View, 256)
	var mirrors, shunts, dumped, results, refined uint64
	for i := 0; i < wl.Gen.Windows(); i++ {
		clear(want)
		clear(got.walkRecords)
		frames := wl.Frames(i)
		for _, f := range frames {
			ref.Process(f)
		}
		for rest := frames; len(rest) > 0; {
			n := min(len(views), len(rest))
			for j, f := range rest[:n] {
				views[j].Prepare(parser, f)
			}
			sw.ProcessViews(views[:n])
			rest = rest[n:]
		}
		wantDumps, wantStats := ref.EndWindow()
		gotDumps, gotStats := sw.EndWindow()
		if g, w := renderWindow(gotDumps, gotStats), renderWindow(wantDumps, wantStats); g != w {
			t.Errorf("window %d:\n--- Process\n%s--- ProcessViews\n%s", i, w, g)
		}
		for name, w := range want {
			if g := got.walkRecords[name]; strings.Join(g, "\n") != strings.Join(w, "\n") {
				t.Errorf("window %d %s: %d records, Process sent %d", i, name, len(g), len(w))
			}
		}
		if len(got.walkRecords) != len(want) {
			t.Errorf("window %d: records from %d instances, Process's from %d", i, len(got.walkRecords), len(want))
		}
		mirrors += wantStats.Mirrored
		shunts += wantStats.Collisions
		dumped += wantStats.DumpTuples
		for _, is := range wantStats.Instances {
			if gated[[2]int{int(is.QID), int(is.Level)}] && is.Mirrored+is.DumpTuples > 0 {
				refined++
			}
		}

		got.em.HandleDumps(gotDumps)
		res, _ := engine.EndWindow()
		for _, r := range res {
			results += uint64(len(r.Tuples))
		}
		refine(plan, res, dyn, ref, sw)
	}
	t.Logf("%d mirrors, %d shunts, %d dumps, %d results, %d gated-level reports", mirrors, shunts, dumped, results, refined)
	if mirrors == 0 || shunts == 0 || dumped == 0 || results == 0 || refined == 0 {
		t.Fatal("vacuous")
	}
}
