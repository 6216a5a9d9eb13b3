package emitter_test

import (
	"fmt"
	"sort"
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

// fullPlan is the small-scale evaluation workload and all eleven queries
// planned over it, as in pisa's TestBatchedWalksMatchProcessFullPlan: trained
// and planned as the runtime's differential tests do, with the switch
// program's registers cut to a sixteenth so that banks overflow and shunts
// cross the monitoring port too.
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

// planSide is one deployment of the plan: a switch, its stream engine with
// every level installed, and the emitter between them.
type planSide struct {
	sw     *pisa.Switch
	engine *stream.Engine
	dyn    *stream.DynTables
	em     *emitter.Emitter
}

func newPlanSide(t *testing.T, plan *planner.Plan, wire bool) *planSide {
	t.Helper()
	s := &planSide{dyn: stream.NewDynTables()}
	s.engine = stream.NewEngine(s.dyn)
	for _, qp := range plan.Queries {
		for _, lp := range qp.Levels {
			part := stream.Partition{LeftStart: lp.Left.Pipe.EntryFor(lp.Left.Cut).StartOp}
			if lp.Right != nil {
				part.RightStart = lp.Right.Pipe.EntryFor(lp.Right.Cut).StartOp
			}
			if err := s.engine.Install(lp.Aug, uint8(lp.Level), part); err != nil {
				t.Fatal(err)
			}
		}
	}
	var err error
	if wire {
		s.engine.SetScalar(true)
		w := emitter.NewWireEmitter(s.engine)
		s.em = w.Emitter
		s.sw, err = pisa.NewSwitch(pisa.DefaultConfig(), plan.Program, w.HandleMirror)
	} else {
		s.em = emitter.New(s.engine)
		s.sw, err = pisa.NewSwitchShared(pisa.DefaultConfig(), plan.Program, s.em, nil)
	}
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// planWindow is what a window leaves behind past the monitoring port.
type planWindow struct {
	report                          string
	mirrors, shunts, dumps, results uint64
}

// closeWindow ends the window on every component, renders what it left
// behind — results, the engine's per-instance counts, the emitter's and the
// switch's — and refines the dynamic filters from the results, as the
// runtime's window close does (a join's keys here are the union of what its
// outputs carry).
func (s *planSide) closeWindow(plan *planner.Plan) planWindow {
	dumps, st := s.sw.EndWindow()
	s.em.HandleDumps(dumps)
	results, metrics := s.engine.EndWindow()
	em := s.em.WindowStats()
	w := planWindow{mirrors: st.Mirrored, shunts: st.Collisions, dumps: st.DumpTuples}
	var b strings.Builder
	fmt.Fprintf(&b, "emitter frames=%d malformed=%d switch mirrored=%d collisions=%d dumps=%d\n",
		em.Frames, em.Malformed, st.Mirrored, st.Collisions, st.DumpTuples)
	for _, in := range metrics.Instances {
		fmt.Fprintf(&b, "q%d/r%d tuples=%d bytes=%d results=%d in=%v out=%v\n",
			in.Key.QID, in.Key.Level, in.TuplesIn, in.WireBytes, in.Results, in.OpIn, in.OpOut)
	}
	rows := func(ts [][]tuple.Value, sorted bool) string {
		out := make([]string, len(ts))
		for i, t := range ts {
			out[i] = fmt.Sprint(t)
		}
		if sorted {
			sort.Strings(out) // join sub-pipeline outputs come in map order
		}
		return strings.Join(out, " ")
	}
	for _, r := range results {
		w.results += uint64(len(r.Tuples))
		fmt.Fprintf(&b, "q%d/r%d %s left=%s right=%s\n", r.QID, r.Level,
			rows(r.Tuples, false), rows(r.LeftOutputs, true), rows(r.RightOutputs, true))
	}
	w.report = b.String()

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
			for _, r := range results {
				if r.QID == qp.Query.ID && int(r.Level) == from {
					add(r.Tuples, r.Schema)
					add(r.LeftOutputs, r.LeftSchema)
					add(r.RightOutputs, r.RightSchema)
				}
			}
			set := query.NewDynSet(keys)
			s.dyn.Publish(planner.DynTableName(qp.Query.ID, to), set)
			for _, side := range []pisa.Side{pisa.SideLeft, pisa.SideRight} {
				if tab, err := s.sw.DynTable(qp.Query.ID, uint8(to), side, 0); err == nil && tab != nil {
					tab.Publish(set)
				}
			}
		}
	}
	return w
}

// TestMirrorBatchMatchesWireFullPlan is TestMirrorBatchMatchesWire over the
// small-scale evaluation workload and its eleven-query plan: the emitter as
// the switch's batch sink into a batched engine, and every record through
// the wire codec's round trip into an engine running the per-tuple
// interpreter, must leave the same results, per-instance counts, emitter
// and switch counters after every window — each side refining its own
// dynamic filters from its own results. With
// TestBatchedWalksMatchProcessFullPlan in pisa, it spans the frame walk, the
// wire codec and the per-tuple interpreter over the full workload.
func TestMirrorBatchMatchesWireFullPlan(t *testing.T) {
	wl, plan := fullPlan(t)
	batched, wire := newPlanSide(t, plan, false), newPlanSide(t, plan, true)
	parser := packet.NewParser(packet.ParserOptions{})
	views := make([]pisa.View, 256)
	var total planWindow
	for i := 0; i < wl.Gen.Windows(); i++ {
		for rest := wl.Frames(i); len(rest) > 0; {
			n := min(len(views), len(rest))
			for j, f := range rest[:n] {
				views[j].Prepare(parser, f)
			}
			batched.sw.ProcessViews(views[:n])
			wire.sw.ProcessViews(views[:n])
			rest = rest[n:]
		}
		got, want := batched.closeWindow(plan), wire.closeWindow(plan)
		if got.report != want.report {
			t.Errorf("window %d: batch hand-off diverged from the wire path:\n--- wire\n%s--- batch\n%s", i, want.report, got.report)
		}
		total.mirrors += want.mirrors
		total.shunts += want.shunts
		total.dumps += want.dumps
		total.results += want.results
	}
	t.Logf("%d mirrors, %d shunts, %d dumps, %d results", total.mirrors, total.shunts, total.dumps, total.results)
	if total.mirrors == 0 || total.shunts == 0 || total.dumps == 0 || total.results == 0 {
		t.Fatal("vacuous")
	}
}
