package emitter_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/emitter"
	"repro/internal/packet"
	"repro/internal/pisa"
	"repro/internal/planner"
	"repro/internal/plantest"
	"repro/internal/stream"
	"repro/internal/tuple"
)

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
	s.engine = plantest.Engine(t, plan, s.dyn)
	var err error
	if wire {
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

	plantest.Refine(plan, results, s.dyn, s.sw)
	return w
}

// TestMirrorBatchMatchesWireFullPlan is TestMirrorBatchMatchesWire over the
// small-scale evaluation workload and its eleven-query plan: the emitter as
// the switch's batch sink, and every record through the wire codec's round
// trip, each into a batched engine of its own, must leave the same results,
// per-instance counts, emitter and switch counters after every window —
// each side refining its own dynamic filters from its own results. With
// TestBatchedWalksMatchProcessFullPlan in pisa and
// TestBatchedMatchesInterpreterFullPlan in stream, it spans the frame walk,
// the wire codec and the per-tuple interpreter over the full workload.
func TestMirrorBatchMatchesWireFullPlan(t *testing.T) {
	wl, plan := plantest.FullPlan(t)
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
