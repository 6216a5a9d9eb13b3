// Package plantest is the deployment the full-plan differential tests of
// pisa, emitter and stream share: the small-scale evaluation workload, all
// eleven queries planned over it, the stream engines that run them and the
// refinement step between windows. Only tests import it.
package plantest

import (
	"testing"

	"repro/internal/eval"
	"repro/internal/pisa"
	"repro/internal/planner"
	"repro/internal/queries"
	"repro/internal/query"
	"repro/internal/stream"
)

// FullPlan is the small-scale evaluation workload (background traffic plus
// the standard attack suite) and all eleven queries planned over it, trained
// and planned as the runtime's differential tests do — except that the
// switch program's registers are cut to a sixteenth of their planned size,
// so that on this workload banks overflow and collision shunts cross the
// monitoring port too.
func FullPlan(tb testing.TB) (*eval.Workload, *planner.Plan) {
	tb.Helper()
	scale := eval.SmallScale()
	w, err := eval.NewWorkload(scale)
	if err != nil {
		tb.Fatal(err)
	}
	qs := queries.All(eval.ScaledParams(scale))
	tr, err := planner.Train(qs, []int{8, 16, 24}, w.TrainingFrames())
	if err != nil {
		tb.Fatal(err)
	}
	plan, err := planner.PlanQueries(tr, qs, pisa.DefaultConfig(), planner.DefaultOptions())
	if err != nil {
		tb.Fatal(err)
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

// Engine is a stream engine over dyn with every level of plan installed,
// each resuming where its switch-side cut ends.
func Engine(tb testing.TB, plan *planner.Plan, dyn *stream.DynTables) *stream.Engine {
	tb.Helper()
	engine := stream.NewEngine(dyn)
	for _, qp := range plan.Queries {
		for _, lp := range qp.Levels {
			part := stream.Partition{LeftStart: lp.Left.Pipe.EntryFor(lp.Left.Cut).StartOp}
			if lp.Right != nil {
				part.RightStart = lp.Right.Pipe.EntryFor(lp.Right.Cut).StartOp
			}
			if err := engine.Install(lp.Aug, uint8(lp.Level), part); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return engine
}

// Refine publishes, for every refinement link of plan, the keys the coarser
// level hands down this window (planner.Link.Keys, the rule the runtime's
// window close applies) as what the finer level admits next window — in dyn
// and in every switch's tables.
func Refine(plan *planner.Plan, results []stream.Result, dyn *stream.DynTables, switches ...*pisa.Switch) {
	links, err := plan.Links()
	if err != nil {
		panic(err)
	}
	for i := range links {
		l := &links[i]
		set := query.NewDynSet(l.Keys(results))
		dyn.Publish(l.Table, set)
		for _, sw := range switches {
			for _, side := range []pisa.Side{pisa.SideLeft, pisa.SideRight} {
				if tab, err := sw.DynTable(l.QID, l.To, side, 0); err == nil && tab != nil {
					tab.Publish(set)
				}
			}
		}
	}
}
