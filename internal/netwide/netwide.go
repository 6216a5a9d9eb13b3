// Package netwide implements the network-wide extension the paper names as
// future work (Section 8, citing the authors' follow-on SOSR'18 paper on
// network-wide heavy hitter detection): the same partitioned, refined query
// plan runs on several switches — border routers, IXP ports — and the
// stream processor merges their partial aggregates, so a heavy hitter whose
// traffic is split across vantage points is still detected even though no
// single switch sees it cross the threshold.
//
// The mechanism reuses Sonata's existing reconciliation path: every
// switch's register dump merges into the shared stateful operator state via
// the operator's own aggregation function, exactly like collision-overflow
// traffic does on a single switch. Dynamic refinement updates fan out to
// every switch.
package netwide

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/compile"
	"repro/internal/emitter"
	"repro/internal/pisa"
	"repro/internal/planner"
	"repro/internal/runtime"
	"repro/internal/stream"
)

// WindowReport aggregates one fabric-wide window.
type WindowReport struct {
	Index int
	// Results holds the finest-level merged outputs per query.
	Results []stream.Result
	// AllResults includes every refinement level.
	AllResults []stream.Result
	// TuplesToSP counts tuples the shared stream processor ingested.
	TuplesToSP uint64
	// PerSwitch carries each vantage point's data-plane stats.
	PerSwitch []pisa.WindowStats
	// FilterUpdates counts refinement entries written across all switches.
	FilterUpdates  int
	UpdateDuration time.Duration
}

// Fabric is a set of switches sharing one stream processor.
type Fabric struct {
	switches []*pisa.Switch
	engine   *stream.Engine
	em       *emitter.Emitter
	links    []runtime.Link
	finest   map[uint16]uint8
	window   int
}

// New builds a fabric of n switches all running the plan's program.
func New(plan *planner.Plan, cfg pisa.Config, n int) (*Fabric, error) {
	if n <= 0 {
		return nil, fmt.Errorf("netwide: need at least one switch")
	}
	dyn := stream.NewDynTables()
	engine := stream.NewEngine(dyn)
	em := emitter.New(engine)
	links, err := runtime.Links(plan)
	if err != nil {
		return nil, err
	}
	f := &Fabric{engine: engine, em: em, links: links, finest: make(map[uint16]uint8)}
	prog := dropDumpThresholds(plan.Program)
	for i := 0; i < n; i++ {
		sw, err := pisa.NewSwitch(cfg, prog, em.HandleMirror)
		if err != nil {
			return nil, fmt.Errorf("netwide: switch %d: %w", i, err)
		}
		f.switches = append(f.switches, sw)
	}
	for li := range links {
		if err := links[li].Resolve(dyn, f.switches...); err != nil {
			return nil, fmt.Errorf("netwide: %w", err)
		}
	}
	for _, qp := range plan.Queries {
		for li, lp := range qp.Levels {
			part := stream.Partition{LeftStart: lp.Left.Pipe.EntryFor(lp.Left.Cut).StartOp}
			if lp.Right != nil {
				part.RightStart = lp.Right.Pipe.EntryFor(lp.Right.Cut).StartOp
			}
			if err := engine.Install(lp.Aug, uint8(lp.Level), part); err != nil {
				return nil, fmt.Errorf("netwide: installing q%d level %d: %w", qp.Query.ID, lp.Level, err)
			}
			if li == len(qp.Levels)-1 {
				f.finest[qp.Query.ID] = uint8(lp.Level)
			}
		}
	}
	return f, nil
}

// dropDumpThresholds copies the program with threshold filters removed from
// dump-boundary stateful tables. A per-switch threshold would suppress keys
// whose traffic is split across vantage points and only crosses the
// threshold in aggregate — the defining difficulty of network-wide heavy
// hitter detection. Switches instead dump raw partial aggregates; the
// stream engine's drain path re-applies the original threshold after
// merging, so results are identical to a single switch observing the union
// of the traffic.
func dropDumpThresholds(prog *pisa.Program) *pisa.Program {
	out := &pisa.Program{Instances: make([]*pisa.InstanceSpec, len(prog.Instances))}
	for i, spec := range prog.Instances {
		c := *spec
		c.Tables = append([]compile.Table(nil), spec.Tables...)
		if c.CutAt > 0 {
			last := &c.Tables[c.CutAt-1]
			if last.Stateful && last.MergedFilterOp >= 0 {
				last.MergedFilterOp = -1
			}
		}
		out.Instances[i] = &c
	}
	return out
}

// Size returns the number of vantage points.
func (f *Fabric) Size() int { return len(f.switches) }

// Process feeds a frame to switch i (the caller routes traffic to vantage
// points; tests shard by flow hash).
func (f *Fabric) Process(i int, frame []byte) {
	f.switches[i].Process(frame)
}

// CloseWindow ends the window fabric-wide: every switch's dumps merge into
// the shared engine, results are computed once, and refinement updates fan
// out to all switches.
func (f *Fabric) CloseWindow() *WindowReport {
	rep := &WindowReport{Index: f.window}
	f.window++
	for _, sw := range f.switches {
		dumps, stats := sw.EndWindow()
		f.em.HandleDumps(dumps)
		rep.PerSwitch = append(rep.PerSwitch, stats)
	}
	results, metrics := f.engine.EndWindow()
	results = slices.Clone(results) // the engine's slice is reused next window
	rep.AllResults = results
	rep.TuplesToSP = metrics.TuplesIn
	for _, res := range results {
		if f.finest[res.QID] == res.Level {
			rep.Results = append(rep.Results, res)
		}
	}

	start := time.Now()
	for li := range f.links {
		l := &f.links[li]
		rep.FilterUpdates += l.Publish(l.Keys(results))
	}
	rep.UpdateDuration = time.Since(start)
	return rep
}
