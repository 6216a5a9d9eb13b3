package runtime_test

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/compile"
	"repro/internal/emitter"
	"repro/internal/eval"
	"repro/internal/flightrec"
	"repro/internal/packet"
	"repro/internal/pisa"
	"repro/internal/planner"
	"repro/internal/queries"
	"repro/internal/runtime"
	"repro/internal/stream"
)

// fabricRef is the network-wide reference: the standalone window loop that
// network-wide deployments ran before vantage points became switches of the
// runtime's shards. One engine holds every instance, n switches run the
// whole threshold-stripped program a view batch at a time, each handing its
// mirrors to the one emitter, and the close dumps switch by switch before
// one engine evaluation and one refinement pass. It is the oracle
// TestVantagePointsMatchFabric holds Options.VantagePoints to.
type fabricRef struct {
	switches []*pisa.Switch
	// views[i] is switch i's filling view batch, of which n[i] are filled;
	// packets[i] counts the frames switch i saw this window.
	parser  *packet.Parser
	views   [][]pisa.View
	n       []int
	packets []uint64
	engine  *stream.Engine
	em      *emitter.Emitter
	links   []runtime.Link
	finest  map[uint16]uint8
	// nLeft is each instance's left op count: where its right side's ops
	// start in its record's stages.
	nLeft  map[stream.QueryKey]int
	window int
}

// fabricRefReport aggregates one fabric-wide window.
type fabricRefReport struct {
	Index int
	// Results holds the finest-level merged outputs per query.
	Results []stream.Result
	// AllResults includes every refinement level.
	AllResults []stream.Result
	// TuplesToSP counts tuples the shared stream processor ingested.
	TuplesToSP uint64
	// PerSwitch carries each vantage point's data-plane stats.
	PerSwitch []pisa.WindowStats
	// Instances is the engine's per-instance window.
	Instances []stream.InstanceStats
	// FilterUpdates counts refinement entries written across all switches.
	FilterUpdates  int
	UpdateDuration time.Duration
}

// newFabricRef builds a fabric of n switches all running the plan's program.
func newFabricRef(plan *planner.Plan, cfg pisa.Config, n int) (*fabricRef, error) {
	if n <= 0 {
		return nil, fmt.Errorf("fabric: need at least one switch")
	}
	dyn := stream.NewDynTables()
	engine := stream.NewEngine(dyn)
	em := emitter.New(engine)
	links, err := runtime.PlanLinks(plan)
	if err != nil {
		return nil, err
	}
	f := &fabricRef{engine: engine, em: em, links: links, finest: make(map[uint16]uint8),
		nLeft: make(map[stream.QueryKey]int), parser: packet.NewParser(packet.ParserOptions{}),
		n: make([]int, n), packets: make([]uint64, n)}
	prog := refDropDumpThresholds(plan.Program)
	for i := 0; i < n; i++ {
		sw, err := pisa.NewSwitchShared(cfg, prog, em, nil)
		if err != nil {
			return nil, fmt.Errorf("fabric: switch %d: %w", i, err)
		}
		f.switches = append(f.switches, sw)
		f.views = append(f.views, make([]pisa.View, runtime.DefaultBatchSize))
	}
	for li := range links {
		if err := links[li].Resolve(dyn, f.switches...); err != nil {
			return nil, fmt.Errorf("fabric: %w", err)
		}
	}
	for _, qp := range plan.Queries {
		for li, lp := range qp.Levels {
			part := stream.Partition{LeftStart: lp.Left.EntryOp()}
			if lp.Right != nil {
				part.RightStart = lp.Right.EntryOp()
			}
			if err := engine.Install(lp.Aug, uint8(lp.Level), part); err != nil {
				return nil, fmt.Errorf("fabric: installing q%d level %d: %w", qp.Query.ID, lp.Level, err)
			}
			if li == len(qp.Levels)-1 {
				f.finest[qp.Query.ID] = uint8(lp.Level)
			}
			f.nLeft[stream.QueryKey{QID: qp.Query.ID, Level: uint8(lp.Level)}] = len(lp.Aug.Left.Ops)
		}
	}
	return f, nil
}

// refDropDumpThresholds copies the program with threshold filters removed
// from dump-boundary stateful tables.
func refDropDumpThresholds(prog *pisa.Program) *pisa.Program {
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

// Process feeds a frame to switch i: it joins the switch's view batch, and a
// full batch walks the switch.
func (f *fabricRef) Process(i int, frame []byte) {
	f.views[i][f.n[i]].Prepare(f.parser, frame)
	f.n[i]++
	f.packets[i]++
	if f.n[i] == len(f.views[i]) {
		f.walk(i)
	}
}

// walk runs switch i's filled views through it.
func (f *fabricRef) walk(i int) {
	f.switches[i].ProcessViews(f.views[i][:f.n[i]])
	f.n[i] = 0
}

// CloseWindow ends the window fabric-wide: every switch walks its partial
// batch, then every switch's dumps merge into the shared engine, results are
// computed once, and refinement updates fan out to all switches.
func (f *fabricRef) CloseWindow() *fabricRefReport {
	rep := &fabricRefReport{Index: f.window}
	f.window++
	for i := range f.switches {
		f.walk(i)
	}
	for i, sw := range f.switches {
		dumps, stats := sw.EndWindow()
		f.em.HandleDumps(dumps)
		stats.PacketsIn, f.packets[i] = f.packets[i], 0
		rep.PerSwitch = append(rep.PerSwitch, stats)
	}
	results, metrics := f.engine.EndWindow()
	results = slices.Clone(results) // the engine's slice is reused next window
	rep.AllResults = results
	rep.TuplesToSP = metrics.TuplesIn
	rep.Instances = metrics.Instances
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

// vantageWorkload is the evaluation workload at small scale (background
// traffic plus the standard attack suite) planned for all eleven queries,
// with each replay window's frames routed by IPv4 source — shared by the
// tests below, since training dominates their set-up.
type vantageWorkload struct {
	plan   *planner.Plan
	frames [][][]byte
	src    [][]uint32 // IPv4 source per frame (0 when unparsed)
}

var (
	vantageOnce sync.Once
	vantageWL   *vantageWorkload
	vantageErr  error
)

func smallVantageWorkload(t *testing.T) *vantageWorkload {
	t.Helper()
	vantageOnce.Do(func() {
		scale := eval.SmallScale()
		w, err := eval.NewWorkload(scale)
		if err != nil {
			vantageErr = err
			return
		}
		qs := queries.All(eval.ScaledParams(scale))
		tr, err := planner.Train(qs, []int{8, 16, 24}, w.TrainingFrames())
		if err != nil {
			vantageErr = err
			return
		}
		wl := &vantageWorkload{}
		if wl.plan, err = planner.PlanQueries(tr, qs, pisa.DefaultConfig(), planner.DefaultOptions()); err != nil {
			vantageErr = err
			return
		}
		p := packet.NewParser(packet.ParserOptions{})
		var pkt packet.Packet
		for i := 0; i < w.Gen.Windows(); i++ {
			frames := w.Frames(i)
			src := make([]uint32, len(frames))
			for j, f := range frames {
				if p.Parse(f, &pkt) == nil {
					src[j] = pkt.IPv4.Src
				}
			}
			wl.frames, wl.src = append(wl.frames, frames), append(wl.src, src)
		}
		vantageWL = wl
	})
	if vantageErr != nil {
		t.Fatal(vantageErr)
	}
	return vantageWL
}

// renderResults renders results canonically: tuples as the engine sorted
// them, join sub-pipeline outputs sorted here (their order is map-iteration
// dependent even on one engine).
func renderResults(results []stream.Result) string {
	var b strings.Builder
	for _, res := range results {
		fmt.Fprintf(&b, "q%d/%d tuples=%s left=%s right=%s\n", res.QID, res.Level,
			renderTuples(res.Tuples, false), renderTuples(res.LeftOutputs, true), renderTuples(res.RightOutputs, true))
	}
	return b.String()
}

// windowView is what the reference and the runtime both report for a window,
// rendered as the window closes (an engine reuses its result storage at the
// next close). sw sums the data-plane counters over every switch; records
// renders the per-instance records.
type windowView struct {
	results, all string
	tuplesToSP   uint64
	updates      int
	sw           switchCounts
	records      string
}

// switchCounts is pisa.WindowStats without its per-instance breakdown,
// which the records carry.
type switchCounts struct {
	packets, mirrored, collisions, dumps, screened, entered, regUsed, regCap uint64
}

func countsOf(st *pisa.WindowStats) switchCounts {
	return switchCounts{st.PacketsIn, st.Mirrored, st.Collisions, st.DumpTuples,
		st.Screened, st.Entered, st.RegUsed, st.RegCapacity}
}

func (f *fabricRef) view(rep *fabricRefReport) windowView {
	var sw pisa.WindowStats
	for _, st := range rep.PerSwitch {
		sw.Merge(st)
	}
	// The records, as WindowReport.Instances assembles them: the engine's
	// counts, plus every switch's, a right side's ops past the left ones.
	counts := make([]flightrec.Counts, len(rep.Instances))
	at := make(map[stream.QueryKey]*flightrec.Counts, len(counts))
	for i, in := range rep.Instances {
		counts[i] = flightrec.Counts{QID: in.Key.QID, Level: in.Key.Level, TuplesToSP: in.TuplesIn,
			MirrorBytes: in.WireBytes, Results: in.Results, OpInSw: make([]uint64, len(in.OpIn)),
			OpInSP: in.OpIn, OpOut: in.OpOut}
		at[in.Key] = &counts[i]
	}
	for _, st := range rep.PerSwitch {
		for _, is := range st.Instances {
			key := stream.QueryKey{QID: is.QID, Level: is.Level}
			c, base := at[key], 0
			if is.Side == pisa.SideRight {
				base = f.nLeft[key]
			}
			c.Mirrored += is.Mirrored
			c.Collisions += is.Collisions
			c.DumpTuples += is.DumpTuples
			c.RegUsed += is.RegUsed
			c.RegCapacity += is.RegCapacity
			for op, n := range is.OpIn {
				c.OpInSw[base+op] += n
			}
		}
	}
	return windowView{results: renderResults(rep.Results), all: renderResults(rep.AllResults),
		tuplesToSP: rep.TuplesToSP, updates: rep.FilterUpdates, sw: countsOf(&sw), records: renderRecords(counts)}
}

func runtimeView(rep *runtime.WindowReport) windowView {
	return windowView{results: renderResults(rep.Results), all: renderResults(rep.AllResults),
		tuplesToSP: rep.TuplesToSP, updates: rep.FilterUpdates, sw: countsOf(&rep.Switch),
		records: renderRecords(rep.Instances)}
}

// renderRecords renders the records' data-plane, monitoring-port and stream
// processor counts.
func renderRecords(counts []flightrec.Counts) string {
	var b strings.Builder
	for _, c := range counts {
		fmt.Fprintf(&b, "q%d/%d tuples=%d mirrored=%d bytes=%d collisions=%d dumps=%d registers=%d/%d results=%d sw=%v sp=%v out=%v\n",
			c.QID, c.Level, c.TuplesToSP, c.Mirrored, c.MirrorBytes, c.Collisions, c.DumpTuples,
			c.RegUsed, c.RegCapacity, c.Results, c.OpInSw, c.OpInSP, c.OpOut)
	}
	return b.String()
}

// TestVantagePointsMatchFabric holds the runtime's vantage-point switches to
// the reference fabric: over the small evaluation workload and all eleven
// queries, frames routed by IPv4 source modulo the vantage-point count, every
// window must report the reference's results at every level, load at the
// stream processor, filter entries written and summed data-plane counters —
// on one shard and on two. At one vantage point the
// runtime keeps its dump thresholds, so it may deliver fewer tuples than the
// (always stripped) reference, never different answers.
func TestVantagePointsMatchFabric(t *testing.T) {
	wl := smallVantageWorkload(t)
	cfg := pisa.DefaultConfig()
	for _, vps := range []int{1, 2, 4} {
		ref, err := newFabricRef(wl.plan, cfg, vps)
		if err != nil {
			t.Fatal(err)
		}
		var want []windowView
		updates := 0
		for i, frames := range wl.frames {
			for j, f := range frames {
				ref.Process(int(wl.src[i][j]%uint32(vps)), f)
			}
			want = append(want, ref.view(ref.CloseWindow()))
			updates += want[i].updates
		}
		if updates == 0 {
			t.Fatalf("vp=%d: the reference wrote no filter entries; test is vacuous", vps)
		}
		for _, workers := range []int{1, 2} {
			if vps == 1 && workers > 1 {
				continue
			}
			name := fmt.Sprintf("vp=%d/workers=%d", vps, workers)
			rt, err := runtime.NewWithOptions(wl.plan, cfg, runtime.Options{Workers: workers, VantagePoints: vps})
			if err != nil {
				t.Fatal(err)
			}
			for i, frames := range wl.frames {
				for j, f := range frames {
					rt.ProcessAt(int(wl.src[i][j]%uint32(vps)), f)
				}
				got, w := runtimeView(rt.CloseWindow()), want[i]
				if vps == 1 {
					// Only the answers and the gate must agree.
					got.all, w.all, got.records, w.records = "", "", "", ""
					got.sw, w.sw = switchCounts{}, switchCounts{}
					if got.tuplesToSP > w.tuplesToSP {
						t.Errorf("%s window %d: %d tuples to SP, above the stripped reference's %d",
							name, i, got.tuplesToSP, w.tuplesToSP)
					}
					got.tuplesToSP = w.tuplesToSP
				}
				if got != w {
					t.Errorf("%s window %d diverged from the reference:\n--- reference\n%+v\n--- runtime\n%+v", name, i, w, got)
				}
			}
			rt.Close()
		}
	}
}

// TestOneSwitchFabricMatchesRuntime: dump-threshold stripping changes what
// crosses the monitoring port, never the answers. Over the evaluation
// workload and all eleven queries (joins included, where the refinement gate
// is the left∩right sub-query intersection), a two-vantage-point runtime
// whose traffic all enters at one switch — dumping raw partial aggregates the
// stream processor thresholds — must report the one-switch runtime's results
// at every level, which are what its refinement gates are drawn from, window
// by window.
func TestOneSwitchFabricMatchesRuntime(t *testing.T) {
	wl := smallVantageWorkload(t)
	cfg := pisa.DefaultConfig()
	rt, err := runtime.NewWithOptions(wl.plan, cfg, runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fabric, err := runtime.NewWithOptions(wl.plan, cfg, runtime.Options{VantagePoints: 2})
	if err != nil {
		t.Fatal(err)
	}
	updates := 0
	for i, frames := range wl.frames {
		want := rt.ProcessWindow(frames)
		got := fabric.ProcessWindow(frames)
		if g, r := renderResults(got.AllResults), renderResults(want.AllResults); g != r {
			t.Errorf("window %d results diverged:\n--- runtime\n%s--- fabric\n%s", i, r, g)
		}
		// Both switches' tables take every update.
		if got.FilterUpdates < want.FilterUpdates || got.TuplesToSP < want.TuplesToSP {
			t.Errorf("window %d: fabric wrote %d filter entries and delivered %d tuples, runtime %d and %d",
				i, got.FilterUpdates, got.TuplesToSP, want.FilterUpdates, want.TuplesToSP)
		}
		updates += want.FilterUpdates
	}
	if updates == 0 {
		t.Fatal("workload wrote no filter entries; test is vacuous")
	}
}
