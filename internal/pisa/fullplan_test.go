package pisa_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/emitter"
	"repro/internal/packet"
	"repro/internal/pisa"
	"repro/internal/plantest"
	"repro/internal/stream"
)

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
	wl, plan := plantest.FullPlan(t)
	if err := plan.Program.CheckLowering(); err != nil {
		t.Fatalf("the planner's program fails the check a decoded one must pass: %v", err)
	}
	cfg := pisa.DefaultConfig()
	want := walkRecords{}
	ref, err := pisa.NewSwitchShared(cfg, plan.Program, want, nil)
	if err != nil {
		t.Fatal(err)
	}
	dyn := stream.NewDynTables()
	engine := plantest.Engine(t, plan, dyn)
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
		plantest.Refine(plan, res, dyn, ref, sw)
	}
	t.Logf("%d mirrors, %d shunts, %d dumps, %d results, %d gated-level reports", mirrors, shunts, dumped, results, refined)
	if mirrors == 0 || shunts == 0 || dumped == 0 || results == 0 || refined == 0 {
		t.Fatal("vacuous")
	}
}
