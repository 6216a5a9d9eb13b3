package stream_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/packet"
	"repro/internal/pisa"
	"repro/internal/planner"
	"repro/internal/plantest"
	"repro/internal/query"
	"repro/internal/stream"
)

// planEngine is one stream engine with every level of the plan installed,
// driven through the batched executor's entry points or, when ref is set,
// the per-tuple reference's. The plan is valid, so a record or a dump the
// engine refuses fails t: both executors share the checks that refuse, and
// comparing the two would not show them refusing what they should take.
type planEngine struct {
	t   *testing.T
	eng *stream.Engine
	ref bool
}

func newPlanEngine(t *testing.T, plan *planner.Plan, dyn *stream.DynTables, ref bool) *planEngine {
	t.Helper()
	return &planEngine{t: t, eng: plantest.Engine(t, plan, dyn), ref: ref}
}

func streamSide(s pisa.Side) stream.Side {
	if s == pisa.SideRight {
		return stream.SideRight
	}
	return stream.SideLeft
}

// deliver routes one mirror record into the engine as the emitter's wire
// path does past its codec: a shunt at the stateful op it names, a tuple at
// the partition point, a packet — pkts holding its parse, sel selecting it —
// where the partition point takes packets.
func (pe *planEngine) deliver(m *pisa.Mirror, pkts *query.PacketBatch, sel []uint64) {
	inst := pe.eng.Instance(m.QID, m.Level)
	side := streamSide(m.Side)
	ok := inst.HasSide(side)
	switch {
	case !ok:
	case m.Overflow && pe.ref:
		ok = inst.IngestTupleAtRef(side, m.MergeOp, m.Vals)
	case m.Overflow:
		ok = inst.IngestTupleAt(side, m.MergeOp, m.Vals)
	case m.Vals != nil && pe.ref:
		ok = inst.IngestTupleRef(side, m.Vals)
	case m.Vals != nil:
		ok = inst.IngestTuple(side, m.Vals)
	case pkts == nil || !inst.TakesPackets(side):
		ok = false
	case pe.ref:
		inst.IngestPacketsRef(side, pkts, sel)
	default:
		inst.IngestPackets(side, pkts, sel)
	}
	if !ok {
		pe.t.Fatalf("record q%d/r%d/s%d overflow=%v merge=%d vals=%v refused", m.QID, m.Level, m.Side, m.Overflow, m.MergeOp, m.Vals)
	}
}

// closeWindow merges the switch's dumps, ends the window and renders what
// it left: every result and the per-instance counts the two executors must
// agree on. It also returns the result rows, of every query and of the join
// queries.
func (pe *planEngine) closeWindow(dumps []pisa.RegDump, plan *planner.Plan) (string, []stream.Result, uint64, uint64) {
	for i := range dumps {
		d := &dumps[i]
		if !pe.eng.Instance(d.QID, d.Level).IngestAgg(streamSide(d.Side), d.MergeOp, d.KeyVals, d.Val) {
			pe.t.Fatalf("dump q%d/r%d/s%d merge=%d key=%v refused", d.QID, d.Level, d.Side, d.MergeOp, d.KeyVals)
		}
	}
	end := pe.eng.EndWindow
	if pe.ref {
		end = pe.eng.EndWindowRef
	}
	results, metrics := end()
	joins := make(map[uint16]bool)
	for _, qp := range plan.Queries {
		joins[qp.Query.ID] = qp.Query.HasJoin()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "tuples=%d\n", metrics.TuplesIn)
	for _, in := range metrics.Instances {
		fmt.Fprintf(&b, "q%d/r%d tuples=%d results=%d in=%v out=%v\n",
			in.Key.QID, in.Key.Level, in.TuplesIn, in.Results, in.OpIn, in.OpOut)
	}
	var all, joined uint64
	for _, r := range results {
		all += uint64(len(r.Tuples))
		if joins[r.QID] {
			joined += uint64(len(r.Tuples))
		}
		fmt.Fprintf(&b, "q%d/r%d %v left=%v right=%v\n", r.QID, r.Level, r.Tuples, r.LeftOutputs, r.RightOutputs)
	}
	return b.String(), results, all, joined
}

// TestBatchedMatchesInterpreterFullPlan holds the batched executor against
// the per-tuple interpreter over the small-scale workload and its
// eleven-query plan. One switch walks every window; each record its
// per-record callback reports goes to two engines — one through the
// production Instance methods, one through the reference entry points of
// interp_ref_test.go — and each window's register dumps to both through
// Instance.IngestAgg. After every window the results and the per-instance
// tuples, results and per-op funnels must agree; the dynamic filters are
// then refined from the window's results. Mirrors, shunts, dumps,
// packet-phase records, join results and results must all occur.
func TestBatchedMatchesInterpreterFullPlan(t *testing.T) {
	wl, plan := plantest.FullPlan(t)
	dyn := stream.NewDynTables()
	batched, ref := newPlanEngine(t, plan, dyn, false), newPlanEngine(t, plan, dyn, true)
	dnsParser := packet.NewParser(packet.ParserOptions{DecodeDNS: batched.eng.ReadsDNS()})
	pkts := &query.PacketBatch{Pkts: []*packet.Packet{new(packet.Packet)}}
	one := []uint64{1}
	var packetRecords uint64
	sw, err := pisa.NewSwitch(pisa.DefaultConfig(), plan.Program, func(m pisa.Mirror) {
		var batch *query.PacketBatch
		if m.Vals == nil && m.Packet != nil {
			if m.Parsed != nil {
				dnsParser.Adopt(m.Parsed, pkts.Pkts[0])
				batch = pkts
			} else if dnsParser.Parse(m.Packet, pkts.Pkts[0]) == nil {
				batch = pkts
			}
			packetRecords++
		}
		batched.deliver(&m, batch, one)
		ref.deliver(&m, batch, one)
	})
	if err != nil {
		t.Fatal(err)
	}
	parser := packet.NewParser(packet.ParserOptions{})
	views := make([]pisa.View, 256)
	var mirrors, shunts, dumps, results, joined uint64
	for i := 0; i < wl.Gen.Windows(); i++ {
		for rest := wl.Frames(i); len(rest) > 0; {
			n := min(len(views), len(rest))
			for j, f := range rest[:n] {
				views[j].Prepare(parser, f)
			}
			sw.ProcessViews(views[:n])
			rest = rest[n:]
		}
		ds, st := sw.EndWindow()
		want, _, _, _ := ref.closeWindow(ds, plan)
		got, res, all, joins := batched.closeWindow(ds, plan)
		if got != want {
			t.Fatalf("window %d: batched executor diverged from the per-tuple interpreter:\n--- interpreter\n%s--- batched\n%s", i, want, got)
		}
		plantest.Refine(plan, res, dyn, sw)
		mirrors += st.Mirrored
		shunts += st.Collisions
		dumps += st.DumpTuples
		results += all
		joined += joins
	}
	t.Logf("%d mirrors, %d shunts, %d dumps, %d packet-phase records, %d join results, %d results",
		mirrors, shunts, dumps, packetRecords, joined, results)
	if mirrors == 0 || shunts == 0 || dumps == 0 || packetRecords == 0 || joined == 0 || results == 0 {
		t.Fatal("vacuous")
	}
}
