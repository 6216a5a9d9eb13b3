package emitter

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/compile"
	"repro/internal/fields"
	"repro/internal/packet"
	"repro/internal/pisa"
	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/tuple"
)

// boundaryQueries covers every kind of record that crosses the monitoring
// port: packet-phase reports (with and without DNS fields, into a plain
// pipeline, a map that ends its pipeline, and both sides of joins — one of
// them packet-phase on the left), tuple-phase tails with a string column,
// and collision shunts.
func boundaryQueries() []*query.Query {
	w := time.Second
	synAcks := query.NewBuilder("syn_acks", w).
		Filter(query.Eq(fields.TCPFlags, fields.FlagSYN|fields.FlagACK)).
		Map(query.Named(fields.DstIP, query.F(fields.SrcIP)), query.ConstCol(1)).
		Reduce(query.AggSum, fields.DstIP)
	telnet := query.NewBuilder("telnet_volume", w).
		Filter(query.Eq(fields.DstPort, 23)).
		Map(query.F(fields.DstIP), query.ConstCol(1)).
		Reduce(query.AggSum, fields.DstIP)
	qs := []*query.Query{
		query.NewBuilder("syn_count", w).
			Filter(query.Eq(fields.TCPFlags, fields.FlagSYN)).
			Map(query.F(fields.DstIP), query.ConstCol(1)).
			Reduce(query.AggSum, fields.DstIP).
			Filter(query.Gt(fields.AggVal, 1)).
			MustBuild(),
		query.NewBuilder("dns_names", w).
			Filter(query.Eq(fields.DNSQR, 0), query.Eq(fields.DstPort, 53)).
			Map(query.F(fields.SrcIP), query.F(fields.DNSQName)).
			Distinct().
			Map(query.C(fields.SrcIP), query.ConstCol(1)).
			Reduce(query.AggSum, fields.SrcIP).
			MustBuild(),
		query.NewBuilder("payloads", w).
			Filter(query.Eq(fields.DstPort, 80)).
			Map(query.F(fields.SrcIP), query.F(fields.Payload)).
			Distinct().
			Map(query.C(fields.Payload), query.ConstCol(1)).
			MustBuild(),
		query.NewBuilder("spread", w).
			Map(query.F(fields.SrcIP), query.F(fields.DstIP)).
			Distinct().
			Map(query.C(fields.SrcIP), query.ConstCol(1)).
			Reduce(query.AggSum, fields.SrcIP).
			MustBuild(),
		query.NewBuilder("syn_flood", w).
			Filter(query.Eq(fields.TCPFlags, fields.FlagSYN)).
			Map(query.F(fields.DstIP), query.ConstCol(1)).
			Reduce(query.AggSum, fields.DstIP).
			OuterJoin(synAcks, fields.DstIP).
			Map(query.C(fields.DstIP), query.Diff(fields.AggVal, fields.AggVal2)).
			MustBuild(),
		query.NewBuilder("zorro", w).
			Filter(query.Eq(fields.DstPort, 23)).
			Join(telnet, fields.DstIP).
			Filter(query.Contains(fields.Payload, "zorro")).
			Map(query.F(fields.DstIP), query.ConstCol(1)).
			Reduce(query.AggSum, fields.DstIP).
			MustBuild(),
		query.NewBuilder("web_syn", w).
			Filter(query.Eq(fields.TCPFlags, fields.FlagSYN), query.Eq(fields.DstPort, 80)).
			Map(query.F(fields.SrcIP), query.F(fields.DstIP)).
			MustBuild(),
	}
	for i, q := range qs {
		q.ID = uint16(i + 1)
	}
	return qs
}

// boundaryPlan is one randomized way of partitioning boundaryQueries: a
// random valid cut per pipeline, a random bank size per stateful table (one
// slot shunts nearly everything, 4096 nothing), and the frame riding along
// on some instances.
type boundaryPlan struct {
	queries []*query.Query
	prog    *pisa.Program
	parts   []stream.Partition
}

func newBoundaryPlan(r *rand.Rand) *boundaryPlan {
	p := &boundaryPlan{queries: boundaryQueries(), prog: &pisa.Program{}}
	side := func(q *query.Query, ops []query.Op, s pisa.Side) int {
		cp := compile.CompilePipeline(ops)
		cuts := cp.ValidPartitionPoints()
		spec := &pisa.InstanceSpec{QID: q.ID, Side: s, Ops: ops, Tables: cp.Tables,
			CutAt: cuts[r.Intn(len(cuts))], NeedsPacket: r.Intn(3) == 0,
			StageOf: make([]int, len(cp.Tables)), RegEntries: make([]int, len(cp.Tables))}
		for t := range cp.Tables {
			spec.StageOf[t] = t
			if cp.Tables[t].Stateful {
				spec.RegEntries[t] = []int{1, 16, 4096}[r.Intn(3)]
			}
		}
		p.prog.Instances = append(p.prog.Instances, spec)
		return cp.EntryFor(spec.CutAt).StartOp
	}
	for _, q := range p.queries {
		part := stream.Partition{LeftStart: side(q, q.Left.Ops, pisa.SideLeft)}
		if q.HasJoin() {
			part.RightStart = side(q, q.Right.Ops, pisa.SideRight)
		}
		p.parts = append(p.parts, part)
	}
	return p
}

// boundarySide is one deployment of a plan — switch, emitter, engine —
// whose monitoring port is crossed either a batch at a time or through the
// wire codec. total and collisions sum the emitter's and the switch's
// windows.
type boundarySide struct {
	sw         *pisa.Switch
	em         *Emitter
	engine     *stream.Engine
	total      Stats
	collisions uint64
}

func newBoundarySide(t *testing.T, p *boundaryPlan, wire bool) *boundarySide {
	t.Helper()
	s := &boundarySide{engine: stream.NewEngine(nil)}
	for i, q := range p.queries {
		if err := s.engine.Install(q, 0, p.parts[i]); err != nil {
			t.Fatal(err)
		}
	}
	s.em = New(s.engine)
	var err error
	if wire {
		s.sw, err = pisa.NewSwitch(pisa.DefaultConfig(), p.prog, s.em.HandleMirror)
	} else {
		s.sw, err = pisa.NewSwitchShared(pisa.DefaultConfig(), p.prog, s.em, nil)
	}
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// boundaryWindow is everything a window is observable through on the far
// side of the monitoring port.
type boundaryWindow struct {
	Results           []stream.Result
	Metrics           stream.Metrics
	Frames, Malformed uint64
	Bytes             uint64
	Funnel            []string
}

// closeWindow ends the window on every component and collects what it left
// behind. Results keep the engine's row order (LeftOutputs and RightOutputs
// are not sorted), and the flush counters tell how the records interleaved
// entry points on their way in, so a path that reorders records shows.
func (s *boundarySide) closeWindow() boundaryWindow {
	dumps, st := s.sw.EndWindow()
	s.em.HandleDumps(dumps)
	var w boundaryWindow
	w.Results, w.Metrics = s.engine.EndWindow()
	em := s.em.WindowStats()
	w.Frames, w.Malformed = em.Frames, em.Malformed
	s.total.Frames += em.Frames
	s.total.Batches += em.Batches
	s.total.DeepDecodes += em.DeepDecodes
	s.collisions += st.Collisions
	for _, sw := range st.Instances {
		w.Funnel = append(w.Funnel, fmt.Sprintf("switch q%d/%d mirrored=%d collisions=%d dumps=%d regs=%d/%d ops=%v",
			sw.QID, sw.Side, sw.Mirrored, sw.Collisions, sw.DumpTuples, sw.RegUsed, sw.RegCapacity, sw.OpIn))
	}
	// Evaluation time is the one thing the two paths may differ in.
	insts := w.Metrics.Instances
	w.Metrics.Instances = nil
	for _, in := range insts {
		w.Bytes += in.WireBytes
		w.Funnel = append(w.Funnel, fmt.Sprintf("sp q%d tuples=%d bytes=%d results=%d in=%v out=%v",
			in.Key.QID, in.TuplesIn, in.WireBytes, in.Results, in.OpIn, in.OpOut))
	}
	return w
}

// boundaryFrames mixes TCP over a small address space (so keys repeat and
// small banks overflow), telnet with and without the keyword, DNS queries
// and responses, unsupported-layer frames (which run the pipeline and are
// malformed at the emitter) and truncated ones (which do not run at all).
func boundaryFrames(r *rand.Rand, n int) [][]byte {
	frames := make([][]byte, n)
	for i := range frames {
		spec := packet.FrameSpec{SrcIP: uint32(r.Intn(24) + 1), DstIP: packet.IPv4Addr(9, 1, 1, byte(r.Intn(12))),
			Proto: 6, SrcPort: uint16(r.Intn(50) + 1024), DstPort: 80,
			TCPFlags: []uint8{fields.FlagSYN, fields.FlagSYN | fields.FlagACK, fields.FlagACK}[r.Intn(3)],
			Payload:  []byte{'p', byte('a' + r.Intn(5))}, Pad: 60 + r.Intn(40)}
		var f []byte
		switch r.Intn(8) {
		case 0:
			f = packet.BuildDNSQuery(nil, &spec, uint16(i), fmt.Sprintf("h%d.tunnel%d.example", r.Intn(40), r.Intn(3)), packet.DNSTypeTXT)
		case 1:
			f = packet.BuildDNSResponse(nil, &spec, uint16(i), "www.example.org", packet.DNSTypeA,
				[]packet.DNSRecord{{Name: "www.example.org", Type: packet.DNSTypeA, Class: 1, Data: []byte{1, 2, 3, 4}}})
		case 2:
			spec.DstPort = 23
			spec.Payload = []byte([]string{"login: zorro", "login: guest"}[r.Intn(2)])
			f = packet.BuildFrame(nil, &spec)
		default:
			f = packet.BuildFrame(nil, &spec)
		}
		switch r.Intn(12) {
		case 0:
			f[12], f[13] = 0x08, 0x06 // ARP ethertype: unsupported layer
		case 1:
			f = f[:14+r.Intn(12)] // cut inside the IPv4 header: malformed
		}
		frames[i] = f
	}
	return frames
}

// TestMirrorBatchMatchesWire is the boundary's differential: the same
// randomized plan and frames, once with the emitter as the switch's batch
// sink and once with every record going through HandleMirror's encode /
// decode round trip, must leave both stream engines and both emitters in the
// same observable state after every window — at batch lengths on both sides
// of the bitmap word boundary, with the view storage reused from batch to
// batch as the runtime reuses it.
func TestMirrorBatchMatchesWire(t *testing.T) {
	var sawMalformed, sawShunts, sawDNS, sawRight bool
	for seed := int64(1); seed <= 6; seed++ {
		r := rand.New(rand.NewSource(seed))
		windows := [][][]byte{boundaryFrames(r, 900), boundaryFrames(r, 500)}
		for _, batch := range []int{1, 63, 64, 65, 256} {
			plan := newBoundaryPlan(rand.New(rand.NewSource(seed*100 + int64(batch))))
			batched, wire := newBoundarySide(t, plan, false), newBoundarySide(t, plan, true)
			parser := packet.NewParser(packet.ParserOptions{})
			views := make([]pisa.View, batch)
			for win, frames := range windows {
				for len(frames) > 0 {
					n := min(batch, len(frames))
					for i, f := range frames[:n] {
						views[i].Prepare(parser, f)
					}
					batched.sw.ProcessViews(views[:n])
					wire.sw.ProcessViews(views[:n])
					frames = frames[n:]
				}
				got, want := batched.closeWindow(), wire.closeWindow()
				gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
				for f := 0; f < gv.NumField(); f++ {
					if g, w := gv.Field(f).Interface(), wv.Field(f).Interface(); !reflect.DeepEqual(g, w) {
						t.Fatalf("seed %d batch %d window %d: batch hand-off diverged from the wire path in %s\ngot  %+v\nwant %+v",
							seed, batch, win, gv.Type().Field(f).Name, g, w)
					}
				}
				if want.Frames == 0 || want.Metrics.TuplesIn == 0 {
					t.Fatalf("seed %d batch %d window %d: nothing crossed the boundary", seed, batch, win)
				}
				sawMalformed = sawMalformed || want.Malformed > 0
				sawDNS = sawDNS || len(want.Results[1].Tuples) > 0
				sawRight = sawRight || len(want.Results[4].RightOutputs) > 0 && len(want.Results[5].Tuples) > 0
			}
			sawShunts = sawShunts || wire.collisions > 0
			// The amortisation the batch path exists for, and the counters
			// that make it readable.
			frames, batches := batched.total.Frames, batched.total.Batches
			if batches == 0 || batches > frames || wire.total.Batches != 0 {
				t.Errorf("seed %d batch %d: %d frames in %d batches (wire path: %d batches)",
					seed, batch, frames, batches, wire.total.Batches)
			}
			if b, w := batched.total.DeepDecodes, wire.total.DeepDecodes; b == 0 || b > w ||
				batch == 256 && 2*b > w {
				t.Errorf("seed %d batch %d: %d deep decodes in process, %d on the wire path", seed, batch, b, w)
			}
		}
	}
	if !sawMalformed || !sawShunts || !sawDNS || !sawRight {
		t.Fatalf("vacuous: malformed %v shunts %v dns %v right side %v", sawMalformed, sawShunts, sawDNS, sawRight)
	}
}

// TestWireLenMatchesEncoder is the property behind the batch path's byte
// accounting: the size computed from the wire format's layout equals what
// EncodeMirror produces, record by record.
func TestWireLenMatchesEncoder(t *testing.T) {
	f := func(qid uint16, overflow bool, nums []uint64, strs []string, frame []byte, withVals, withFrame bool) bool {
		m := pisa.Mirror{QID: qid, Overflow: overflow}
		want := uint64(headerLen)
		if withVals {
			m.Vals = []tuple.Value{}
			for i, u := range nums {
				m.Vals = append(m.Vals, tuple.U64(u))
				if i < len(strs) && len(strs[i]) < 1<<16 {
					m.Vals = append(m.Vals, tuple.Str(strs[i]))
				}
			}
			if len(m.Vals) > 255 {
				m.Vals = m.Vals[:255]
			}
			want += valsWireLen(m.Vals)
		}
		if withFrame {
			m.Packet = append([]byte{}, frame...)
			want += packetWireLen(len(m.Packet))
		}
		return uint64(len(EncodeMirror(nil, &m))) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestEmitterSurvivesUnroutableRecords feeds the wire path frames that
// decode cleanly but that no installed instance takes. Each must count as
// malformed — once — without disturbing the records around it.
func TestEmitterSurvivesUnroutableRecords(t *testing.T) {
	engine, em := engineWithQ1(t) // q1 at level 0, partitioned at its reduce (op 2); no join
	good := pisa.Mirror{QID: 1, EntryOp: 2, Vals: []tuple.Value{tuple.U64(7), tuple.U64(1)}}
	frame := packet.BuildFrame(nil, &packet.FrameSpec{SrcIP: 1, DstIP: 7, Proto: 6, TCPFlags: fields.FlagSYN, Pad: 60})
	bad := []pisa.Mirror{
		{QID: 99, EntryOp: 2, Vals: good.Vals},                                  // unknown qid
		{QID: 1, Level: 32, EntryOp: 2, Vals: good.Vals},                        // unknown level
		{QID: 1, Side: pisa.SideRight, EntryOp: 2, Vals: good.Vals},             // right side of a query without a join
		{QID: 1, Side: pisa.SideRight, Packet: frame},                           // the same, packet-phase
		{QID: 1, Packet: frame},                                                 // a bare packet where the partition point takes tuples
		{QID: 1, Overflow: true, MergeOp: 200, Vals: good.Vals},                 // shunt past the pipeline's end
		{QID: 1, Overflow: true, MergeOp: 3, Vals: good.Vals},                   // shunt into a stateless op
		{QID: 1, Overflow: true, MergeOp: 2, Vals: good.Vals[:1]},               // shunt with the value column missing
		{QID: 1, Overflow: true, MergeOp: 2},                                    // shunt with no tuple at all
		{QID: 1, EntryOp: 2, Vals: append(good.Vals[:2:2], good.Vals...)},       // tail tuple of the wrong width
		{QID: 1, EntryOp: 2, Vals: []tuple.Value{tuple.Str("7"), tuple.U64(1)}}, // a string in a numeric column
	}
	for i := range bad {
		em.HandleMirror(good)
		em.HandleMirror(bad[i])
		if st := em.WindowStats(); st.Frames != 2 || st.Malformed != 1 {
			t.Errorf("record %d (%+v): frames=%d malformed=%d, want 2 and 1", i, bad[i], st.Frames, st.Malformed)
		}
	}
	em.HandleMirror(pisa.Mirror{QID: 1, Overflow: true, MergeOp: 2, Vals: good.Vals}) // a shunt the reduce does take
	results, m := engine.EndWindow()
	want := uint64(len(bad) + 1)
	if m.TuplesIn != want || m.Instances[0].TuplesIn != want || len(m.Instances) != 1 {
		t.Errorf("metrics = %+v, want %d tuples, all of q1/r0", m, want)
	}
	if len(results[0].Tuples) != 1 || results[0].Tuples[0][1].U != want {
		t.Errorf("results = %+v, want one key counted %d times", results[0].Tuples, want)
	}
}

// TestEmitterSurvivesUnroutableBatches is the same for the batch hand-off,
// which checks the instance and side once per batch: a switch program the
// engine does not match — an instance it never installed, and one that
// mirrors bare packets where the engine's partition point takes tuples —
// counts every record malformed, on either path across the port, and
// delivers nothing.
func TestEmitterSurvivesUnroutableBatches(t *testing.T) {
	q := boundaryQueries()[0]
	cp := compile.CompilePipeline(q.Left.Ops)
	prog := &pisa.Program{}
	for _, qid := range []uint16{1, 99} {
		prog.Instances = append(prog.Instances, &pisa.InstanceSpec{QID: qid, Ops: q.Left.Ops, Tables: cp.Tables,
			StageOf: make([]int, len(cp.Tables)), RegEntries: make([]int, len(cp.Tables))}) // CutAt 0: every frame mirrors
	}
	parser := packet.NewParser(packet.ParserOptions{})
	views := make([]pisa.View, 3)
	for i := range views {
		views[i].Prepare(parser, packet.BuildFrame(nil, &packet.FrameSpec{SrcIP: 1, DstIP: 7, Proto: 6, TCPFlags: fields.FlagSYN, Pad: 60}))
	}
	for _, wire := range []bool{false, true} {
		engine, em := engineWithQ1(t) // q1 partitioned at its reduce
		var sw *pisa.Switch
		var err error
		if wire {
			sw, err = pisa.NewSwitch(pisa.DefaultConfig(), prog, em.HandleMirror)
		} else {
			sw, err = pisa.NewSwitchShared(pisa.DefaultConfig(), prog, em, nil)
		}
		if err != nil {
			t.Fatal(err)
		}
		sw.ProcessViews(views)
		if st := em.WindowStats(); st.Frames != 6 || st.Malformed != 6 {
			t.Errorf("wire=%v: frames=%d malformed=%d, want 6 and 6", wire, st.Frames, st.Malformed)
		}
		if _, m := engine.EndWindow(); m.TuplesIn != 0 {
			t.Errorf("wire=%v: %d tuples reached the engine", wire, m.TuplesIn)
		}
	}
}
