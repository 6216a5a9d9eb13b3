package stream

import (
	"slices"
	"testing"
	"time"

	"repro/internal/fields"
	"repro/internal/packet"
	"repro/internal/query"
	"repro/internal/tuple"
)

// mkSyn builds and parses a SYN packet to dst.
func mkSyn(t testing.TB, src, dst uint32) *packet.Packet {
	t.Helper()
	frame := packet.BuildFrame(nil, &packet.FrameSpec{
		SrcIP: src, DstIP: dst, Proto: 6, SrcPort: 999, DstPort: 80,
		TCPFlags: fields.FlagSYN, Pad: 60,
	})
	var pkt packet.Packet
	if err := packet.NewParser(packet.ParserOptions{}).Parse(frame, &pkt); err != nil {
		t.Fatal(err)
	}
	return &pkt
}

// ingestPacket delivers one packet to the given side of an installed
// instance.
func ingestPacket(e *Engine, qid uint16, level uint8, side Side, pkt *packet.Packet) {
	e.Instance(qid, level).IngestPackets(side, &query.PacketBatch{Pkts: []*packet.Packet{pkt}}, []uint64{1})
}

func query1(th uint64) *query.Query {
	q := query.NewBuilder("q1", time.Second).
		Filter(query.Eq(fields.TCPFlags, fields.FlagSYN)).
		Map(query.F(fields.DstIP), query.ConstCol(1)).
		Reduce(query.AggSum, fields.DstIP).
		Filter(query.Gt(fields.AggVal, th)).
		MustBuild()
	q.ID = 1
	return q
}

func TestFullQueryOnPackets(t *testing.T) {
	e := NewEngine(nil)
	if err := e.Install(query1(3), 0, Partition{}); err != nil {
		t.Fatal(err)
	}
	victim := packet.IPv4Addr(9, 9, 9, 9)
	for i := 0; i < 5; i++ {
		ingestPacket(e, 1, 0, SideLeft, mkSyn(t, uint32(i+1), victim))
	}
	ingestPacket(e, 1, 0, SideLeft, mkSyn(t, 1, packet.IPv4Addr(8, 8, 8, 8))) // below threshold
	results, m := e.EndWindow()
	if m.TuplesIn != 6 {
		t.Errorf("TuplesIn = %d", m.TuplesIn)
	}
	if len(results) != 1 || len(results[0].Tuples) != 1 {
		t.Fatalf("results = %+v", results)
	}
	got := results[0].Tuples[0]
	if got[0].U != uint64(victim) || got[1].U != 5 {
		t.Errorf("result = %v", got)
	}
	// Window state must reset.
	results, _ = e.EndWindow()
	if len(results[0].Tuples) != 0 {
		t.Error("state leaked across windows")
	}
}

func TestPartitionedTupleEntry(t *testing.T) {
	// Switch executed filter+map (ops 0-1); SP resumes at the reduce.
	e := NewEngine(nil)
	if err := e.Install(query1(2), 0, Partition{LeftStart: 2}); err != nil {
		t.Fatal(err)
	}
	dst := tuple.U64(42)
	for i := 0; i < 4; i++ {
		e.Instance(1, 0).IngestTuple(SideLeft, []tuple.Value{dst, tuple.U64(1)})
	}
	results, _ := e.EndWindow()
	if len(results[0].Tuples) != 1 || results[0].Tuples[0][1].U != 4 {
		t.Fatalf("results = %+v", results)
	}
}

func TestRegisterDumpMergesWithOverflow(t *testing.T) {
	// Switch executed everything through the reduce; it dumps aggregated
	// counts at window end. Overflow packets for a colliding key were
	// processed SP-side during the window. Counts must combine.
	e := NewEngine(nil)
	if err := e.Install(query1(5), 0, Partition{LeftStart: 3}); err != nil {
		t.Fatal(err)
	}
	key := []tuple.Value{tuple.U64(7)}
	// Overflow path: raw map-output tuples merged into the reduce (op 2).
	for i := 0; i < 3; i++ {
		e.Instance(1, 0).IngestAgg(SideLeft, 2, key, 1)
	}
	// Register dump at window end: 4 more from the switch.
	e.Instance(1, 0).IngestAgg(SideLeft, 2, key, 4)
	results, _ := e.EndWindow()
	if len(results[0].Tuples) != 1 {
		t.Fatalf("results = %+v", results)
	}
	if got := results[0].Tuples[0][1].U; got != 7 {
		t.Errorf("merged count = %d, want 7", got)
	}
}

// TestIngestAggRefusesMalformedDumps feeds register dumps no installed op
// takes — as a remote data plane's gob-decoded window may carry — to q1
// installed wholly on the switch. Each is refused, with nothing merged or
// counted; a valid dump after them still merges.
func TestIngestAggRefusesMalformedDumps(t *testing.T) {
	e := NewEngine(nil)
	if err := e.Install(query1(0), 0, Partition{LeftStart: 4}); err != nil {
		t.Fatal(err)
	}
	key := []tuple.Value{tuple.U64(7)}
	for _, c := range []struct {
		name string
		qid  uint16
		side Side
		op   int
		key  []tuple.Value
	}{
		{"unknown qid", 9, SideLeft, 2, key},
		{"op out of range", 1, SideLeft, 99, key},
		{"stateless op", 1, SideLeft, 0, key},
		{"stateless op, empty key", 1, SideLeft, 0, nil},
		{"right side of a non-join", 1, SideRight, 2, key},
		{"empty key", 1, SideLeft, 2, nil},
		{"string key", 1, SideLeft, 2, []tuple.Value{tuple.Str("7")}},
		{"three-value key", 1, SideLeft, 2, []tuple.Value{tuple.U64(7), tuple.U64(1), tuple.U64(2)}},
	} {
		t.Run(c.name, func(t *testing.T) {
			if e.Instance(c.qid, 0).IngestAgg(c.side, c.op, c.key, 5) {
				t.Fatal("the dump was taken")
			}
			results, m := e.EndWindow()
			st := m.Instances[0]
			if m.TuplesIn != 0 || st.TuplesIn != 0 || len(results[0].Tuples) != 0 ||
				slices.ContainsFunc(st.OpIn, func(n uint64) bool { return n != 0 }) {
				t.Fatalf("a refused dump left tuples=%d results=%v op_in=%v", m.TuplesIn, results[0].Tuples, st.OpIn)
			}
		})
	}
	if !e.Instance(1, 0).IngestAgg(SideLeft, 2, key, 5) {
		t.Fatal("a valid dump was refused")
	}
	results, m := e.EndWindow()
	if m.TuplesIn != 1 || len(results[0].Tuples) != 1 || results[0].Tuples[0][1].U != 5 {
		t.Fatalf("valid dump: tuples=%d results=%v", m.TuplesIn, results[0].Tuples)
	}
}

func TestDistinctThenReduce(t *testing.T) {
	q := query.NewBuilder("spread", time.Second).
		Map(query.F(fields.SrcIP), query.F(fields.DstIP)).
		Distinct().
		Map(query.C(fields.SrcIP), query.ConstCol(1)).
		Reduce(query.AggSum, fields.SrcIP).
		Filter(query.Gt(fields.AggVal, 2)).
		MustBuild()
	q.ID = 3
	e := NewEngine(nil)
	if err := e.Install(q, 0, Partition{}); err != nil {
		t.Fatal(err)
	}
	spreader := uint32(1000)
	// Same destination repeated: distinct collapses it.
	for i := 0; i < 10; i++ {
		ingestPacket(e, 3, 0, SideLeft, mkSyn(t, spreader, 2000))
	}
	if results, _ := e.EndWindow(); len(results[0].Tuples) != 0 {
		t.Error("repeated destination should not trip the distinct count")
	}
	// Three distinct destinations: fanout = 3 > 2.
	for d := uint32(0); d < 3; d++ {
		for i := 0; i < 4; i++ {
			ingestPacket(e, 3, 0, SideLeft, mkSyn(t, spreader, 3000+d))
		}
	}
	results, _ := e.EndWindow()
	if len(results[0].Tuples) != 1 || results[0].Tuples[0][1].U != 3 {
		t.Fatalf("results = %+v", results[0].Tuples)
	}
}

func TestTupleJoinWithRatio(t *testing.T) {
	// Slowloris-style: conns per host joined with bytes per host.
	bytesQ := query.NewBuilder("bytes", time.Second).
		Filter(query.Eq(fields.Proto, 6)).
		Map(query.F(fields.DstIP), query.F(fields.PktLen)).
		Reduce(query.AggSum, fields.DstIP).
		Filter(query.Gt(fields.AggVal, 100))
	q := query.NewBuilder("loris", time.Second).
		Filter(query.Eq(fields.Proto, 6)).
		Map(query.F(fields.DstIP), query.F(fields.SrcIP), query.F(fields.SrcPort)).
		Distinct().
		Map(query.C(fields.DstIP), query.ConstCol(1)).
		Reduce(query.AggSum, fields.DstIP).
		Join(bytesQ, fields.DstIP).
		Map(query.C(fields.DstIP), query.Ratio(fields.AggVal, fields.AggVal2, 1000)).
		Filter(query.Gt(fields.AggVal, 10)).
		MustBuild()
	q.ID = 8
	e := NewEngine(nil)
	if err := e.Install(q, 0, Partition{}); err != nil {
		t.Fatal(err)
	}

	victim := packet.IPv4Addr(5, 5, 5, 5)
	normal := packet.IPv4Addr(6, 6, 6, 6)
	parser := packet.NewParser(packet.ParserOptions{})
	send := func(src, dst uint32, sport uint16, pad int) {
		frame := packet.BuildFrame(nil, &packet.FrameSpec{
			SrcIP: src, DstIP: dst, Proto: 6, SrcPort: sport, DstPort: 80,
			TCPFlags: fields.FlagACK, Pad: pad,
		})
		var pkt packet.Packet
		if err := parser.Parse(frame, &pkt); err != nil {
			t.Fatal(err)
		}
		// Both sides of the join see the full packet stream.
		ingestPacket(e, 8, 0, SideLeft, &pkt)
		ingestPacket(e, 8, 0, SideRight, &pkt)
	}
	// Victim: 200 connections of 60 bytes each => 200*1000/12000 = 16 > 10.
	for i := 0; i < 200; i++ {
		send(uint32(100+i), victim, uint16(10000+i), 60)
	}
	// Normal server: 3 connections, lots of bytes.
	for i := 0; i < 3; i++ {
		for j := 0; j < 30; j++ {
			send(uint32(300+i), normal, uint16(20000+i), 1500)
		}
	}
	results, _ := e.EndWindow()
	if len(results[0].Tuples) != 1 {
		t.Fatalf("join results = %+v", results[0].Tuples)
	}
	if results[0].Tuples[0][0].U != uint64(victim) {
		t.Errorf("detected %v, want victim", results[0].Tuples[0][0])
	}
}

func TestPacketPhaseJoinZorro(t *testing.T) {
	vol := query.NewBuilder("vol", time.Second).
		Filter(query.Eq(fields.DstPort, 23)).
		Map(query.F(fields.DstIP), query.RoundF(fields.PktLen, 64), query.ConstCol(1)).
		Reduce(query.AggSum, fields.DstIP, fields.PktLen).
		Filter(query.Gt(fields.AggVal, 5))
	q := query.NewBuilder("zorro", time.Second).
		Filter(query.Eq(fields.DstPort, 23)).
		Join(vol, fields.DstIP).
		Filter(query.Contains(fields.Payload, "zorro")).
		Map(query.F(fields.DstIP), query.ConstCol(1)).
		Reduce(query.AggSum, fields.DstIP).
		Filter(query.Ge(fields.AggVal, 1)).
		MustBuild()
	q.ID = 10
	e := NewEngine(nil)
	if err := e.Install(q, 0, Partition{}); err != nil {
		t.Fatal(err)
	}

	victim := packet.IPv4Addr(99, 7, 0, 25)
	bystander := packet.IPv4Addr(99, 7, 0, 26)
	parser := packet.NewParser(packet.ParserOptions{})
	telnet := func(dst uint32, payload string, n int) {
		for i := 0; i < n; i++ {
			frame := packet.BuildFrame(nil, &packet.FrameSpec{
				SrcIP: 1, DstIP: dst, Proto: 6, SrcPort: 31337, DstPort: 23,
				TCPFlags: fields.FlagPSH, Payload: []byte(payload), Pad: 90,
			})
			var pkt packet.Packet
			if err := parser.Parse(frame, &pkt); err != nil {
				t.Fatal(err)
			}
			ingestPacket(e, 10, 0, SideLeft, &pkt)
			ingestPacket(e, 10, 0, SideRight, &pkt)
		}
	}
	telnet(victim, "admin", 10)          // similar-sized brute force
	telnet(victim, "run zorro go", 2)    // keyword after shell
	telnet(bystander, "run zorro go", 1) // keyword but low volume: no match

	results, _ := e.EndWindow()
	if len(results[0].Tuples) != 1 {
		t.Fatalf("zorro results = %+v", results[0].Tuples)
	}
	got := results[0].Tuples[0]
	if got[0].U != uint64(victim) || got[1].U != 2 {
		t.Errorf("zorro result = %v", got)
	}
}

func TestDynamicFilterGatesTraffic(t *testing.T) {
	// Level-2 instance of query 1 whose head carries a dynamic filter on
	// dIP/8 as produced by query augmentation.
	q := query1(0)
	dynOp := query.NewDynPacketFilter("q1.r8", fields.DstIP, 8)
	q.Left.Ops = append([]query.Op{dynOp}, q.Left.Ops...)
	q.ID = 1

	dyn := NewDynTables()
	e := NewEngine(dyn)
	if err := e.Install(q, 2, Partition{}); err != nil {
		t.Fatal(err)
	}
	inside := packet.IPv4Addr(9, 1, 2, 3)
	outside := packet.IPv4Addr(10, 1, 2, 3)

	// Before any update the table is empty: nothing passes.
	ingestPacket(e, 1, 2, SideLeft, mkSyn(t, 1, inside))
	if results, _ := e.EndWindow(); len(results[0].Tuples) != 0 {
		t.Error("empty dyn table let traffic through")
	}

	dyn.Publish("q1.r8", query.NewDynSet([]tuple.Value{
		query.MaskValue(fields.DstIP, tuple.U64(uint64(inside)), 8),
	}))
	ingestPacket(e, 1, 2, SideLeft, mkSyn(t, 1, inside))
	ingestPacket(e, 1, 2, SideLeft, mkSyn(t, 1, outside))
	results, _ := e.EndWindow()
	if len(results[0].Tuples) != 1 || results[0].Tuples[0][0].U != uint64(inside) {
		t.Fatalf("dyn filter results = %+v", results[0].Tuples)
	}
}

func TestAggFunctionsThroughEngine(t *testing.T) {
	build := func(f query.AggFunc) *query.Query {
		q := query.NewBuilder("m", time.Second).
			Map(query.F(fields.DstIP), query.F(fields.PktLen)).
			Reduce(f, fields.DstIP).
			MustBuild()
		q.ID = 2
		return q
	}
	for _, c := range []struct {
		f    query.AggFunc
		want uint64
	}{{query.AggMax, 1500}, {query.AggMin, 60}, {query.AggSum, 1560}} {
		e := NewEngine(nil)
		if err := e.Install(build(c.f), 0, Partition{}); err != nil {
			t.Fatal(err)
		}
		parser := packet.NewParser(packet.ParserOptions{})
		for _, pad := range []int{60, 1500} {
			frame := packet.BuildFrame(nil, &packet.FrameSpec{
				SrcIP: 1, DstIP: 2, Proto: 6, Pad: pad})
			var pkt packet.Packet
			if err := parser.Parse(frame, &pkt); err != nil {
				t.Fatal(err)
			}
			ingestPacket(e, 2, 0, SideLeft, &pkt)
		}
		results, _ := e.EndWindow()
		if len(results[0].Tuples) != 1 || results[0].Tuples[0][1].U != c.want {
			t.Errorf("%v: results = %+v, want %d", c.f, results[0].Tuples, c.want)
		}
	}
}

func TestMultipleLevelsIndependent(t *testing.T) {
	e := NewEngine(nil)
	if err := e.Install(query1(0), 1, Partition{}); err != nil {
		t.Fatal(err)
	}
	if err := e.Install(query1(0), 2, Partition{}); err != nil {
		t.Fatal(err)
	}
	ingestPacket(e, 1, 1, SideLeft, mkSyn(t, 1, 50))
	results, m := e.EndWindow()
	if m.Instances[0].Key != (QueryKey{1, 1}) || m.Instances[0].TuplesIn != 1 ||
		m.Instances[1].Key != (QueryKey{1, 2}) || m.Instances[1].TuplesIn != 0 {
		t.Errorf("per-instance metrics = %+v", m.Instances)
	}
	var r1, r2 *Result
	for i := range results {
		switch results[i].Level {
		case 1:
			r1 = &results[i]
		case 2:
			r2 = &results[i]
		}
	}
	if len(r1.Tuples) != 1 || len(r2.Tuples) != 0 {
		t.Errorf("level isolation broken: %+v / %+v", r1.Tuples, r2.Tuples)
	}
}

func TestInstallValidation(t *testing.T) {
	e := NewEngine(nil)
	if err := e.Install(query1(1), 0, Partition{LeftStart: 99}); err == nil {
		t.Error("out-of-range partition accepted")
	}
	bad := &query.Query{Name: "empty", Window: time.Second, Left: &query.Pipeline{}}
	if err := e.Install(bad, 0, Partition{}); err == nil {
		t.Error("empty query accepted")
	}
}

// TestInstallRefusesMalformedKeyCols: a keyed op whose key column lies
// outside the tuple entering it — what a query decoded from bytes may carry
// — is refused by Install (query.CheckOps), on the left pipeline and on a
// join's right one, rather than panicking while the executors are built.
func TestInstallRefusesMalformedKeyCols(t *testing.T) {
	left := query1(1)
	left.Left.Ops[2].KeyCols = []int{5}
	right := query.NewBuilder("right", time.Second).
		Map(query.F(fields.DstIP), query.F(fields.PktLen)).
		Reduce(query.AggSum, fields.DstIP)
	join := query.NewBuilder("join", time.Second).
		Map(query.F(fields.DstIP), query.ConstCol(1)).
		Reduce(query.AggSum, fields.DstIP).
		Join(right, fields.DstIP).
		MustBuild()
	join.ID = 2
	join.Right.Ops[1].KeyCols = []int{0, -1}
	e := NewEngine(nil)
	for _, q := range []*query.Query{left, join} {
		if err := e.Install(q, 0, Partition{}); err == nil {
			t.Errorf("q%d: key column out of range accepted", q.ID)
		} else if e.Instance(q.ID, 0) != nil {
			t.Errorf("q%d: refused, but installed", q.ID)
		}
	}
}

// TestInstallRefusesTupleDynFilter: a dynamic filter past the first map —
// keyed on a header field the tuple no longer carries — is refused by
// Install (query.CheckOps), which leaves nothing installed.
func TestInstallRefusesTupleDynFilter(t *testing.T) {
	q := query1(0)
	o := &q.Left.Ops[3]
	o.DynFilterTable, o.DynKeyField, o.DynLevel = "q1.r8", fields.DstIP, 8
	e := NewEngine(NewDynTables())
	if err := e.Install(q, 0, Partition{}); err == nil {
		t.Error("tuple-phase dynamic filter accepted")
	} else if e.Instance(q.ID, 0) != nil {
		t.Error("refused, but installed")
	}
}

// TestDynTables: a table serves exactly the set last published to it, and
// nil — which admits nothing — before the first.
func TestDynTables(t *testing.T) {
	d := NewDynTables()
	if d.Set("t") != nil {
		t.Error("an unpublished table has a set")
	}
	ab := query.NewDynSet([]tuple.Value{tuple.Str("a"), tuple.Str("b")})
	d.Publish("t", ab)
	if d.Set("t") != ab || d.Set("u") != nil {
		t.Error("Publish installed the wrong set")
	}
	if n := d.Set("t").Len(); n != 2 {
		t.Errorf("Len = %d", n)
	}
	a, c := query.NewDynSet([]tuple.Value{tuple.Str("a")}), query.NewDynSet([]tuple.Value{tuple.U64(3)})
	d.Publish("u", a)
	d.Publish("t", c)
	if d.Set("t") != c || d.Set("u") != a {
		t.Error("Publish did not replace exactly the named table")
	}
}
