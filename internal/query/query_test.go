package query

import (
	"strings"
	"testing"
	"time"

	"repro/internal/fields"
	"repro/internal/packet"
	"repro/internal/tuple"
)

func synPacket(t *testing.T, dst uint32) *packet.Packet {
	t.Helper()
	frame := packet.BuildFrame(nil, &packet.FrameSpec{
		SrcIP: packet.IPv4Addr(10, 0, 0, 1), DstIP: dst, Proto: 6,
		SrcPort: 1234, DstPort: 80, TCPFlags: fields.FlagSYN, Pad: 60,
	})
	var pkt packet.Packet
	if err := packet.NewParser(packet.ParserOptions{}).Parse(frame, &pkt); err != nil {
		t.Fatal(err)
	}
	return &pkt
}

func TestBuilderQuery1Shape(t *testing.T) {
	q := NewBuilder("q1", 3*time.Second).
		Filter(Eq(fields.TCPFlags, 2)).
		Map(F(fields.DstIP), ConstCol(1)).
		Reduce(AggSum, fields.DstIP).
		Filter(Gt(fields.AggVal, 40)).
		MustBuild()

	if len(q.Left.Ops) != 4 {
		t.Fatalf("ops = %d", len(q.Left.Ops))
	}
	kinds := []OpKind{OpFilter, OpMap, OpReduce, OpFilter}
	for i, k := range kinds {
		if q.Left.Ops[i].Kind != k {
			t.Errorf("op %d kind = %v, want %v", i, q.Left.Ops[i].Kind, k)
		}
	}
	if !q.Left.Ops[0].PacketPhase() || q.Left.Ops[3].PacketPhase() {
		t.Error("phase tracking wrong")
	}
	want := tuple.Schema{fields.DstIP, fields.AggVal}
	if !q.FinalSchema().Equal(want) {
		t.Errorf("final schema = %s, want %s", q.FinalSchema(), want)
	}
	if q.HasJoin() {
		t.Error("q1 should not join")
	}
}

func TestBuilderErrors(t *testing.T) {
	cases := map[string]*Builder{
		"empty": NewBuilder("x", time.Second),
		"reduce before map": NewBuilder("x", time.Second).
			Reduce(AggSum, fields.DstIP),
		"bad filter column": NewBuilder("x", time.Second).
			Map(F(fields.DstIP), ConstCol(1)).
			Filter(Gt(fields.SrcIP, 1)),
		"reduce key missing": NewBuilder("x", time.Second).
			Map(F(fields.DstIP), ConstCol(1)).
			Reduce(AggSum, fields.SrcIP),
		"reduce no value": NewBuilder("x", time.Second).
			Map(F(fields.DstIP)).
			Reduce(AggSum, fields.DstIP),
		"reduce two values": NewBuilder("x", time.Second).
			Map(F(fields.DstIP), F(fields.SrcIP), ConstCol(1)).
			Reduce(AggSum, fields.DstIP),
		"duplicate map names": NewBuilder("x", time.Second).
			Map(F(fields.DstIP), F(fields.DstIP)),
		"distinct before map": NewBuilder("x", time.Second).
			Distinct(),
		"zero window": NewBuilder("x", 0).
			Map(F(fields.DstIP), ConstCol(1)),
		"join without keys": NewBuilder("x", time.Second).
			Filter(Eq(fields.Proto, 6)).
			Join(NewBuilder("y", time.Second).Map(F(fields.DstIP), ConstCol(1))),
		"join key missing in sub": NewBuilder("x", time.Second).
			Filter(Eq(fields.Proto, 6)).
			Join(NewBuilder("y", time.Second).Map(F(fields.SrcPort), ConstCol(1)), fields.DstIP),
		"join sub in packet phase": NewBuilder("x", time.Second).
			Filter(Eq(fields.Proto, 6)).
			Join(NewBuilder("y", time.Second).Filter(Eq(fields.Proto, 6)), fields.DstIP),
	}
	for name, b := range cases {
		if _, err := b.Build(); err == nil {
			t.Errorf("%s: Build succeeded, want error", name)
		}
	}
}

func TestClauseEvaluation(t *testing.T) {
	pkt := synPacket(t, packet.IPv4Addr(1, 2, 3, 4))
	cases := []struct {
		cl   Clause
		want bool
	}{
		{Eq(fields.TCPFlags, 2), true},
		{Eq(fields.TCPFlags, 16), false},
		{Ne(fields.DstPort, 80), false},
		{Gt(fields.PktLen, 50), true},
		{Ge(fields.PktLen, 60), true},
		{Lt(fields.SrcPort, 2000), true},
		{Le(fields.SrcPort, 1233), false},
		{MaskEq(fields.TCPFlags, fields.FlagSYN, fields.FlagSYN), true},
		{MaskEq(fields.TCPFlags, fields.FlagACK, fields.FlagACK), false},
		{Eq(fields.DNSQType, 1), false}, // missing field never matches
	}
	for i, c := range cases {
		if got := c.cl.MatchPacket(pkt); got != c.want {
			t.Errorf("case %d (%s): got %v, want %v", i, c.cl.String(), got, c.want)
		}
	}
}

func TestContainsClause(t *testing.T) {
	frame := packet.BuildFrame(nil, &packet.FrameSpec{
		SrcIP: 1, DstIP: 2, Proto: 6, DstPort: 23,
		TCPFlags: fields.FlagPSH, Payload: []byte("run zorro now"),
	})
	var pkt packet.Packet
	if err := packet.NewParser(packet.ParserOptions{}).Parse(frame, &pkt); err != nil {
		t.Fatal(err)
	}
	hit := Contains(fields.Payload, "zorro")
	if !hit.MatchPacket(&pkt) {
		t.Error("contains missed keyword")
	}
	miss := Contains(fields.Payload, "zeus")
	if miss.MatchPacket(&pkt) {
		t.Error("contains false positive")
	}
}

func TestExprEvaluation(t *testing.T) {
	pkt := synPacket(t, packet.IPv4Addr(192, 168, 1, 77))
	dip := F(fields.DstIP).Expr
	if v, ok := dip.EvalPacket(pkt); !ok || v.U != uint64(packet.IPv4Addr(192, 168, 1, 77)) {
		t.Errorf("F(DstIP) = %v, %v", v, ok)
	}
	masked := MaskF(fields.DstIP, 16).Expr
	if v, _ := masked.EvalPacket(pkt); v.U != uint64(packet.IPv4Addr(192, 168, 0, 0)) {
		t.Errorf("MaskF /16 = %v", v)
	}
	rounded := RoundF(fields.PktLen, 64).Expr
	if v, _ := rounded.EvalPacket(pkt); v.U != 60/64 {
		t.Errorf("RoundF = %v", v)
	}

	// Tuple-phase arithmetic.
	schema := tuple.Schema{fields.DstIP, fields.AggVal, fields.AggVal2}
	vals := []tuple.Value{tuple.U64(9), tuple.U64(30), tuple.U64(7)}
	ratio := Ratio(fields.AggVal, fields.AggVal2, 100)
	resolveExpr(&ratio.Expr, schema)
	if v := ratio.Expr.EvalTuple(vals); v.U != 30*100/7 {
		t.Errorf("Ratio = %d", v.U)
	}
	diff := Diff(fields.AggVal, fields.AggVal2)
	resolveExpr(&diff.Expr, schema)
	if v := diff.Expr.EvalTuple(vals); v.U != 23 {
		t.Errorf("Diff = %d", v.U)
	}
	// Saturating: reversed operands clamp to zero.
	diff2 := Diff(fields.AggVal2, fields.AggVal)
	resolveExpr(&diff2.Expr, schema)
	if v := diff2.Expr.EvalTuple(vals); v.U != 0 {
		t.Errorf("saturating Diff = %d", v.U)
	}
	// Division by zero yields zero, not a panic.
	vals[2] = tuple.U64(0)
	if v := ratio.Expr.EvalTuple(vals); v.U != 0 {
		t.Errorf("Ratio/0 = %d", v.U)
	}
}

func TestRoundFRejectsNonPowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("RoundF(100) did not panic")
		}
	}()
	RoundF(fields.PktLen, 100)
}

func TestAggFuncs(t *testing.T) {
	cases := []struct {
		f        AggFunc
		a, b, ok uint64
	}{
		{AggSum, 3, 4, 7},
		{AggMax, 3, 4, 4},
		{AggMax, 9, 4, 9},
		{AggMin, 3, 4, 3},
		{AggMin, 9, 4, 4},
		{AggBitOr, 1, 2, 3},
	}
	for _, c := range cases {
		if got := c.f.Apply(c.a, c.b); got != c.ok {
			t.Errorf("%v(%d,%d) = %d, want %d", c.f, c.a, c.b, got, c.ok)
		}
	}
}

func TestJoinSchemas(t *testing.T) {
	sub := NewBuilder("bytes", time.Second).
		Filter(Eq(fields.Proto, 6)).
		Map(F(fields.DstIP), F(fields.PktLen)).
		Reduce(AggSum, fields.DstIP).
		Filter(Gt(fields.AggVal, 100))
	q := NewBuilder("slowloris", time.Second).
		Filter(Eq(fields.Proto, 6)).
		Map(F(fields.DstIP), F(fields.SrcIP), F(fields.SrcPort)).
		Distinct().
		Map(C(fields.DstIP), ConstCol(1)).
		Reduce(AggSum, fields.DstIP).
		Join(sub, fields.DstIP).
		Map(C(fields.DstIP), Ratio(fields.AggVal, fields.AggVal2, 1000)).
		Filter(Gt(fields.AggVal, 5)).
		MustBuild()

	if !q.HasJoin() {
		t.Fatal("join lost")
	}
	joined := q.joinedSchema()
	want := tuple.Schema{fields.DstIP, fields.AggVal, fields.AggVal2}
	if !joined.Equal(want) {
		t.Errorf("joined schema = %s, want %s", joined, want)
	}
	final := q.FinalSchema()
	if !final.Equal(tuple.Schema{fields.DstIP, fields.AggVal}) {
		t.Errorf("final schema = %s", final)
	}
	if err := Validate(q); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestPacketPhaseJoin(t *testing.T) {
	sub := NewBuilder("vol", time.Second).
		Filter(Eq(fields.DstPort, 23)).
		Map(F(fields.DstIP), ConstCol(1)).
		Reduce(AggSum, fields.DstIP).
		Filter(Gt(fields.AggVal, 10))
	q := NewBuilder("zorro", time.Second).
		Filter(Eq(fields.DstPort, 23)).
		Join(sub, fields.DstIP).
		Filter(Contains(fields.Payload, "zorro")).
		Map(F(fields.DstIP), ConstCol(1)).
		Reduce(AggSum, fields.DstIP).
		MustBuild()

	// Post-join ops should be in packet phase until the map.
	if !q.Post.Ops[0].PacketPhase() {
		t.Error("post-join filter should be packet-phase")
	}
	if q.Post.Ops[2].PacketPhase() {
		t.Error("post-join reduce should be tuple-phase")
	}
}

func TestSwitchSupport(t *testing.T) {
	sup := func(o *Op) bool { return OpSwitchSupport(o).OK }

	q := NewBuilder("q", time.Second).
		Filter(Eq(fields.TCPFlags, 2)).
		Map(F(fields.DstIP), ConstCol(1)).
		Reduce(AggSum, fields.DstIP).
		MustBuild()
	for i := range q.Left.Ops {
		if !sup(&q.Left.Ops[i]) {
			t.Errorf("op %d should be switch-supported", i)
		}
	}
	if n := SwitchPrefixLen(q.Left); n != 3 {
		t.Errorf("SwitchPrefixLen = %d, want 3", n)
	}

	// Payload contains: unsupported.
	qp := NewBuilder("p", time.Second).
		Filter(Contains(fields.Payload, "x")).
		Map(F(fields.DstIP), ConstCol(1)).
		MustBuild()
	if SwitchPrefixLen(qp.Left) != 0 {
		t.Error("payload filter must not be switch-supported")
	}

	// DNS name key: stateful op unsupported, but map of dns name is also
	// not parsable on the switch.
	qd := NewBuilder("d", time.Second).
		Map(F(fields.SrcIP), F(fields.DNSQName)).
		Distinct().
		MustBuild()
	if got := SwitchPrefixLen(qd.Left); got != 0 {
		t.Errorf("DNS-name map should stop the switch prefix, got %d", got)
	}

	// Ratio: unsupported on switch.
	ratioOp := Op{Kind: OpMap, Cols: []Column{{Name: fields.AggVal,
		Expr: Expr{Kind: ExprRatio, Col: 0, ColB: 1, Const: 10}}}}
	if sup(&ratioOp) {
		t.Error("ratio map must not be switch-supported")
	}
}

func TestFindRefinementKey(t *testing.T) {
	q := NewBuilder("q1", time.Second).
		Filter(Eq(fields.TCPFlags, 2)).
		Map(F(fields.DstIP), ConstCol(1)).
		Reduce(AggSum, fields.DstIP).
		Filter(Gt(fields.AggVal, 40)).
		MustBuild()
	rk, ok := FindRefinementKey(q.Left)
	if !ok || rk.Field != fields.DstIP || rk.MaxLevel != 32 {
		t.Errorf("refinement key = %+v, %v", rk, ok)
	}

	// A "less than" threshold disqualifies refinement.
	qlt := NewBuilder("lt", time.Second).
		Map(F(fields.DstIP), ConstCol(1)).
		Reduce(AggSum, fields.DstIP).
		Filter(Lt(fields.AggVal, 40)).
		MustBuild()
	if _, ok := FindRefinementKey(qlt.Left); ok {
		t.Error("Lt-threshold query must not be refinable")
	}

	// No hierarchical key.
	qport := NewBuilder("ports", time.Second).
		Map(F(fields.SrcPort), ConstCol(1)).
		Reduce(AggSum, fields.SrcPort).
		Filter(Gt(fields.AggVal, 40)).
		MustBuild()
	if _, ok := FindRefinementKey(qport.Left); ok {
		t.Error("port-keyed query must not be refinable")
	}

	// Stateless query: nothing to refine.
	qsl := NewBuilder("sl", time.Second).
		Filter(Eq(fields.Proto, 6)).
		MustBuild()
	if _, ok := FindRefinementKey(qsl.Left); ok {
		t.Error("stateless query must not be refinable")
	}
}

func TestQueryRefinementKeyJoin(t *testing.T) {
	sub := NewBuilder("bytes", time.Second).
		Map(F(fields.DstIP), F(fields.PktLen)).
		Reduce(AggSum, fields.DstIP).
		Filter(Gt(fields.AggVal, 100))
	q := NewBuilder("j", time.Second).
		Map(F(fields.DstIP), F(fields.SrcIP)).
		Distinct().
		Map(C(fields.DstIP), ConstCol(1)).
		Reduce(AggSum, fields.DstIP).
		Join(sub, fields.DstIP).
		MustBuild()
	rk, ok := QueryRefinementKey(q)
	if !ok || rk.Field != fields.DstIP {
		t.Errorf("join refinement key = %+v, %v", rk, ok)
	}

	// Join on a non-hierarchical key: not refinable.
	sub2 := NewBuilder("s2", time.Second).
		Map(F(fields.SrcPort), ConstCol(1)).
		Reduce(AggSum, fields.SrcPort)
	q2 := NewBuilder("j2", time.Second).
		Map(F(fields.SrcPort), F(fields.PktLen)).
		Reduce(AggSum, fields.SrcPort).
		Join(sub2, fields.SrcPort).
		MustBuild()
	if _, ok := QueryRefinementKey(q2); ok {
		t.Error("port-joined query must not be refinable")
	}
}

func TestQueryCloneIndependence(t *testing.T) {
	q := NewBuilder("q1", time.Second).
		Filter(Eq(fields.TCPFlags, 2)).
		Map(F(fields.DstIP), ConstCol(1)).
		Reduce(AggSum, fields.DstIP).
		MustBuild()
	c := q.Clone()
	c.Left.Ops[0].Clauses[0].Arg = tuple.U64(99)
	if q.Left.Ops[0].Clauses[0].Arg.U != 2 {
		t.Error("Clone shares clause storage")
	}
	c.Left.Ops[1].Cols[0].Expr.Field = fields.SrcIP
	if q.Left.Ops[1].Cols[0].Expr.Field != fields.DstIP {
		t.Error("Clone shares column storage")
	}
}

func TestStringRendering(t *testing.T) {
	q := NewBuilder("q1", 3*time.Second).
		Filter(Eq(fields.TCPFlags, 2)).
		Map(F(fields.DstIP), ConstCol(1)).
		Reduce(AggSum, fields.DstIP).
		Filter(Gt(fields.AggVal, 40)).
		MustBuild()
	s := q.String()
	for _, frag := range []string{"packetStream", ".filter(p.tcp.flags == 2)", ".map(p => (p.ipv4.dIP, 1))", ".reduce(keys=(ipv4.dIP), f=sum)", "agg > 40"} {
		if !strings.Contains(s, frag) {
			t.Errorf("rendering missing %q in:\n%s", frag, s)
		}
	}
	if q.LinesOfCode() != 5 {
		t.Errorf("LinesOfCode = %d, want 5", q.LinesOfCode())
	}
}

// TestCheckOpsRejectsWhatEvaluationCannotRun: a pipeline the builder made
// passes CheckOps, and each way a decoded one can break what evaluation
// indexes without checking — a kind, a field, a column, a phase, a schema —
// is an error, and so is a dynamic filter past the packet phase, which only a
// packet's header field keys.
func TestCheckOpsRejectsWhatEvaluationCannotRun(t *testing.T) {
	pipeline := func() []Op {
		q := NewBuilder("q", time.Second).
			Filter(Eq(fields.TCPFlags, fields.FlagSYN)).
			Map(MaskF(fields.DstIP, 16), ConstCol(1)).
			Reduce(AggSum, fields.DstIP).
			Filter(Gt(fields.AggVal, 2)).
			MustBuild()
		ops := []Op{NewDynPacketFilter("q.r16", fields.DstIP, 8)}
		for i := range q.Left.Ops {
			ops = append(ops, *q.Left.Ops[i].Clone())
		}
		return ops // dyn filter, filter, map, reduce, filter
	}
	const unregistered = fields.ID(250)
	cases := map[string]func(ops []Op) []Op{
		"operator kind":             func(ops []Op) []Op { ops[3].Kind = 9; return ops },
		"comparison":                func(ops []Op) []Op { ops[1].Clauses[0].Cmp = 99; return ops },
		"packet clause field":       func(ops []Op) []Op { ops[1].Clauses[0].Field = unregistered; return ops },
		"tuple clause column":       func(ops []Op) []Op { ops[4].Clauses[0].Col = 7; return ops },
		"dyn filter without levels": func(ops []Op) []Op { ops[0].DynKeyField = fields.TCPFlags; return ops },
		"dyn filter in tuple phase": func(ops []Op) []Op { ops[4].DynFilterTable, ops[4].DynKeyField = "q.r16", fields.DstIP; return ops },
		"expression field":          func(ops []Op) []Op { ops[2].Cols[0].Expr.Sub.Field = unregistered; return ops },
		"expression kind":           func(ops []Op) []Op { ops[2].Cols[1].Expr.Kind = 42; return ops },
		"mask without operand":      func(ops []Op) []Op { ops[2].Cols[0].Expr.Sub = nil; return ops },
		"mask without levels":       func(ops []Op) []Op { ops[2].Cols[0].Expr.Field = fields.TCPFlags; return ops },
		"column in packet phase":    func(ops []Op) []Op { ops[2].Cols[1].Expr = Expr{Kind: ExprCol}; return ops },
		"column name":               func(ops []Op) []Op { ops[2].Cols[1].Name = unregistered; return ops },
		"key column":                func(ops []Op) []Op { ops[3].KeyCols = []int{5}; return ops },
		"value column":              func(ops []Op) []Op { ops[3].ValCol = 5; return ops },
		"aggregation":               func(ops []Op) []Op { ops[3].Func = 9; return ops },
		"keyed state on packets":    func(ops []Op) []Op { return []Op{ops[0], ops[3]} },
		"schema width":              func(ops []Op) []Op { ops[3].inSchema = ops[3].inSchema[:1]; return ops },
		"schema field":              func(ops []Op) []Op { ops[3].outSchema[0] = unregistered; return ops },
		"phase flag":                func(ops []Op) []Op { ops[4].packetPhase = true; return ops },
	}
	if err := CheckOps(pipeline()); err != nil {
		t.Fatalf("a built pipeline is rejected: %v", err)
	}
	for name, mutate := range cases {
		if err := CheckOps(mutate(pipeline())); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
