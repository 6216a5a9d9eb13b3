package query

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/fields"
	"repro/internal/packet"
	"repro/internal/tuple"
)

// The kernels are driven against their scalar definitions — Clause.MatchValue
// / MatchPacket, Expr.EvalTuple / EvalPacket, set membership — over numeric
// and string columns, at batch lengths on both sides of the bitmap word
// boundary, from an empty, a sparse and a full selection; the packet-phase
// ones over a batch with no field extracted and over one with every field
// columns can carry.

var kernelLens = []int{0, 1, 63, 64, 65, 256}

// kernelSelections returns the three selections over n rows, named.
func kernelSelections(rng *rand.Rand, n int) map[string][]uint64 {
	sparse := make([]uint64, (n+63)>>6)
	for r := 0; r < n; r++ {
		if rng.Intn(3) == 0 {
			sparse[r>>6] |= 1 << uint(r&63)
		}
	}
	return map[string][]uint64{
		"empty":  make([]uint64, (n+63)>>6),
		"sparse": sparse,
		"full":   tuple.SelAll(nil, n),
	}
}

func selected(sel []uint64, r int) bool { return sel[r>>6]>>uint(r&63)&1 != 0 }

// checkSel holds got to exactly the rows want names.
func checkSel(t *testing.T, what string, got []uint64, n int, want func(r int) bool) {
	t.Helper()
	for r := 0; r < len(got)*64; r++ {
		if w := r < n && want(r); selected(got, r) != w {
			t.Fatalf("%s: row %d of %d selected=%v, want %v", what, r, n, !w, w)
		}
	}
}

// kernelPackets builds n parsed packets: TCP SYNs and ACKs over a small
// address space, DNS queries (the only ones with a name) and other UDP (no
// TCP flags, no name).
func kernelPackets(t *testing.T, rng *rand.Rand, n int) []*packet.Packet {
	t.Helper()
	parser := packet.NewParser(packet.ParserOptions{DecodeDNS: true})
	pkts := make([]*packet.Packet, n)
	for i := range pkts {
		spec := packet.FrameSpec{SrcIP: uint32(rng.Intn(16) + 1), DstIP: packet.IPv4Addr(9, byte(rng.Intn(4)), 1, byte(rng.Intn(8))),
			Proto: 6, SrcPort: 4000, DstPort: 80, Pad: 60 + rng.Intn(200),
			TCPFlags: []uint8{fields.FlagSYN, fields.FlagACK}[rng.Intn(2)]}
		var frame []byte
		switch rng.Intn(3) {
		case 0:
			frame = packet.BuildDNSQuery(nil, &spec, uint16(i), fmt.Sprintf("h%d.tunnel%d.example", rng.Intn(9), rng.Intn(3)), packet.DNSTypeTXT)
		case 1:
			spec.Proto, spec.DstPort = 17, 9999
			frame = packet.BuildFrame(nil, &spec)
		default:
			frame = packet.BuildFrame(nil, &spec)
		}
		pkts[i] = new(packet.Packet)
		if err := parser.Parse(frame, pkts[i]); err != nil {
			t.Fatal(err)
		}
	}
	return pkts
}

// kernelBatches returns pkts as the packet-phase kernels take them: bare, and
// with every extractable field in columns.
func kernelBatches(pkts []*packet.Packet) map[string]*PacketBatch {
	set := new(FieldSet)
	for _, f := range fields.All() {
		set.Add(f)
	}
	extracted := &PacketBatch{Pkts: pkts}
	extracted.Extract(set, tuple.SelAll(nil, len(pkts)))
	return map[string]*PacketBatch{"bare": {Pkts: pkts}, "extracted": extracted}
}

// kernelCols builds n rows of (small number, address, name, small number
// or zero) in the columns a batch keeps them in.
var kernelKinds = []bool{false, false, true, false}

func kernelCols(rng *rand.Rand, n int) []tuple.Column {
	cols := []tuple.Column{{U: make([]uint64, n)}, {U: make([]uint64, n)}, {V: make([]tuple.Value, n)}, {U: make([]uint64, n)}}
	for r := 0; r < n; r++ {
		cols[0].U[r] = uint64(rng.Intn(16))
		cols[1].U[r] = uint64(packet.IPv4Addr(9, byte(rng.Intn(4)), byte(rng.Intn(4)), 7))
		cols[2].V[r] = tuple.Str(fmt.Sprintf("h%d.tunnel%d.example", rng.Intn(9), rng.Intn(3)))
		cols[3].U[r] = uint64(rng.Intn(5))
	}
	return cols
}

func TestFilterKernelsMatchScalar(t *testing.T) {
	colClauses := [][]Clause{
		{{Col: 0, Cmp: CmpEq, Arg: tuple.U64(3)}},
		{{Col: 0, Cmp: CmpNe, Arg: tuple.U64(3)}},
		{{Col: 0, Cmp: CmpGt, Arg: tuple.U64(7)}, {Col: 3, Cmp: CmpLe, Arg: tuple.U64(2)}},
		{{Col: 0, Cmp: CmpGe, Arg: tuple.U64(0)}}, // passes every row
		{{Col: 0, Cmp: CmpLt, Arg: tuple.U64(0)}}, // passes none
		{{Col: 0, Cmp: CmpMaskEq, Mask: 3, Arg: tuple.U64(1)}},
		{{Col: 2, Cmp: CmpContains, Arg: tuple.Str("tunnel1")}},
		{{Col: 2, Cmp: CmpEq, Arg: tuple.Str("h1.tunnel1.example")}, {Col: 0, Cmp: CmpLt, Arg: tuple.U64(12)}},
		{{Col: 2, Cmp: CmpNe, Arg: tuple.Str("h1.tunnel1.example")}},
		{{Col: 2, Cmp: CmpEq, Arg: tuple.U64(3)}},              // a number against a string column
		{{Col: 0, Cmp: CmpContains, Arg: tuple.Str("3")}},      // a string test against a numeric column
		{{Col: 2, Cmp: CmpMaskEq, Mask: 1, Arg: tuple.U64(0)}}, // a bit test against a string column
	}
	pktClauses := [][]Clause{
		{Eq(fields.TCPFlags, fields.FlagSYN)},
		{Gt(fields.PktLen, 150), Eq(fields.Proto, 6)},
		{Contains(fields.DNSQName, "tunnel1")},
		{Ne(fields.DstPort, 53)},
		{MaskEq(fields.TCPFlags, fields.FlagSYN|fields.FlagACK, fields.FlagSYN)}, // UDP has no flags
		{Le(fields.SrcIP, 8), Ge(fields.PktLen, 100), Lt(fields.DstPort, 81)},
		{{Field: fields.Proto, Col: -1, Cmp: CmpEq, Arg: tuple.Str("6")}}, // a string against a number
		{{Field: fields.Proto, Col: -1, Cmp: CmpNe, Arg: tuple.Str("6")}},
		{Eq(fields.DNSQType, uint64(packet.DNSTypeTXT))}, // numeric, but not the switch's to parse
	}
	rng := rand.New(rand.NewSource(20))
	for _, n := range kernelLens {
		cols, pkts := kernelCols(rng, n), kernelPackets(t, rng, n)
		for name, sel := range kernelSelections(rng, n) {
			for ci, clauses := range colClauses {
				got := append([]uint64(nil), sel...)
				FilterCols(got, cols, clauses)
				checkSel(t, fmt.Sprintf("FilterCols n=%d %s clauses %d", n, name, ci), got, n, func(r int) bool {
					ok := selected(sel, r)
					for c := range clauses {
						ok = ok && clauses[c].MatchValue(cols[clauses[c].Col].At(r))
					}
					return ok
				})
			}
			for bname, b := range kernelBatches(pkts) {
				for ci, clauses := range pktClauses {
					got := append([]uint64(nil), sel...)
					FilterPackets(got, b, clauses)
					checkSel(t, fmt.Sprintf("FilterPackets n=%d %s %s clauses %d", n, name, bname, ci), got, n, func(r int) bool {
						ok := selected(sel, r)
						for c := range clauses {
							ok = ok && clauses[c].MatchPacket(pkts[r])
						}
						return ok
					})
				}
			}
		}
	}
}

func TestMapKernelsMatchScalar(t *testing.T) {
	col := func(c int) *Expr { return &Expr{Kind: ExprCol, Col: c} }
	colExprs := []Column{
		{Expr: *col(0)},
		{Expr: *col(2)},
		{Expr: Expr{Kind: ExprConst, Const: 7}},
		{Expr: Expr{Kind: ExprMask, Field: fields.DstIP, Level: 16, Sub: col(1)}},
		{Expr: Expr{Kind: ExprMask, Field: fields.DNSQName, Level: 2, Sub: col(2)}},
		{Expr: Expr{Kind: ExprShiftRound, Shift: 2, Sub: col(0)}},
		{Expr: Expr{Kind: ExprShiftRound, Shift: 8, Sub: &Expr{Kind: ExprMask, Field: fields.DstIP, Level: 24, Sub: col(1)}}},
		{Expr: Expr{Kind: ExprRatio, Col: 0, ColB: 3, Const: 100}}, // zero divisors included
		{Expr: Expr{Kind: ExprDiff, Col: 0, ColB: 3}},
		{Expr: Expr{Kind: ExprDiff, Col: 3, ColB: 0}},             // saturates
		{Expr: Expr{Kind: ExprShiftRound, Shift: 0, Sub: col(2)}}, // a string read as a number
		{Expr: Expr{Kind: ExprDiff, Col: 0, ColB: 2}},             // the same, as an operand
	}
	colKinds := make([]bool, len(colExprs))
	for c := range colExprs {
		colKinds[c] = colExprs[c].Expr.IsStr(kernelKinds)
	}
	pktExprs := [][]Column{
		{F(fields.SrcIP), MaskF(fields.DstIP, 16), RoundF(fields.PktLen, 64), ConstCol(1)},
		{F(fields.DstIP), F(fields.TCPFlags)},                            // UDP has no flags
		{MaskF(fields.DNSQName, 2), F(fields.SrcIP), F(fields.DNSQName)}, // only DNS queries have a name
		{MaskF(fields.SrcIP, 0), MaskF(fields.DstIP, 32), F(fields.DNSQType), MaskF(fields.DstIP, 8)},
		{{Expr: Expr{Kind: ExprShiftRound, Shift: 4, Sub: &Expr{Kind: ExprMask, Field: fields.DstIP, Level: 24, Sub: &Expr{Kind: ExprField, Field: fields.DstIP}}}}},
		{{Expr: Expr{Kind: ExprShiftRound, Shift: 1, Sub: &Expr{Kind: ExprField, Field: fields.DNSQName}}}}, // a name has no bits to shift
	}
	rng := rand.New(rand.NewSource(21))
	var pool tuple.ColumnPool
	for _, n := range kernelLens {
		cols, pkts := kernelCols(rng, n), kernelPackets(t, rng, n)
		// The tuple-phase map is total and ignores the selection: every row.
		pool.Reset(n)
		out := pool.Take(colKinds)
		MapCols(cols, n, colExprs, out)
		for r := 0; r < n; r++ {
			row := tuple.AppendRow(nil, cols, r)
			for c := range colExprs {
				if got, want := out[c].At(r), colExprs[c].Expr.EvalTuple(row); !got.Equal(want) || (out[c].V != nil) != colKinds[c] {
					t.Fatalf("MapCols n=%d row %d expr %s: %v, EvalTuple %v", n, r, &colExprs[c].Expr, got, want)
				}
			}
		}
		for name, sel := range kernelSelections(rng, n) {
			for bname, b := range kernelBatches(pkts) {
				for ei, exprs := range pktExprs {
					kinds := make([]bool, len(exprs))
					for c := range exprs {
						kinds[c] = exprs[c].Expr.IsStr(nil)
					}
					pool.Reset(n)
					out := pool.Take(kinds)
					got := append([]uint64(nil), sel...)
					MapPackets(got, b, exprs, out)
					what := fmt.Sprintf("MapPackets n=%d %s %s exprs %d", n, name, bname, ei)
					checkSel(t, what, got, n, func(r int) bool {
						ok := selected(sel, r)
						for c := range exprs {
							v, has := exprs[c].Expr.EvalPacket(pkts[r])
							if ok = ok && has; ok && !out[c].At(r).Equal(v) {
								t.Fatalf("%s: row %d column %d = %v, EvalPacket %v", what, r, c, out[c].At(r), v)
							}
						}
						return ok
					})
				}
			}
		}
	}
}

// TestMapColsToleratesUnwrittenRows is the switch's case: a landing map fills
// only the selected frames of a pooled column, and the tuple-phase map after
// it runs over all of them — a string column's untouched rows are zero
// Values, which a name mask must not take for numbers.
func TestMapColsToleratesUnwrittenRows(t *testing.T) {
	var pool tuple.ColumnPool
	pool.Reset(3)
	in := pool.Take([]bool{true})
	in[0].Set(1, tuple.Str("a.b.example"))
	out := pool.Take([]bool{true})
	mask := []Column{{Expr: Expr{Kind: ExprMask, Field: fields.DNSQName, Level: 2, Sub: &Expr{Kind: ExprCol, Col: 0}}}}
	MapCols(in, 3, mask, out)
	if got := out[0].At(1); !got.Equal(tuple.Str("b.example")) {
		t.Fatalf("masked row = %v", got)
	}
}

// TestContainsKeyBatchMatchesScalar holds the rule set's two probes — a
// packet at a time and over a selection — to plain membership of the
// packet's key field masked to the filter's level, which is how keys are
// installed: a numeric key (0, the flat table's empty-slot marker, and
// 2^64-1 among them) is probed as a uint64, a DNS-level key as a name. The
// set is built once without key 0 and once with it, which admits every
// source address at /8 here.
func TestContainsKeyBatchMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ops := []*Op{
		{Kind: OpFilter, DynFilterTable: "src32", DynKeyField: fields.SrcIP, DynLevel: 32},
		{Kind: OpFilter, DynFilterTable: "src8", DynKeyField: fields.SrcIP, DynLevel: 8},
		{Kind: OpFilter, DynFilterTable: "dst16", DynKeyField: fields.DstIP, DynLevel: 16},
		{Kind: OpFilter, DynFilterTable: "dns2", DynKeyField: fields.DNSQName, DynLevel: 2},
	}
	var keys []tuple.Value
	for i := 0; i < 8; i++ {
		keys = append(keys, tuple.U64(uint64(rng.Intn(16)+1)))
	}
	keys = append(keys, tuple.U64(uint64(packet.IPv4Addr(9, 0, 0, 0))), tuple.U64(uint64(packet.IPv4Addr(9, 2, 0, 0))),
		tuple.U64(^uint64(0)), MaskValue(fields.DNSQName, tuple.Str("x.tunnel1.example"), 2), tuple.Str(""))
	hit, miss := make(map[*Op]bool), make(map[*Op]bool)
	for _, keys := range [][]tuple.Value{keys, append(slices.Clone(keys), tuple.U64(0))} {
		member := make(map[tuple.Value]bool)
		for _, k := range keys {
			member[k] = true
		}
		set := NewDynSet(keys)
		if set.Len() != len(keys) {
			t.Fatalf("set of %d keys: Len %d", len(keys), set.Len())
		}
		var none *DynSet
		for _, n := range kernelLens {
			pkts := kernelPackets(t, rng, n)
			for name, sel := range kernelSelections(rng, n) {
				for _, o := range ops {
					want := func(r int) bool {
						v, has := pkts[r].Field(o.DynKeyField)
						ok := has && member[MaskValue(o.DynKeyField, v, o.DynLevel)]
						if set.MatchPacket(o, pkts[r]) != ok || none.MatchPacket(o, pkts[r]) {
							t.Fatalf("n=%d packet %d table %s: MatchPacket disagrees with membership %v", n, r, o.DynFilterTable, ok)
						}
						hit[o], miss[o] = hit[o] || ok, miss[o] || has && !ok
						return ok && selected(sel, r)
					}
					for bname, b := range kernelBatches(pkts) {
						got := append([]uint64(nil), sel...)
						set.FilterPackets(got, b, o)
						checkSel(t, fmt.Sprintf("DynSet.FilterPackets n=%d %s %s table %s", n, name, bname, o.DynFilterTable), got, n, want)
						NewDynSet(nil).FilterPackets(got, b, o)
						checkSel(t, "an empty set", got, n, func(int) bool { return false })
					}
				}
			}
		}
	}
	for _, o := range ops {
		if !hit[o] || !miss[o] {
			t.Errorf("vacuous: table %s admitted some packet %v, refused some %v", o.DynFilterTable, hit[o], miss[o])
		}
	}
}

func TestColumnKinds(t *testing.T) {
	q := NewBuilder("kinds", time.Second).
		Filter(Eq(fields.Proto, 17)).
		Map(F(fields.DNSQName), F(fields.SrcIP), ConstCol(1)).
		Map(MaskC(fields.DNSQName, 2), C(fields.ConstV)).
		Reduce(AggSum, fields.DNSQName).
		Filter(Gt(fields.AggVal, 3)).
		MustBuild()
	got := fmt.Sprint(ColumnKinds(q.Left.Ops, nil))
	if want := "[[] [] [true false false] [true false] [true false] [true false]]"; got != want {
		t.Fatalf("ColumnKinds = %s, want %s", got, want)
	}
}
