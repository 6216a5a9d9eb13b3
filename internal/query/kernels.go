package query

import (
	"math/bits"

	"repro/internal/fields"
	"repro/internal/packet"
	"repro/internal/tuple"
)

// The column kernels: one implementation of each operator over a batch, run
// by the switch walk (internal/pisa) before the partition point and by the
// stream executor (internal/stream) after it. A batch is a set of
// tuple.Columns (or, in packet phase, a PacketBatch) indexed by row, plus a
// selection bitmap; a kernel clears the bit of every row its operator
// drops and never moves a row, so whatever a caller keeps per row — shunt
// records, frame indices, arrival order — stays aligned. Rows are visited in
// ascending order. A packet-phase kernel reads a header field the batch
// extracted as a column, and any other field from the packet, row by row.

// ColumnKinds returns, for each op of a pipeline, which columns of the tuple
// entering it are string-valued, and at index len(ops) those of the tuple
// leaving it; in describes what enters op 0 (nil for packets, and the result
// stays nil up to the first map).
func ColumnKinds(ops []Op, in []bool) [][]bool {
	kinds := make([][]bool, len(ops)+1)
	for i := range ops {
		kinds[i] = in
		o := &ops[i]
		switch {
		case o.Kind == OpMap:
			out := make([]bool, len(o.Cols))
			for c := range o.Cols {
				out[c] = o.Cols[c].Expr.IsStr(in)
			}
			in = out
		case o.Stateful() && in != nil:
			out := make([]bool, len(o.KeyCols), len(o.KeyCols)+1)
			for j, k := range o.KeyCols {
				out[j] = in[k]
			}
			if o.Kind == OpReduce {
				out = append(out, false)
			}
			in = out
		}
	}
	kinds[len(ops)] = in
	return kinds
}

// FilterCols is the tuple-phase filter: it deselects every row whose tuple
// fails a clause.
func FilterCols(sel []uint64, cols []tuple.Column, clauses []Clause) {
	for c := range clauses {
		cl := &clauses[c]
		col := &cols[cl.Col]
		for w, word := range sel {
			for b := word; b != 0; b &= b - 1 {
				bit := bits.TrailingZeros64(b)
				if !cl.MatchValue(col.At(w<<6 | bit)) {
					sel[w] &^= 1 << uint(bit)
				}
			}
		}
	}
}

// FilterPackets is the packet-phase filter: it deselects every packet that
// fails a clause. A numeric clause on an extracted field is one loop over the
// rows that carry the field; any other clause asks the packet.
func FilterPackets(sel []uint64, b *PacketBatch, clauses []Clause) {
	for c := range clauses {
		cl := &clauses[c]
		vals, has, ok := b.Column(cl.Field)
		if !ok || cl.Arg.Str || cl.Cmp == CmpContains {
			for w, word := range sel {
				for rest := word; rest != 0; rest &= rest - 1 {
					bit := bits.TrailingZeros64(rest)
					if !cl.MatchPacket(b.Pkts[w<<6|bit]) {
						sel[w] &^= 1 << uint(bit)
					}
				}
			}
			continue
		}
		for w := range sel {
			var pass uint64
			for rest := sel[w] & has[w]; rest != 0; rest &= rest - 1 {
				bit := bits.TrailingZeros64(rest)
				if cl.matchU64(vals[w<<6|bit]) {
					pass |= 1 << uint(bit)
				}
			}
			sel[w] = pass
		}
	}
}

// MapPackets is the packet-phase map, where packets become tuples: it
// evaluates each output expression on every selected packet into row-aligned
// columns, deselecting the packets that lack a field. An expression over an
// extracted field (or none) evaluates column-at-a-time over every row, like a
// tuple-phase map — a bare field's output is the batch's column itself, which
// nothing downstream writes; any other expression asks the packets.
func MapPackets(sel []uint64, b *PacketBatch, exprs []Column, out []tuple.Column) {
	for c := range exprs {
		e := &exprs[c].Expr
		if e.Kind == ExprField {
			if vals, has, ok := b.Column(e.Field); ok {
				out[c].U = vals
				tuple.SelAnd(sel, has)
				continue
			}
		}
		if has, ok := e.evalPacketCols(b, out[c].U); ok {
			if has != nil {
				tuple.SelAnd(sel, has)
			}
			continue
		}
		for w, word := range sel {
			for rest := word; rest != 0; rest &= rest - 1 {
				bit := bits.TrailingZeros64(rest)
				i := w<<6 | bit
				val, ok := e.EvalPacket(b.Pkts[i])
				if !ok {
					sel[w] &^= 1 << uint(bit)
					continue
				}
				out[c].Set(i, val)
			}
		}
	}
}

// MapCols is the tuple-phase map over rows [0, n): each output expression
// evaluates column-at-a-time (Expr.EvalTupleCols), deselected rows included.
func MapCols(cols []tuple.Column, n int, exprs []Column, out []tuple.Column) {
	for c := range exprs {
		exprs[c].Expr.EvalTupleCols(cols, n, out[c])
	}
}

// DynSet is one immutable generation of a dynamic-refinement filter table:
// the keys level To admits this window (Figure 4's red filters). The runtime
// builds one per link at window close and publishes the same value to the
// switch table and the stream processor's filter through atomic pointers, so
// a probe takes no lock and never sees a half-written table. A key is a
// value already masked to the filter's level (MaskValue): a numeric one —
// an address prefix — goes into a flat table (u64Set) whose probe is one
// cache line, a name into a map. A nil set admits nothing: finer levels stay
// idle until the coarser one reports.
type DynSet struct {
	n    int
	nums u64Set
	strs map[string]struct{}
}

// NewDynSet builds the set admitting keys, each masked to the level of the
// filters it is published to.
func NewDynSet(keys []tuple.Value) *DynSet {
	nums := 0
	for _, k := range keys {
		if !k.Str {
			nums++
		}
	}
	s := &DynSet{n: len(keys), nums: newU64Set(nums)}
	if nums < len(keys) {
		s.strs = make(map[string]struct{}, len(keys)-nums)
	}
	for _, k := range keys {
		if k.Str {
			s.strs[k.S] = struct{}{}
		} else {
			s.nums.add(k.U)
		}
	}
	return s
}

// Len returns the number of entries the set was built from — what
// installing it writes.
func (s *DynSet) Len() int {
	if s == nil {
		return 0
	}
	return s.n
}

// MatchPacket reports whether the packet's key field, masked to dynamic
// filter o's level, is admitted.
func (s *DynSet) MatchPacket(o *Op, p *packet.Packet) bool {
	v, ok := p.Field(o.DynKeyField)
	if !ok || s == nil {
		return false
	}
	if !v.Str {
		return s.nums.has(fields.TruncateU64(o.DynKeyField, v.U, o.DynLevel))
	}
	_, ok = s.strs[MaskValue(o.DynKeyField, v, o.DynLevel).S]
	return ok
}

// FilterPackets deselects every packet MatchPacket rejects. A key field the
// batch extracted is probed as a column — the level's shift resolved once, a
// row a shift and a flat-table probe; any other key (a name) asks the packet.
func (s *DynSet) FilterPackets(sel []uint64, b *PacketBatch, o *Op) {
	if s.Len() == 0 {
		clear(sel)
		return
	}
	vals, has, ok := b.Column(o.DynKeyField)
	if !ok {
		for w, word := range sel {
			for rest := word; rest != 0; rest &= rest - 1 {
				bit := bits.TrailingZeros64(rest)
				if !s.MatchPacket(o, b.Pkts[w<<6|bit]) {
					sel[w] &^= 1 << uint(bit)
				}
			}
		}
		return
	}
	shift := fields.LevelShift(o.DynKeyField, o.DynLevel)
	for w := range sel {
		var pass uint64
		for rest := sel[w] & has[w]; rest != 0; rest &= rest - 1 {
			bit := bits.TrailingZeros64(rest)
			if s.nums.has(vals[w<<6|bit] >> shift << shift) {
				pass |= 1 << uint(bit)
			}
		}
		sel[w] = pass
	}
}
