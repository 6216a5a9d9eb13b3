package query

import (
	"encoding/binary"
	"math/bits"

	"repro/internal/fields"
	"repro/internal/packet"
	"repro/internal/tuple"
)

// The column kernels: one implementation of each operator over a batch, run
// by the switch walk (internal/pisa) before the partition point and by the
// stream executor (internal/stream) after it. A batch is a set of
// tuple.Columns (or, in packet phase, of packets) indexed by row, plus a
// selection bitmap; a kernel clears the bit of every row its operator
// drops and never moves a row, so whatever a caller keeps per row — shunt
// records, frame indices, arrival order — stays aligned. Rows are visited in
// ascending order.

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
// fails a clause.
func FilterPackets(sel []uint64, pkts []*packet.Packet, clauses []Clause) {
	for w, word := range sel {
	next:
		for b := word; b != 0; b &= b - 1 {
			bit := bits.TrailingZeros64(b)
			for c := range clauses {
				if !clauses[c].MatchPacket(pkts[w<<6|bit]) {
					sel[w] &^= 1 << uint(bit)
					continue next
				}
			}
		}
	}
}

// MapPackets is the packet-phase map, where packets become tuples: it
// evaluates each output expression on every selected packet into row-aligned
// columns, deselecting the packets that lack a field.
func MapPackets(sel []uint64, pkts []*packet.Packet, exprs []Column, out []tuple.Column) {
	for w, word := range sel {
		for b := word; b != 0; b &= b - 1 {
			bit := bits.TrailingZeros64(b)
			i := w<<6 | bit
			for c := range exprs {
				val, ok := exprs[c].Expr.EvalPacket(pkts[i])
				if !ok {
					sel[w] &^= 1 << uint(bit)
					break
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
// a probe takes no lock and never sees a half-written table. Keys arrive in
// the masked key encoding (tuple.AppendKeyValue of MaskValue); a numeric one
// — 'u' and 8 big-endian bytes — is decoded at construction, so probing with
// a header field skips both the encoding and the string hash. A nil set
// admits nothing: finer levels stay idle until the coarser one reports.
type DynSet struct {
	n    int
	nums map[uint64]struct{}
	strs map[string]struct{}
}

// NewDynSet builds the set admitting keys.
func NewDynSet(keys []string) *DynSet {
	s := &DynSet{n: len(keys)}
	for _, k := range keys {
		if len(k) == 9 && k[0] == 'u' {
			if s.nums == nil {
				s.nums = make(map[uint64]struct{}, len(keys))
			}
			s.nums[binary.BigEndian.Uint64([]byte(k[1:]))] = struct{}{}
		} else {
			if s.strs == nil {
				s.strs = make(map[string]struct{}, len(keys))
			}
			s.strs[k] = struct{}{}
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

// ContainsKey reports whether an encoded key is admitted. It allocates
// nothing; key may be a reused scratch buffer.
func (s *DynSet) ContainsKey(key []byte) bool {
	if s == nil {
		return false
	}
	if len(key) == 9 && key[0] == 'u' {
		_, ok := s.nums[binary.BigEndian.Uint64(key[1:])]
		return ok
	}
	_, ok := s.strs[string(key)]
	return ok
}

// MatchPacket reports whether the packet's key field, masked to dynamic
// filter o's level, is admitted.
func (s *DynSet) MatchPacket(o *Op, p *packet.Packet) bool {
	v, ok := p.Field(o.DynKeyField)
	if !ok || s == nil {
		return false
	}
	if !v.Str {
		_, ok = s.nums[fields.TruncateU64(o.DynKeyField, v.U, o.DynLevel)]
		return ok
	}
	var buf [64]byte
	return s.ContainsKey(tuple.AppendKeyValue(buf[:0], MaskValue(o.DynKeyField, v, o.DynLevel)))
}

// MatchTuple is MatchPacket in tuple phase: the key is the tuple's
// DynKeyCols, each masked to the filter's level.
func (s *DynSet) MatchTuple(o *Op, vals []tuple.Value) bool {
	var buf [64]byte
	key := buf[:0]
	for _, c := range o.DynKeyCols {
		key = tuple.AppendKeyValue(key, MaskValue(o.DynKeyField, vals[c], o.DynLevel))
	}
	return s.ContainsKey(key)
}

// FilterPackets deselects every packet MatchPacket rejects.
func (s *DynSet) FilterPackets(sel []uint64, pkts []*packet.Packet, o *Op) {
	if s.Len() == 0 {
		clear(sel)
		return
	}
	for w, word := range sel {
		for b := word; b != 0; b &= b - 1 {
			bit := bits.TrailingZeros64(b)
			if !s.MatchPacket(o, pkts[w<<6|bit]) {
				sel[w] &^= 1 << uint(bit)
			}
		}
	}
}

// FilterCols deselects every row whose tuple MatchTuple rejects; only the
// key columns of a row are read.
func (s *DynSet) FilterCols(sel []uint64, cols []tuple.Column, o *Op) {
	if s.Len() == 0 {
		clear(sel)
		return
	}
	var buf [64]byte
	for w, word := range sel {
		for b := word; b != 0; b &= b - 1 {
			bit := bits.TrailingZeros64(b)
			key := buf[:0]
			for _, c := range o.DynKeyCols {
				key = tuple.AppendKeyValue(key, MaskValue(o.DynKeyField, cols[c].At(w<<6|bit), o.DynLevel))
			}
			if !s.ContainsKey(key) {
				sel[w] &^= 1 << uint(bit)
			}
		}
	}
}
