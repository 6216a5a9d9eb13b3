package query

import (
	"math/bits"

	"repro/internal/fields"
	"repro/internal/packet"
	"repro/internal/tuple"
)

// FieldSet interns the header fields a deployment extracts into columns once
// per batch — the packet header vector of Section 3.1: the parser fills it
// once and every query's tables read it. Only a field whose value is a number
// the switch's own parser produces qualifies: its column is then the same
// whether a kernel is handed the switch's packets or the emitter's
// deep-decoded adoptions of them, which is what lets one extraction serve
// both sides of the partition point. Everything else (names, payloads, the
// DNS header) the kernels read from the packet. A set is built
// single-threaded at construction and read-only afterwards.
type FieldSet struct {
	slot [256]uint8 // by fields.ID: index into ids plus one, zero when not extracted
	ids  []fields.ID
}

// Add interns f if columns can carry it.
func (fs *FieldSet) Add(f fields.ID) {
	if !fields.Valid(f) || fs.slot[f] != 0 {
		return
	}
	if info := fields.Lookup(f); info.Kind != fields.Numeric || !info.SwitchParsable {
		return
	}
	fs.ids = append(fs.ids, f)
	fs.slot[f] = uint8(len(fs.ids))
}

// AddOps interns every field the packet-phase operators of a pipeline read:
// static clauses, dynamic filter keys, and the first map's expressions.
func (fs *FieldSet) AddOps(ops []Op) {
	for i := range ops {
		o := &ops[i]
		switch {
		case !o.PacketPhase():
		case o.Kind == OpMap:
			for c := range o.Cols {
				for e := &o.Cols[c].Expr; e != nil; e = e.Sub {
					if e.Kind == ExprField {
						fs.Add(e.Field)
					}
				}
			}
		case o.DynFilterTable != "":
			fs.Add(o.DynKeyField)
		case o.Kind == OpFilter:
			for c := range o.Clauses {
				fs.Add(o.Clauses[c].Field)
			}
		}
	}
}

// PacketBatch is a batch of packets as the packet-phase kernels take them:
// the packets, indexed by row, and the columns Extract pulled out of them —
// per interned field, every row's value and a bitmap of the rows that carry
// the field. A kernel reads an extracted field as a column loop and any other
// from the packet, row by row. After Extract the batch is read-only until the
// next one, so any number of shards may run kernels over it concurrently.
// Column storage is reused across batches and grows monotonically.
type PacketBatch struct {
	Pkts []*packet.Packet
	set  *FieldSet
	vals [][]uint64
	has  [][]uint64
}

// Extract fills the columns of set's fields over the selected rows of Pkts.
// A field's has bitmap is a subset of sel, written whole, so no bit of a
// longer earlier batch survives; a row that lacks the field holds zero.
func (b *PacketBatch) Extract(set *FieldSet, sel []uint64) {
	b.set = set
	for len(b.vals) < len(set.ids) {
		b.vals, b.has = append(b.vals, nil), append(b.has, nil)
	}
	n := len(b.Pkts)
	for k, f := range set.ids {
		if cap(b.vals[k]) < n {
			b.vals[k] = make([]uint64, n)
		}
		if cap(b.has[k]) < len(sel) {
			b.has[k] = make([]uint64, len(sel))
		}
		vals, has := b.vals[k][:n], b.has[k][:len(sel)]
		b.vals[k], b.has[k] = vals, has
		for w, word := range sel {
			var carried uint64
			for rest := word; rest != 0; rest &= rest - 1 {
				bit := bits.TrailingZeros64(rest)
				v, ok := b.Pkts[w<<6|bit].Numeric(f)
				if !ok {
					v = 0
				} else {
					carried |= 1 << uint(bit)
				}
				vals[w<<6|bit] = v
			}
			has[w] = carried
		}
	}
}

// WithPackets returns a batch of the same columns over other packets: the
// same frames in another decode, row for row.
func (b *PacketBatch) WithPackets(pkts []*packet.Packet) PacketBatch {
	c := *b
	c.Pkts = pkts
	return c
}

// FieldAt is row r's value of field f: read from f's column when the batch
// extracted it, from the packet otherwise. Row r must be one the columns were
// extracted over.
func (b *PacketBatch) FieldAt(f fields.ID, r int) (tuple.Value, bool) {
	if vals, has, ok := b.Column(f); ok {
		return tuple.U64(vals[r]), has[r>>6]>>uint(r&63)&1 != 0
	}
	return b.Pkts[r].Field(f)
}

// Column returns field f's values by row and the rows that carry it, both
// read-only; ok is false when the batch has no column for f.
func (b *PacketBatch) Column(f fields.ID) (vals, has []uint64, ok bool) {
	if b.set == nil || b.set.slot[f] == 0 {
		return nil, nil, false
	}
	k := b.set.slot[f] - 1
	return b.vals[k], b.has[k], true
}
