package pisa

import (
	"math/bits"

	"repro/internal/packet"
	"repro/internal/query"
	"repro/internal/tuple"
)

// MirrorBatch is everything one instance reports for one batch of views: the
// batched walk hands its sink one of these per (instance, view batch) that
// has anything to report, instead of one Mirror per frame. A frame reports
// either as a collision shunt (its bit is in Shunt) or because it survived
// every switch table (its bit is in Tail) — never both — and the records of
// the frame-at-a-time walk are exactly the set bits of Tail|Shunt in
// ascending frame order. The batch and everything it references belong to
// the switch and are valid only during the sink call; Views and Packets are
// shared read-only across worker shards.
type MirrorBatch struct {
	// The instance's static identity, as every one of its Mirror records
	// carries it. EntryOp is where the stream processor resumes for tail
	// reports; NeedsPacket says tuple-phase records carry the frame too.
	QID         uint16
	Level       uint8
	Side        Side
	EntryOp     int
	NeedsPacket bool

	Views []View
	// Packets is the views' packets with the batch's header-field columns, as
	// the packet-phase kernels take them: a sink that runs the rest of a
	// packet-phase pipeline over its own decode of the same frames keeps the
	// columns (query.PacketBatch.WithPackets).
	Packets *query.PacketBatch
	// NewViews is set on the first hand-off of a view batch: whatever the
	// sink derived per view from the previous batch is stale, even though
	// Views may be the same (recycled) storage.
	NewViews bool
	// Tail and Shunt are frame-indexed selection bitmaps over Views.
	Tail  []uint64
	Shunt []uint64
	// TuplePhase reports whether the pipeline was past its first map: tail
	// records then carry the metadata tuple (TailVals), otherwise the frame.
	// Shunts happen at stateful tables, so they imply TuplePhase.
	TuplePhase bool

	n         int // set bits in Tail and Shunt together
	cols      []tuple.Column
	shuntAt   []shuntRec
	shuntVals []tuple.Value
	row       []tuple.Value // records' tail-tuple scratch
}

// Len returns the number of records the batch stands for.
func (b *MirrorBatch) Len() int { return b.n }

// Parsed returns the switch's parse of frame i when it decoded fully, nil
// otherwise (an ErrUnsupportedLayer frame still runs the pipeline, but its
// parse must not be forwarded). The packet is read-only.
func (b *MirrorBatch) Parsed(i int) *packet.Packet {
	if v := &b.Views[i]; v.clean {
		return &v.Pkt
	}
	return nil
}

// TailVals appends tail frame i's metadata tuple to dst. Only meaningful
// when TuplePhase is set.
func (b *MirrorBatch) TailVals(i int, dst []tuple.Value) []tuple.Value {
	return tuple.AppendRow(dst, b.cols, i)
}

// ShuntAt returns the stateful op that overflowed on shunted frame i and the
// tuple that table saw.
func (b *MirrorBatch) ShuntAt(i int) (mergeOp int, vals []tuple.Value) {
	rec := &b.shuntAt[i]
	return rec.mergeOp, b.shuntVals[rec.off:rec.end]
}

// MirrorSink receives what leaves the switch's monitoring port. The
// frame-at-a-time walk (Process, ProcessView) delivers one record per call;
// the batched walk (ProcessViews, ProcessViewsPre) delivers one batch per
// instance with something to report. Neither argument may be retained.
type MirrorSink interface {
	HandleMirror(m Mirror)
	HandleMirrorBatch(b *MirrorBatch)
}

// recordSink adapts a per-record callback to MirrorSink by expanding every
// batch into its records.
type recordSink func(Mirror)

func (f recordSink) HandleMirror(m Mirror)            { f(m) }
func (f recordSink) HandleMirrorBatch(b *MirrorBatch) { b.records(f) }

// nullSink is the sink of a switch built without one.
type nullSink struct{}

func (nullSink) HandleMirror(Mirror)            {}
func (nullSink) HandleMirrorBatch(*MirrorBatch) {}

// records expands the batch into the Mirror records the frame-at-a-time
// walk would have sent, in the same order. This is the one place a batch
// becomes records.
func (b *MirrorBatch) records(fn func(Mirror)) {
	for w := range b.Tail {
		for rest := b.Tail[w] | b.Shunt[w]; rest != 0; rest &= rest - 1 {
			bit := bits.TrailingZeros64(rest)
			i := w<<6 | bit
			if b.Shunt[w]>>uint(bit)&1 != 0 {
				mergeOp, vals := b.ShuntAt(i)
				fn(b.shuntMirror(&b.Views[i], mergeOp, vals))
				continue
			}
			b.row = b.TailVals(i, b.row[:0])
			fn(b.tailMirror(&b.Views[i], b.row, b.TuplePhase))
		}
	}
}

// shuntMirror is the record for a packet whose key collided in all d
// registers of the stateful op mergeOp: the stream processor executes the op
// itself on the tuple the table saw.
func (b *MirrorBatch) shuntMirror(pv *View, mergeOp int, vals []tuple.Value) Mirror {
	m := Mirror{QID: b.QID, Level: b.Level, Side: b.Side,
		Overflow: true, MergeOp: mergeOp, Vals: vals}
	if b.NeedsPacket {
		m.attach(pv)
	}
	return m
}

// tailMirror is the record for a packet that survived every switch table.
func (b *MirrorBatch) tailMirror(pv *View, vals []tuple.Value, inTuplePhase bool) Mirror {
	m := Mirror{QID: b.QID, Level: b.Level, Side: b.Side, EntryOp: b.EntryOp}
	if inTuplePhase {
		m.Vals = vals
	}
	if !inTuplePhase || b.NeedsPacket {
		m.attach(pv)
	}
	return m
}

// attach makes the mirror carry the original frame, with the switch's parse
// of it when the frame decoded fully.
func (m *Mirror) attach(pv *View) {
	m.Packet = pv.Frame
	if pv.clean {
		m.Parsed = &pv.Pkt
	}
}
