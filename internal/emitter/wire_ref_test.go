package emitter

import (
	"repro/internal/packet"
	"repro/internal/pisa"
	"repro/internal/query"
	"repro/internal/stream"
)

// WireEmitter is the per-record path across the monitoring port, kept as the
// oracle of the batch hand-off: each record is encoded to bytes and parsed
// back — the round trip a real wire implies and the paper's Scapy-based
// emitter performs — then routed into the engine one at a time. It wraps an
// Emitter and shares its engine, parser and window stats; a switch reaches it
// through pisa.NewSwitch's per-record callback (w.HandleMirror). Exported for
// the external tests of this package.
type WireEmitter struct {
	*Emitter
	// The engine copies anything it retains, so one encode buffer (the frame
	// copy crossing the monitoring port), one record, one value buffer and
	// one packet serve every frame.
	buf     []byte
	dec     MirrorDecoder
	decoded pisa.Mirror
	pkt     query.PacketBatch // one packet, no field columns
}

// oneSel selects the wire path's single packet.
var oneSel = []uint64{1}

// NewWireEmitter returns a wire path delivering into engine.
func NewWireEmitter(engine *stream.Engine) *WireEmitter { return wireOf(New(engine)) }

// wireOf returns a wire path through e.
func wireOf(e *Emitter) *WireEmitter {
	return &WireEmitter{Emitter: e, pkt: query.PacketBatch{Pkts: []*packet.Packet{new(packet.Packet)}}}
}

// HandleMirror performs the encode/parse round trip and forwards the tuple
// (or packet) to the engine. The bytes are booked to the instance the
// record names.
func (w *WireEmitter) HandleMirror(m pisa.Mirror) {
	e := w.Emitter
	buf := EncodeMirror(w.buf[:0], &m)
	w.buf = buf
	e.stats.Frames++
	e.engine.Instance(m.QID, m.Level).AddWireBytes(uint64(len(buf)))
	if err := w.dec.Decode(buf, &w.decoded); err == nil {
		// The parsed view rides beside the wire format, not in it: the
		// monitoring port carries bytes, but within one process the decoded
		// record can reuse the switch's parse instead of re-decoding.
		w.decoded.Parsed = m.Parsed
		w.Deliver(&w.decoded)
	} else {
		e.malformed(1)
	}
}

// Deliver routes a decoded mirror record into the engine. A record no
// installed instance takes — unknown (qid, level), the right side of a query
// without a join, a shunt naming an op that is not stateful, a tuple of the
// wrong width, a bare packet where the partition point takes tuples — counts
// as malformed, like one that does not parse.
func (w *WireEmitter) Deliver(m *pisa.Mirror) {
	e := w.Emitter
	inst := e.engine.Instance(m.QID, m.Level)
	side := streamSide(m.Side)
	if !inst.HasSide(side) {
		e.malformed(1)
		return
	}
	switch {
	case m.Overflow:
		// The switch could not store this key: the stream processor
		// executes the stateful operator itself on the shunted input tuple.
		if !inst.IngestTupleAt(side, m.MergeOp, m.Vals) {
			e.malformed(1)
		}
	case m.Vals != nil:
		if !inst.IngestTuple(side, m.Vals) {
			e.malformed(1)
		}
	case m.Packet != nil:
		if !inst.TakesPackets(side) {
			e.malformed(1)
			return
		}
		pkt := w.pkt.Pkts[0]
		if m.Parsed != nil {
			// The switch's header parse survived the round trip (same
			// process); adopt it and apply only the deep DNS decode the
			// switch-side parser skips.
			e.packetParser().Adopt(m.Parsed, pkt)
		} else if err := e.packetParser().Parse(m.Packet, pkt); err != nil {
			e.malformed(1)
			return
		}
		if pkt.Has(packet.LayerDNS) {
			e.stats.DeepDecodes++
		}
		inst.IngestPackets(side, &w.pkt, oneSel)
	}
}
