// Package emitter implements Sonata's emitter (Section 5): it consumes the
// packets mirrored out of the switch's monitoring port, parses the
// query-specific fields embedded by the data plane (demultiplexing on the
// query identifier), and delivers the resulting tuples to the stream
// processor. At window boundaries it converts the switch's register dumps
// into pre-aggregated tuples the engine merges with any collision-overflow
// traffic it absorbed during the window.
//
// The monitoring port has a wire format — a compact telemetry framing of a
// qid-tagged header, the metadata tuple, and optionally the original frame
// (EncodeMirror, MirrorDecoder) — and one way across it in this process:
// HandleMirrorBatch, the emitter as the switch's pisa.MirrorSink. The walk
// hands over one pisa.MirrorBatch per (instance, view batch), nothing is
// serialized, each mirrored view is adopted once per batch whatever the
// number of instances mirroring it (and DNS-decoded only while an installed
// query reads a DNS field), and the monitoring-port bytes are counted from
// the wire format's layout instead of from a buffer. The per-record round
// trip through the codec — what the paper's Scapy-based emitter performs —
// is kept in the tests as the oracle: TestMirrorBatchMatchesWire holds the
// hand-off to delivering the same records in the same order and counting
// the same frames, bytes and malformed records.
package emitter

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"repro/internal/packet"
	"repro/internal/pisa"
	"repro/internal/stream"
	"repro/internal/tuple"
)

// wire format constants.
const (
	magic = 0x53 // 'S'

	flagOverflow = 1 << 0
	flagVals     = 1 << 1
	flagPacket   = 1 << 2

	// headerLen is the fixed part of every record: magic, qid, level, side,
	// flags, entry op, merge op.
	headerLen = 8
)

// valsWireLen is the encoded size of a record's tuple section: the count
// byte, then a tag and 8 bytes per number or a tag, a 2-byte length and the
// bytes per string.
func valsWireLen(vals []tuple.Value) uint64 {
	n := uint64(1)
	for i := range vals {
		if vals[i].Str {
			n += 3 + uint64(len(vals[i].S))
		} else {
			n += 9
		}
	}
	return n
}

// packetWireLen is the encoded size of a record's frame section: a 2-byte
// length and the frame's n bytes.
func packetWireLen(n int) uint64 { return 2 + uint64(n) }

// EncodeMirror serializes a mirror record into the telemetry framing,
// appending to dst.
func EncodeMirror(dst []byte, m *pisa.Mirror) []byte {
	dst = append(dst, magic)
	dst = binary.BigEndian.AppendUint16(dst, m.QID)
	dst = append(dst, m.Level, byte(m.Side))
	var flags byte
	if m.Overflow {
		flags |= flagOverflow
	}
	if m.Vals != nil {
		flags |= flagVals
	}
	if m.Packet != nil {
		flags |= flagPacket
	}
	dst = append(dst, flags, byte(m.EntryOp), byte(m.MergeOp))
	if m.Vals != nil {
		dst = append(dst, byte(len(m.Vals)))
		dst = appendVals(dst, m.Vals)
	}
	if m.Packet != nil {
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(m.Packet)))
		dst = append(dst, m.Packet...)
	}
	return dst
}

// DecodeMirror parses a telemetry frame back into a mirror record. The
// returned record's Packet aliases data. The decoded value slice is freshly
// allocated; MirrorDecoder reuses one.
func DecodeMirror(data []byte) (pisa.Mirror, error) {
	var d MirrorDecoder
	var m pisa.Mirror
	err := d.Decode(data, &m)
	return m, err
}

// MirrorDecoder decodes telemetry frames into caller-held Mirror records,
// reusing one internal value buffer across calls so a steady-state decode
// of numeric tuples performs no allocation.
type MirrorDecoder struct {
	vals []tuple.Value
}

// Decode parses a telemetry frame into m, overwriting every field. The
// decoded record's Packet aliases data and its Vals alias the decoder's
// internal buffer: both are valid only until the next Decode call, so
// consumers must finish with (or copy from) m before decoding another
// frame — the contract the stream engine's ingest paths already satisfy by
// copying any state they retain.
func (d *MirrorDecoder) Decode(data []byte, m *pisa.Mirror) error {
	*m = pisa.Mirror{}
	if len(data) < 8 || data[0] != magic {
		return fmt.Errorf("emitter: bad telemetry frame header")
	}
	m.QID = binary.BigEndian.Uint16(data[1:3])
	m.Level = data[3]
	m.Side = pisa.Side(data[4])
	flags := data[5]
	m.Overflow = flags&flagOverflow != 0
	m.EntryOp = int(data[6])
	m.MergeOp = int(data[7])
	rest := data[8:]
	var err error
	if flags&flagVals != 0 {
		if len(rest) < 1 {
			return fmt.Errorf("emitter: truncated tuple count")
		}
		n := int(rest[0])
		rest = rest[1:]
		d.vals, rest, err = decodeVals(d.vals[:0], rest, n)
		if err != nil {
			return err
		}
		m.Vals = d.vals
	}
	if flags&flagPacket != 0 {
		if len(rest) < 2 {
			return fmt.Errorf("emitter: truncated packet length")
		}
		n := int(binary.BigEndian.Uint16(rest[:2]))
		rest = rest[2:]
		if len(rest) < n {
			return fmt.Errorf("emitter: truncated packet body (%d < %d)", len(rest), n)
		}
		m.Packet = rest[:n]
		rest = rest[n:]
	}
	if len(rest) != 0 {
		return fmt.Errorf("emitter: %d trailing bytes", len(rest))
	}
	return nil
}

func appendVals(dst []byte, vals []tuple.Value) []byte {
	for _, v := range vals {
		if v.Str {
			dst = append(dst, 's')
			dst = binary.BigEndian.AppendUint16(dst, uint16(len(v.S)))
			dst = append(dst, v.S...)
		} else {
			dst = append(dst, 'u')
			dst = binary.BigEndian.AppendUint64(dst, v.U)
		}
	}
	return dst
}

// decodeVals appends n decoded values to dst (reusing its capacity) and
// returns the extended slice plus the remaining bytes.
func decodeVals(dst []tuple.Value, data []byte, n int) ([]tuple.Value, []byte, error) {
	vals := dst
	for i := 0; i < n; i++ {
		if len(data) < 1 {
			return nil, nil, fmt.Errorf("emitter: truncated value %d", i)
		}
		switch data[0] {
		case 'u':
			if len(data) < 9 {
				return nil, nil, fmt.Errorf("emitter: truncated numeric value")
			}
			vals = append(vals, tuple.U64(binary.BigEndian.Uint64(data[1:9])))
			data = data[9:]
		case 's':
			if len(data) < 3 {
				return nil, nil, fmt.Errorf("emitter: truncated string header")
			}
			l := int(binary.BigEndian.Uint16(data[1:3]))
			if len(data) < 3+l {
				return nil, nil, fmt.Errorf("emitter: truncated string body")
			}
			vals = append(vals, tuple.Str(string(data[3:3+l])))
			data = data[3+l:]
		default:
			return nil, nil, fmt.Errorf("emitter: bad value tag %q", data[0])
		}
	}
	return vals, data, nil
}

// Emitter bridges the switch's monitoring port to the stream engine. It is
// a pisa.MirrorSink.
type Emitter struct {
	engine *stream.Engine
	// parser adopts and parses mirrored packets, deep-decoding DNS when dns
	// is set: while the engine has an instance installed that reads a DNS
	// field (see packetParser).
	parser *packet.Parser
	dns    bool
	// Per-batch scratch, per view of the current view batch and shared by
	// every instance of the shard: pkts[i] is view i adopted and
	// deep-decoded, valid where ready is set; bad marks the views that did
	// not parse; flen caches frame lengths for the byte count. sel is the
	// selection handed to the engine, row a tail tuple.
	pkts       []*packet.Packet
	ready, bad []uint64
	flen       []int
	sel        []uint64
	row        []tuple.Value
	// stats is the window so far.
	stats Stats
}

// Stats is one window at the emitter. The encoded bytes go to the stream
// processor instances the records were for (stream.Instance.AddWireBytes).
type Stats struct {
	// Frames counts telemetry records off the monitoring port, Malformed
	// those (or their embedded packets) that failed to parse or that no
	// installed instance takes.
	Frames    uint64
	Malformed uint64
	// Batches counts mirror batches handed over, DeepDecodes the mirrored
	// packets whose DNS layer was decoded: once per view per batch.
	Batches     uint64
	DeepDecodes uint64
}

// New returns an emitter delivering into engine.
func New(engine *stream.Engine) *Emitter {
	return &Emitter{engine: engine, parser: packet.NewParser(packet.ParserOptions{})}
}

// packetParser returns the parser for mirrored packets. Stream-processor
// portions of queries may read DNS fields the switch's parser leaves
// undecoded, so the emitter deep-decodes DNS — but only while the engine
// has such an instance installed: a DNS name nobody reads is a string
// allocated per packet for nothing.
func (e *Emitter) packetParser() *packet.Parser {
	if dns := e.engine.ReadsDNS(); dns != e.dns {
		e.parser, e.dns = packet.NewParser(packet.ParserOptions{DecodeDNS: dns}), dns
	}
	return e.parser
}

func streamSide(s pisa.Side) stream.Side {
	if s == pisa.SideRight {
		return stream.SideRight
	}
	return stream.SideLeft
}

// malformed counts n records dropped at the emitter.
func (e *Emitter) malformed(n uint64) {
	e.stats.Malformed += n
}

// HandleMirrorBatch delivers everything one instance reports for one view
// batch, in ascending frame order — the order the records would cross a wire
// in — with the instance resolved once and frames and bytes added once. The
// byte count is what EncodeMirror would have produced for each record. A
// batch no installed instance takes — unknown (qid, level), the right side
// of a query without a join, bare packets where the partition point takes
// tuples — counts every record malformed, as does a shunt naming an op that
// is not stateful or a tuple of the wrong width.
func (e *Emitter) HandleMirrorBatch(b *pisa.MirrorBatch) {
	if b.NewViews {
		e.beginViews(len(b.Views))
	}
	n := uint64(b.Len())
	e.stats.Frames += n
	e.stats.Batches++
	inst := e.engine.Instance(b.QID, b.Level)
	side := streamSide(b.Side)
	ok := inst.HasSide(side) && (b.TuplePhase || inst.TakesPackets(side))
	if !ok {
		e.malformed(n)
	}
	var wire uint64
	if b.TuplePhase {
		wire = e.deliverTuples(b, inst, side, ok)
	} else {
		wire = e.deliverPackets(b, inst, side, ok)
	}
	inst.AddWireBytes(wire + n*headerLen)
}

// beginViews forgets what the previous view batch left in the per-view
// scratch and sizes it for n views.
func (e *Emitter) beginViews(n int) {
	if len(e.pkts) < n {
		for len(e.pkts) < n {
			e.pkts = append(e.pkts, new(packet.Packet))
		}
		e.flen = make([]int, n)
	}
	words := (n + 63) >> 6
	if cap(e.ready) < words {
		e.ready, e.bad, e.sel = make([]uint64, words), make([]uint64, words), make([]uint64, words)
	}
	e.ready, e.bad, e.sel = e.ready[:words], e.bad[:words], e.sel[:words]
	clear(e.ready)
	clear(e.bad)
}

// deliverPackets hands a packet-phase batch's tail frames (there are no
// shunts before the first map) to the engine in one call, having adopted
// each of them that no earlier instance of the shard already has: the
// adoptions, under the header-field columns the switch's packets came with —
// a field the switch parses reads the same in both. It returns the records'
// encoded size past their headers.
func (e *Emitter) deliverPackets(b *pisa.MirrorBatch, inst *stream.Instance, side stream.Side, ok bool) (wire uint64) {
	var decoded, unparsed uint64
	parser := e.packetParser()
	for w, tail := range b.Tail {
		for rest := tail &^ (e.ready[w] | e.bad[w]); rest != 0; rest &= rest - 1 {
			i := w<<6 | bits.TrailingZeros64(rest)
			frame := b.Views[i].Frame
			e.flen[i] = len(frame)
			if p := b.Parsed(i); p != nil {
				parser.Adopt(p, e.pkts[i])
			} else if err := parser.Parse(frame, e.pkts[i]); err != nil {
				// An unsupported-layer frame ran the switch pipeline on its
				// decoded prefix; here it is malformed, once per record.
				e.bad[w] |= 1 << uint(i&63)
				continue
			}
			if e.pkts[i].Has(packet.LayerDNS) {
				decoded++
			}
			e.ready[w] |= 1 << uint(i&63)
		}
		for rest := tail; rest != 0; rest &= rest - 1 {
			wire += packetWireLen(e.flen[w<<6|bits.TrailingZeros64(rest)])
		}
		e.sel[w] = tail & e.ready[w]
		unparsed += uint64(bits.OnesCount64(tail & e.bad[w]))
	}
	e.stats.DeepDecodes += decoded
	if ok {
		e.malformed(unparsed)
		adopted := b.Packets.WithPackets(e.pkts[:len(b.Views)])
		inst.IngestPackets(side, &adopted, e.sel)
	}
	return wire
}

// deliverTuples walks a tuple-phase batch a record at a time, shunts and
// tail reports interleaved in frame order as the stateful operators
// downstream must see them. It returns the records' encoded size past their
// headers.
func (e *Emitter) deliverTuples(b *pisa.MirrorBatch, inst *stream.Instance, side stream.Side, ok bool) (wire uint64) {
	for w := range b.Tail {
		for rest := b.Tail[w] | b.Shunt[w]; rest != 0; rest &= rest - 1 {
			bit := bits.TrailingZeros64(rest)
			i := w<<6 | bit
			if b.Shunt[w]>>uint(bit)&1 != 0 {
				mergeOp, vals := b.ShuntAt(i)
				wire += valsWireLen(vals)
				if ok && !inst.IngestTupleAt(side, mergeOp, vals) {
					e.malformed(1)
				}
				continue
			}
			e.row = b.TailVals(i, e.row[:0])
			wire += valsWireLen(e.row)
			if ok && !inst.IngestTuple(side, e.row) {
				e.malformed(1)
			}
		}
	}
	return wire
}

// HandleDumps converts the end-of-window register dumps into pre-aggregated
// tuples merged into the engine's stateful operators — the emitter's "read
// the aggregated value for each key" role from Section 5. Dumps may come off
// a remote data plane's wire: one no installed instance takes — unknown
// (qid, level), an absent side, an op that is not stateful, a key of the
// wrong width or kinds — counts as malformed. A switch dumps instance by
// instance, so the instance is looked up once per run of equal (qid, level).
func (e *Emitter) HandleDumps(dumps []pisa.RegDump) {
	var inst *stream.Instance
	for i := range dumps {
		d := &dumps[i]
		if i == 0 || d.QID != dumps[i-1].QID || d.Level != dumps[i-1].Level {
			inst = e.engine.Instance(d.QID, d.Level)
		}
		if !inst.IngestAgg(streamSide(d.Side), d.MergeOp, d.KeyVals, d.Val) {
			e.malformed(1)
		}
	}
}

// WindowStats reports and resets the emitter's per-window counters.
func (e *Emitter) WindowStats() Stats {
	st := e.stats
	e.stats = Stats{}
	return st
}
