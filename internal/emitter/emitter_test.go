package emitter

import (
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/fields"
	"repro/internal/packet"
	"repro/internal/pisa"
	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/tuple"
)

func TestMirrorRoundTrip(t *testing.T) {
	cases := []pisa.Mirror{
		{QID: 1, Level: 32, EntryOp: 2, Vals: []tuple.Value{tuple.U64(42), tuple.U64(1)}},
		{QID: 9, Level: 8, Side: pisa.SideRight, EntryOp: 0, Packet: []byte{1, 2, 3}},
		{QID: 3, Overflow: true, MergeOp: 4, Vals: []tuple.Value{tuple.Str("example.com"), tuple.U64(7)}},
		{QID: 2, Vals: []tuple.Value{tuple.Str("")}, Packet: []byte{}},
	}
	for i, m := range cases {
		wire := EncodeMirror(nil, &m)
		got, err := DecodeMirror(wire)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		// Normalize empty-but-non-nil slices for comparison.
		if len(got.Packet) == 0 && len(m.Packet) == 0 {
			got.Packet, m.Packet = nil, nil
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("case %d: got %+v want %+v", i, got, m)
		}
	}
}

func TestMirrorRoundTripProperty(t *testing.T) {
	f := func(qid uint16, level uint8, overflow bool, u uint64, s string, pkt []byte) bool {
		if len(s) > 1000 || len(pkt) > 2000 {
			return true
		}
		m := pisa.Mirror{QID: qid, Level: level, Overflow: overflow,
			EntryOp: int(level % 8), MergeOp: int(level % 4),
			Vals: []tuple.Value{tuple.U64(u), tuple.Str(s)}}
		if len(pkt) > 0 {
			m.Packet = pkt
		}
		got, err := DecodeMirror(EncodeMirror(nil, &m))
		if err != nil {
			return false
		}
		if got.QID != m.QID || got.Level != m.Level || got.Overflow != m.Overflow {
			return false
		}
		if !got.Vals[0].Equal(m.Vals[0]) || !got.Vals[1].Equal(m.Vals[1]) {
			return false
		}
		return string(got.Packet) == string(m.Packet)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestMirrorDecoderReuse checks the scratch-buffer contract: successive
// Decode calls overwrite every field (no bleed-through of Vals/Packet from a
// richer previous frame) while reusing the value buffer.
func TestMirrorDecoderReuse(t *testing.T) {
	var d MirrorDecoder
	var got pisa.Mirror
	frames := []pisa.Mirror{
		{QID: 1, Level: 32, EntryOp: 2, Vals: []tuple.Value{tuple.U64(1), tuple.Str("abc"), tuple.U64(2)}},
		{QID: 2, Overflow: true, MergeOp: 3, Vals: []tuple.Value{tuple.Str("")}},
		{QID: 3, Packet: []byte{7, 8, 9}}, // no vals: Vals must reset to nil
		{QID: 4, Vals: []tuple.Value{tuple.U64(9)}},
	}
	var buf []byte
	for i, m := range frames {
		buf = EncodeMirror(buf[:0], &m)
		if err := d.Decode(buf, &got); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.QID != m.QID || got.Overflow != m.Overflow || got.MergeOp != m.MergeOp {
			t.Fatalf("frame %d: header = %+v", i, got)
		}
		if len(got.Vals) != len(m.Vals) {
			t.Fatalf("frame %d: %d vals, want %d", i, len(got.Vals), len(m.Vals))
		}
		for j := range m.Vals {
			if !got.Vals[j].Equal(m.Vals[j]) {
				t.Fatalf("frame %d val %d: %v != %v", i, j, got.Vals[j], m.Vals[j])
			}
		}
		if string(got.Packet) != string(m.Packet) {
			t.Fatalf("frame %d: packet %v != %v", i, got.Packet, m.Packet)
		}
	}
	// Numeric-only frames decode with zero allocations once the buffer has
	// grown (the last emitter hot-path allocation, fixed this PR).
	buf = EncodeMirror(buf[:0], &frames[3])
	allocs := testing.AllocsPerRun(100, func() {
		if err := d.Decode(buf, &got); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state decode allocates %.1f/op, want 0", allocs)
	}
}

func TestDecodeMirrorRejectsMalformed(t *testing.T) {
	m := pisa.Mirror{QID: 1, Vals: []tuple.Value{tuple.U64(5)}, Packet: []byte{9, 9}}
	wire := EncodeMirror(nil, &m)
	for cut := 0; cut < len(wire); cut++ {
		if _, err := DecodeMirror(wire[:cut]); err == nil {
			t.Errorf("accepted %d-byte truncation", cut)
		}
	}
	// Bad magic.
	bad := append([]byte(nil), wire...)
	bad[0] = 0xFF
	if _, err := DecodeMirror(bad); err == nil {
		t.Error("accepted bad magic")
	}
	// Trailing garbage.
	if _, err := DecodeMirror(append(wire, 0)); err == nil {
		t.Error("accepted trailing bytes")
	}
}

func engineWithQ1(t *testing.T) (*stream.Engine, *Emitter) {
	t.Helper()
	q := query.NewBuilder("q1", time.Second).
		Filter(query.Eq(fields.TCPFlags, fields.FlagSYN)).
		Map(query.F(fields.DstIP), query.ConstCol(1)).
		Reduce(query.AggSum, fields.DstIP).
		Filter(query.Gt(fields.AggVal, 2)).
		MustBuild()
	q.ID = 1
	e := stream.NewEngine(nil)
	if err := e.Install(q, 0, stream.Partition{LeftStart: 2}); err != nil {
		t.Fatal(err)
	}
	return e, New(e)
}

func TestHandleMirrorDeliversTuples(t *testing.T) {
	engine, em := engineWithQ1(t)
	for i := 0; i < 4; i++ {
		em.HandleMirror(pisa.Mirror{QID: 1, EntryOp: 2,
			Vals: []tuple.Value{tuple.U64(7), tuple.U64(1)}})
	}
	results, m := engine.EndWindow()
	if m.TuplesIn != 4 {
		t.Errorf("TuplesIn = %d", m.TuplesIn)
	}
	if len(results[0].Tuples) != 1 || results[0].Tuples[0][1].U != 4 {
		t.Fatalf("results = %+v", results[0].Tuples)
	}
	frames, malformed := em.WindowStats()
	if frames != 4 || malformed != 0 {
		t.Errorf("emitter stats = %d/%d", frames, malformed)
	}
}

func TestHandleMirrorPacketPath(t *testing.T) {
	q := query.NewBuilder("q1", time.Second).
		Filter(query.Eq(fields.TCPFlags, fields.FlagSYN)).
		Map(query.F(fields.DstIP), query.ConstCol(1)).
		Reduce(query.AggSum, fields.DstIP).
		MustBuild()
	q.ID = 1
	engine := stream.NewEngine(nil)
	if err := engine.Install(q, 0, stream.Partition{}); err != nil {
		t.Fatal(err)
	}
	em := New(engine)
	frame := packet.BuildFrame(nil, &packet.FrameSpec{
		SrcIP: 1, DstIP: 99, Proto: 6, TCPFlags: fields.FlagSYN, Pad: 60})
	em.HandleMirror(pisa.Mirror{QID: 1, EntryOp: 0, Packet: frame})
	em.HandleMirror(pisa.Mirror{QID: 1, EntryOp: 0, Packet: frame[:10]}) // mangled
	results, _ := engine.EndWindow()
	if len(results[0].Tuples) != 1 || results[0].Tuples[0][0].U != 99 {
		t.Fatalf("results = %+v", results[0].Tuples)
	}
	_, malformed := em.WindowStats()
	if malformed != 1 {
		t.Errorf("malformed = %d, want 1", malformed)
	}
}

// TestHandleMirrorAdoptsParsedView covers the parse-once monitoring path:
// when the mirror record carries the switch's parsed view, the emitter must
// adopt it instead of re-parsing — and still apply its own deep DNS decode,
// which the switch-side parser skips.
func TestHandleMirrorAdoptsParsedView(t *testing.T) {
	q := query.NewBuilder("dns_tunnel", time.Second).
		Filter(query.Eq(fields.DNSQR, 0)).
		Map(query.F(fields.DstIP), query.F(fields.DNSQName)).
		MustBuild()
	q.ID = 1
	engine := stream.NewEngine(nil)
	if err := engine.Install(q, 0, stream.Partition{}); err != nil {
		t.Fatal(err)
	}
	em := New(engine)

	frame := packet.BuildDNSQuery(nil, &packet.FrameSpec{
		SrcIP: 1, DstIP: 99, SrcPort: 40000}, 7, "x1.exfil.bad", packet.DNSTypeTXT)
	// The switch parses headers only (no DNS), like pisa's data plane.
	swParser := packet.NewParser(packet.ParserOptions{})
	var swPkt packet.Packet
	if err := swParser.Parse(frame, &swPkt); err != nil {
		t.Fatal(err)
	}
	if swPkt.Layers&packet.LayerDNS != 0 {
		t.Fatal("switch-side parse unexpectedly decoded DNS")
	}
	em.HandleMirror(pisa.Mirror{QID: 1, Packet: frame, Parsed: &swPkt})

	results, _ := engine.EndWindow()
	if len(results[0].Tuples) != 1 {
		t.Fatalf("tuples = %+v", results[0].Tuples)
	}
	tup := results[0].Tuples[0]
	if tup[0].U != 99 || tup[1].S != "x1.exfil.bad" {
		t.Errorf("tuple = %v, want dstIP=99 qname=x1.exfil.bad", tup)
	}
}

// TestHandleMirrorPacketPathAllocs is the regression guard for the
// double-parse fix: with the parsed view carried through the mirror and the
// encode buffer reused, the steady-state packet path must not allocate.
func TestHandleMirrorPacketPathAllocs(t *testing.T) {
	q := query.NewBuilder("q1", time.Second).
		Filter(query.Eq(fields.TCPFlags, fields.FlagSYN)).
		Map(query.F(fields.DstIP), query.ConstCol(1)).
		Reduce(query.AggSum, fields.DstIP).
		MustBuild()
	q.ID = 1
	engine := stream.NewEngine(nil)
	if err := engine.Install(q, 0, stream.Partition{}); err != nil {
		t.Fatal(err)
	}
	em := New(engine)
	frame := packet.BuildFrame(nil, &packet.FrameSpec{
		SrcIP: 1, DstIP: 99, Proto: 6, TCPFlags: fields.FlagSYN, Pad: 60})
	parser := packet.NewParser(packet.ParserOptions{})
	var pkt packet.Packet
	if err := parser.Parse(frame, &pkt); err != nil {
		t.Fatal(err)
	}
	m := pisa.Mirror{QID: 1, Packet: frame, Parsed: &pkt}
	em.HandleMirror(m) // warm the encode buffer and the engine's aggregation entry
	// Full path: the only allocations allowed are the engine's per-packet
	// tuple build (map output + reduce key); the emitter itself — encode
	// buffer, decode, and the adopted parse — must contribute none.
	allocs := testing.AllocsPerRun(100, func() { em.HandleMirror(m) })
	if allocs > 2 {
		t.Errorf("HandleMirror packet path allocates %.1f per op, want <= 2 (engine tuple build only)", allocs)
	}

	// Isolate the emitter: a packet the query's filter drops never reaches
	// the engine's tuple build, so any allocation left is emitter overhead.
	dropped := packet.BuildFrame(nil, &packet.FrameSpec{
		SrcIP: 1, DstIP: 99, Proto: 6, TCPFlags: fields.FlagACK, Pad: 60})
	var dpkt packet.Packet
	if err := parser.Parse(dropped, &dpkt); err != nil {
		t.Fatal(err)
	}
	dm := pisa.Mirror{QID: 1, Packet: dropped, Parsed: &dpkt}
	em.HandleMirror(dm)
	if allocs := testing.AllocsPerRun(100, func() { em.HandleMirror(dm) }); allocs > 0 {
		t.Errorf("emitter-side packet path allocates %.1f per op, want 0", allocs)
	}
	engine.EndWindow()
}

func TestHandleDumpsMerges(t *testing.T) {
	engine, em := engineWithQ1(t)
	// Overflow path first (tuple merged through the reduce op itself).
	em.HandleMirror(pisa.Mirror{QID: 1, Overflow: true, MergeOp: 2,
		Vals: []tuple.Value{tuple.U64(5), tuple.U64(1)}})
	// Register dump adds 4 more for the same key.
	em.HandleDumps([]pisa.RegDump{{QID: 1, MergeOp: 2,
		KeyVals: []tuple.Value{tuple.U64(5)}, Val: 4}})
	results, m := engine.EndWindow()
	if m.TuplesIn != 2 {
		t.Errorf("TuplesIn = %d", m.TuplesIn)
	}
	if len(results[0].Tuples) != 1 || results[0].Tuples[0][1].U != 5 {
		t.Fatalf("results = %+v", results[0].Tuples)
	}
}
