package packet

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"
)

func TestDNSRoundTrip(t *testing.T) {
	orig := DNS{
		ID: 0xbeef, Response: true, Recursion: true, RCode: 0,
		Questions: []DNSQuestion{{Name: "www.example.com", Type: DNSTypeA, Class: 1}},
		Answers: []DNSRecord{
			{Name: "www.example.com", Type: DNSTypeA, Class: 1, TTL: 300, Data: []byte{93, 184, 216, 34}},
			{Name: "www.example.com", Type: DNSTypeA, Class: 1, TTL: 300, Data: []byte{93, 184, 216, 35}},
		},
	}
	wire := AppendDNS(nil, &orig)
	var got DNS
	if err := DecodeDNS(wire, &got); err != nil {
		t.Fatalf("DecodeDNS: %v", err)
	}
	if got.ID != orig.ID || !got.Response || !got.Recursion {
		t.Errorf("header mismatch: %+v", got)
	}
	if len(got.Questions) != 1 || got.Questions[0].Name != "www.example.com" {
		t.Errorf("questions = %+v", got.Questions)
	}
	if len(got.Answers) != 2 || !bytes.Equal(got.Answers[0].Data, []byte{93, 184, 216, 34}) {
		t.Errorf("answers = %+v", got.Answers)
	}
}

func TestDNSCompressionPointer(t *testing.T) {
	// Hand-encode a response whose answer name is a pointer to the question
	// name at offset 12.
	var msg []byte
	msg = binary.BigEndian.AppendUint16(msg, 0x1234) // id
	msg = binary.BigEndian.AppendUint16(msg, 0x8180) // response flags
	msg = binary.BigEndian.AppendUint16(msg, 1)      // qdcount
	msg = binary.BigEndian.AppendUint16(msg, 1)      // ancount
	msg = binary.BigEndian.AppendUint16(msg, 0)
	msg = binary.BigEndian.AppendUint16(msg, 0)
	msg = appendDNSName(msg, "a.example.org")
	msg = binary.BigEndian.AppendUint16(msg, DNSTypeA)
	msg = binary.BigEndian.AppendUint16(msg, 1)
	msg = append(msg, 0xc0, 12) // pointer to question name
	msg = binary.BigEndian.AppendUint16(msg, DNSTypeA)
	msg = binary.BigEndian.AppendUint16(msg, 1)
	msg = binary.BigEndian.AppendUint32(msg, 60)
	msg = binary.BigEndian.AppendUint16(msg, 4)
	msg = append(msg, 1, 2, 3, 4)

	var d DNS
	if err := DecodeDNS(msg, &d); err != nil {
		t.Fatalf("DecodeDNS: %v", err)
	}
	if len(d.Answers) != 1 || d.Answers[0].Name != "a.example.org" {
		t.Errorf("answer name = %+v", d.Answers)
	}
}

func TestDNSPointerLoopRejected(t *testing.T) {
	var msg []byte
	msg = binary.BigEndian.AppendUint16(msg, 1)
	msg = binary.BigEndian.AppendUint16(msg, 0)
	msg = binary.BigEndian.AppendUint16(msg, 1) // one question
	msg = binary.BigEndian.AppendUint16(msg, 0)
	msg = binary.BigEndian.AppendUint16(msg, 0)
	msg = binary.BigEndian.AppendUint16(msg, 0)
	// A name that points at itself (offset 12).
	msg = append(msg, 0xc0, 12)
	msg = binary.BigEndian.AppendUint16(msg, DNSTypeA)
	msg = binary.BigEndian.AppendUint16(msg, 1)
	var d DNS
	if err := DecodeDNS(msg, &d); err == nil {
		t.Fatal("self-referential pointer accepted")
	}
}

// dnsQuestionMsg is a header announcing one question, followed by name and
// the question's type and class.
func dnsQuestionMsg(name []byte) []byte {
	msg := []byte{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0}
	msg = append(msg, name...)
	return append(msg, 0, DNSTypeA, 0, 1)
}

// dnsLabels spells a name out of labels of the given lengths.
func dnsLabels(lens ...int) []byte {
	var raw []byte
	for _, l := range lens {
		raw = append(raw, byte(l))
		raw = append(raw, bytes.Repeat([]byte{'a'}, l)...)
	}
	return append(raw, 0)
}

func TestDNSBadNamesRejected(t *testing.T) {
	// 255 bytes dotted is the longest name accepted.
	var d DNS
	if err := DecodeDNS(dnsQuestionMsg(dnsLabels(63, 63, 63, 61, 1)), &d); err != nil || len(d.Questions[0].Name) != 255 {
		t.Fatalf("255-byte name: err %v, questions %+v", err, d.Questions)
	}
	for name, raw := range map[string][]byte{
		"forward pointer":     {0xc0, 40},
		"reserved label 0x40": {0x40, 'x', 0},
		"reserved label 0x80": {0x80, 'x', 0},
		"256-byte name":       dnsLabels(63, 63, 63, 62, 1),
		"319-byte name":       dnsLabels(63, 63, 63, 63, 63),
	} {
		if err := DecodeDNS(dnsQuestionMsg(raw), &d); err == nil {
			t.Errorf("%s accepted: %+v", name, d.Questions)
		}
	}
}

// TestDNSNameAllocs pins the decode at one allocation per name — the string
// itself — whether the name is spelled out or reached through a compression
// pointer, in the question or the answer section.
func TestDNSNameAllocs(t *testing.T) {
	spelled := DNS{ID: 1, Response: true,
		Questions: []DNSQuestion{{Name: "a.rather.long.tunnel.label.example.org", Type: DNSTypeA, Class: 1}},
		Answers:   []DNSRecord{{Name: "a.rather.long.tunnel.label.example.org", Type: DNSTypeA, Class: 1, Data: []byte{1, 2, 3, 4}}}}
	wire := AppendDNS(nil, &spelled)
	// The same message with the answer's name as a pointer to the question's.
	nameLen := len(appendDNSName(nil, spelled.Questions[0].Name))
	pointed := append([]byte(nil), wire[:dnsHeaderLen+nameLen+4]...)
	pointed = append(pointed, 0xc0, dnsHeaderLen)
	pointed = append(pointed, wire[dnsHeaderLen+nameLen+4+nameLen:]...)
	for name, msg := range map[string][]byte{"spelled out": wire, "compression pointer": pointed} {
		var d DNS
		if err := DecodeDNS(msg, &d); err != nil || d.Answers[0].Name != spelled.Answers[0].Name {
			t.Fatalf("%s: err %v, answers %+v", name, err, d.Answers)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if err := DecodeDNS(msg, &d); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 2 { // one question name, one answer name
			t.Errorf("%s: %.1f allocations for two names, want 2", name, allocs)
		}
	}
}

func TestDNSTruncatedRejected(t *testing.T) {
	q := DNS{ID: 1, Questions: []DNSQuestion{{Name: "x.io", Type: 1, Class: 1}}}
	wire := AppendDNS(nil, &q)
	var d DNS
	for cut := 1; cut < len(wire); cut++ {
		if err := DecodeDNS(wire[:cut], &d); err == nil {
			t.Errorf("accepted truncation at %d of %d bytes", cut, len(wire))
		}
	}
}

func TestDNSNameLevel(t *testing.T) {
	cases := []struct {
		name  string
		level int
		want  string
	}{
		{"a.b.example.com", 1, "com"},
		{"a.b.example.com", 2, "example.com"},
		{"a.b.example.com", 4, "a.b.example.com"},
		{"a.b.example.com", 9, "a.b.example.com"},
		{"com", 1, "com"},
		{"a.b", 0, ""},
	}
	for _, c := range cases {
		if got := DNSNameLevel(c.name, c.level); got != c.want {
			t.Errorf("DNSNameLevel(%q, %d) = %q, want %q", c.name, c.level, got, c.want)
		}
	}
}

// Property: DNSNameLevel behaves like prefix truncation — composing a finer
// truncation with a coarser one equals the coarser truncation directly.
func TestDNSNameLevelComposition(t *testing.T) {
	f := func(raw []byte, lRaw, kRaw uint8) bool {
		name := sanitizeName(raw)
		l := int(lRaw%8) + 1
		k := int(kRaw%8) + 1
		if k > l {
			l, k = k, l
		}
		return DNSNameLevel(DNSNameLevel(name, l), k) == DNSNameLevel(name, k)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// sanitizeName builds a small dotted name from arbitrary bytes.
func sanitizeName(raw []byte) string {
	const letters = "abcdefghij"
	labels := len(raw)%5 + 1
	name := make([]byte, 0, labels*3)
	for i := 0; i < labels; i++ {
		if i > 0 {
			name = append(name, '.')
		}
		name = append(name, letters[i], letters[(i+3)%10])
	}
	return string(name)
}

func TestBuildDNSQueryParses(t *testing.T) {
	spec := FrameSpec{SrcIP: IPv4Addr(10, 0, 0, 5), DstIP: IPv4Addr(8, 8, 8, 8), SrcPort: 40000}
	frame := BuildDNSQuery(nil, &spec, 77, "tunnel.evil.example", DNSTypeTXT)
	var pkt Packet
	if err := NewParser(ParserOptions{DecodeDNS: true}).Parse(frame, &pkt); err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !pkt.Has(LayerDNS) {
		t.Fatal("DNS layer missing")
	}
	if pkt.DNS.ID != 77 || pkt.DNS.Response {
		t.Errorf("dns header = %+v", pkt.DNS)
	}
	if pkt.DNS.Questions[0].Name != "tunnel.evil.example" || pkt.DNS.Questions[0].Type != DNSTypeTXT {
		t.Errorf("question = %+v", pkt.DNS.Questions[0])
	}
}

func TestBuildDNSResponseParses(t *testing.T) {
	spec := FrameSpec{SrcIP: IPv4Addr(8, 8, 8, 8), DstIP: IPv4Addr(10, 0, 0, 5), DstPort: 40000}
	ans := []DNSRecord{{Name: "x.example", Type: DNSTypeA, Class: 1, TTL: 5, Data: []byte{1, 2, 3, 4}}}
	frame := BuildDNSResponse(nil, &spec, 9, "x.example", DNSTypeA, ans)
	var pkt Packet
	if err := NewParser(ParserOptions{DecodeDNS: true}).Parse(frame, &pkt); err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !pkt.Has(LayerDNS) || !pkt.DNS.Response {
		t.Fatal("response flag lost")
	}
	if len(pkt.DNS.Answers) != 1 || pkt.DNS.Answers[0].Name != "x.example" {
		t.Errorf("answers = %+v", pkt.DNS.Answers)
	}
	// DNS parsing disabled: same frame decodes but without the DNS layer.
	var plain Packet
	if err := NewParser(ParserOptions{}).Parse(frame, &plain); err != nil {
		t.Fatal(err)
	}
	if plain.Has(LayerDNS) {
		t.Error("DNS decoded despite DecodeDNS=false")
	}
}

func TestParserZeroAllocOnPlainTCP(t *testing.T) {
	frame := BuildFrame(nil, &FrameSpec{SrcIP: 1, DstIP: 2, Proto: 6, SrcPort: 1, DstPort: 2, Payload: []byte("abc")})
	p := NewParser(ParserOptions{})
	var pkt Packet
	allocs := testing.AllocsPerRun(200, func() {
		if err := p.Parse(frame, &pkt); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Parse allocated %.1f times per packet; want 0", allocs)
	}
}

func BenchmarkParseTCP(b *testing.B) {
	frame := BuildFrame(nil, &FrameSpec{SrcIP: 1, DstIP: 2, Proto: 6, SrcPort: 1, DstPort: 2, Payload: make([]byte, 512)})
	p := NewParser(ParserOptions{})
	var pkt Packet
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := p.Parse(frame, &pkt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseDNS(b *testing.B) {
	spec := FrameSpec{SrcIP: 1, DstIP: 2, SrcPort: 4000}
	frame := BuildDNSQuery(nil, &spec, 1, "deep.label.chain.example.com", DNSTypeA)
	p := NewParser(ParserOptions{DecodeDNS: true})
	var pkt Packet
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := p.Parse(frame, &pkt); err != nil {
			b.Fatal(err)
		}
	}
}
