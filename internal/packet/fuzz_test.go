package packet

import (
	"errors"
	"testing"

	"repro/internal/fields"
)

// FuzzParse feeds arbitrary frames through both parsers the pipeline runs:
// the switch's header parse and the stream side's, which also decodes DNS.
// Nothing may panic. When a parse succeeds or stops at an unsupported layer
// (the decoded prefix stays valid), every registered field must be readable
// through Field and Numeric; the two parses must agree on every field but
// the DNS ones; and adopting the header parse into the DNS parser, as the
// emitter does, must read exactly what the DNS parse reads. The seed corpus
// (testdata/fuzz) holds TCP, UDP, DNS query and response, IPv6, ARP and
// fragment frames and truncations of them.
func FuzzParse(f *testing.F) {
	plain := NewParser(ParserOptions{})
	deep := NewParser(ParserOptions{DecodeDNS: true})
	f.Fuzz(func(t *testing.T, data []byte) {
		var hdr, full, adopted Packet
		err := plain.Parse(data, &hdr)
		if derr := deep.Parse(data, &full); (derr == nil) != (err == nil) {
			t.Fatalf("header parse: %v, DNS parse: %v", err, derr)
		}
		if err != nil && !errors.Is(err, ErrUnsupportedLayer) {
			return
		}
		deep.Adopt(&hdr, &adopted)
		for _, id := range fields.All() {
			hv, hok := hdr.Field(id)
			fv, fok := full.Field(id)
			av, aok := adopted.Field(id)
			if av != fv || aok != fok {
				t.Fatalf("%v: adopted parse reads %v/%v, DNS parse %v/%v", id, av, aok, fv, fok)
			}
			hn, hnok := hdr.Numeric(id)
			fn, fnok := full.Numeric(id)
			if an, anok := adopted.Numeric(id); an != fn || anok != fnok {
				t.Fatalf("%v: adopted parse reads %d/%v numerically, DNS parse %d/%v", id, an, anok, fn, fnok)
			}
			if isDNSField(id) {
				continue
			}
			if hv != fv || hok != fok || hn != fn || hnok != fnok {
				t.Fatalf("%v: header parse reads %v/%v, DNS parse %v/%v", id, hv, hok, fv, fok)
			}
		}
	})
}

// isDNSField reports whether id is read from the DNS layer, which only the
// stream side's parser decodes.
func isDNSField(id fields.ID) bool {
	switch id {
	case fields.DNSQName, fields.DNSRRName, fields.DNSQType, fields.DNSAnCount, fields.DNSQR:
		return true
	}
	return false
}
