// Package packet implements binary encoding and decoding for the protocol
// layers Sonata queries reference: Ethernet, IPv4, IPv6, TCP, UDP, and DNS.
//
// The decoding design follows gopacket's DecodingLayerParser idiom: a Parser
// owns preallocated layer structs and fills a Packet view in place, slicing
// into the original buffer rather than copying, so the hot path performs no
// allocation. Callers that retain a Packet beyond the lifetime of its buffer
// must Clone it first.
package packet

import (
	"fmt"

	"repro/internal/fields"
	"repro/internal/tuple"
)

// EtherType values understood by the parser.
const (
	EtherTypeIPv4 = 0x0800
	EtherTypeIPv6 = 0x86DD
	EtherTypeARP  = 0x0806
)

// Layer flags recording which layers a parsed Packet contains.
type LayerMask uint8

const (
	LayerEthernet LayerMask = 1 << iota
	LayerIPv4
	LayerIPv6
	LayerTCP
	LayerUDP
	LayerDNS
	LayerPayload
)

// Packet is a decoded view over one frame. All byte-slice fields alias the
// buffer passed to Parse.
type Packet struct {
	Data    []byte // entire frame
	Layers  LayerMask
	Eth     Ethernet
	IPv4    IPv4
	IPv6    IPv6
	TCP     TCP
	UDP     UDP
	DNS     DNS
	Payload []byte // transport payload (aliases Data)
}

// Has reports whether the packet contains the given layer.
func (p *Packet) Has(l LayerMask) bool { return p.Layers&l != 0 }

// Reset clears the packet view for reuse without releasing DNS scratch
// storage.
func (p *Packet) Reset() {
	p.Data = nil
	p.Layers = 0
	p.Payload = nil
	p.DNS.reset()
}

// Clone returns a deep copy whose slices no longer alias the original buffer.
// The parser always leaves Payload as the tail of the frame, so the clone
// re-slices it from the copied buffer.
func (p *Packet) Clone() *Packet {
	c := *p
	c.Data = append([]byte(nil), p.Data...)
	if p.Payload != nil {
		c.Payload = c.Data[len(c.Data)-len(p.Payload):]
	}
	c.DNS = p.DNS.clone()
	return &c
}

// Field extracts the value of field f from the packet. The second return is
// false when the packet does not carry the field (e.g. TCPFlags on a UDP
// packet).
func (p *Packet) Field(f fields.ID) (tuple.Value, bool) {
	switch f {
	case fields.Payload:
		if !p.Has(LayerPayload) {
			return tuple.Value{}, false
		}
		return tuple.Str(string(p.Payload)), true
	case fields.DNSQName:
		if !p.Has(LayerDNS) || len(p.DNS.Questions) == 0 {
			return tuple.Value{}, false
		}
		return tuple.Str(p.DNS.Questions[0].Name), true
	case fields.DNSRRName:
		if !p.Has(LayerDNS) || len(p.DNS.Answers) == 0 {
			return tuple.Value{}, false
		}
		return tuple.Str(p.DNS.Answers[0].Name), true
	}
	v, ok := p.Numeric(f)
	if !ok {
		return tuple.Value{}, false
	}
	return tuple.U64(v), true
}

// Numeric is Field for the numeric fields, without the Value around the
// number — what a batch's field columns are extracted through. The number is
// meaningful only beside true; a string-valued or synthetic field reports
// false.
func (p *Packet) Numeric(f fields.ID) (uint64, bool) {
	switch f {
	case fields.EthSrc:
		return macToU64(p.Eth.Src), p.Has(LayerEthernet)
	case fields.EthDst:
		return macToU64(p.Eth.Dst), p.Has(LayerEthernet)
	case fields.EthType:
		return uint64(p.Eth.Type), p.Has(LayerEthernet)
	case fields.SrcIP:
		return uint64(p.IPv4.Src), p.Has(LayerIPv4)
	case fields.DstIP:
		return uint64(p.IPv4.Dst), p.Has(LayerIPv4)
	case fields.SrcIPv6:
		return p.IPv6.SrcHi, p.Has(LayerIPv6)
	case fields.DstIPv6:
		return p.IPv6.DstHi, p.Has(LayerIPv6)
	case fields.Proto:
		if p.Has(LayerIPv4) {
			return uint64(p.IPv4.Proto), true
		}
		return uint64(p.IPv6.NextHeader), p.Has(LayerIPv6)
	case fields.TTL:
		return uint64(p.IPv4.TTL), p.Has(LayerIPv4)
	case fields.IPLen:
		return uint64(p.IPv4.TotalLen), p.Has(LayerIPv4)
	case fields.IPID:
		return uint64(p.IPv4.ID), p.Has(LayerIPv4)
	case fields.DSCP:
		return uint64(p.IPv4.TOS), p.Has(LayerIPv4)
	case fields.SrcPort:
		if p.Has(LayerTCP) {
			return uint64(p.TCP.SrcPort), true
		}
		return uint64(p.UDP.SrcPort), p.Has(LayerUDP)
	case fields.DstPort:
		if p.Has(LayerTCP) {
			return uint64(p.TCP.DstPort), true
		}
		return uint64(p.UDP.DstPort), p.Has(LayerUDP)
	case fields.TCPFlags:
		return uint64(p.TCP.Flags), p.Has(LayerTCP)
	case fields.TCPSeq:
		return uint64(p.TCP.Seq), p.Has(LayerTCP)
	case fields.TCPAck:
		return uint64(p.TCP.Ack), p.Has(LayerTCP)
	case fields.TCPWin:
		return uint64(p.TCP.Window), p.Has(LayerTCP)
	case fields.PktLen:
		return uint64(len(p.Data)), true
	case fields.PayloadLen:
		return uint64(len(p.Payload)), true
	case fields.DNSQType:
		if !p.Has(LayerDNS) || len(p.DNS.Questions) == 0 {
			return 0, false
		}
		return uint64(p.DNS.Questions[0].Type), true
	case fields.DNSAnCount:
		return uint64(len(p.DNS.Answers)), p.Has(LayerDNS)
	case fields.DNSQR:
		if p.DNS.Response {
			return 1, p.Has(LayerDNS)
		}
		return 0, p.Has(LayerDNS)
	default:
		return 0, false
	}
}

func macToU64(m [6]byte) uint64 {
	return uint64(m[0])<<40 | uint64(m[1])<<32 | uint64(m[2])<<24 |
		uint64(m[3])<<16 | uint64(m[4])<<8 | uint64(m[5])
}

// IPv4String formats a uint32 address value as dotted quad.
func IPv4String(a uint32) string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
}

// IPv4Addr builds a uint32 address from four octets.
func IPv4Addr(a, b, c, d byte) uint32 {
	return uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d)
}
