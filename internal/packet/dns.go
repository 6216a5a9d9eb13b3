package packet

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// DNS record types used by the telemetry queries.
const (
	DNSTypeA     = 1
	DNSTypeNS    = 2
	DNSTypeCNAME = 5
	DNSTypeTXT   = 16
	DNSTypeAAAA  = 28
	DNSTypeANY   = 255
)

// DNSQuestion is one entry from the question section.
type DNSQuestion struct {
	Name  string
	Type  uint16
	Class uint16
}

// DNSRecord is one resource record from the answer section.
type DNSRecord struct {
	Name  string
	Type  uint16
	Class uint16
	TTL   uint32
	Data  []byte // rdata, aliasing the message buffer
}

// DNS is a decoded DNS message. Only the question and answer sections are
// retained; authority and additional records are skipped but validated.
type DNS struct {
	ID        uint16
	Response  bool
	Opcode    uint8
	RCode     uint8
	Recursion bool
	Questions []DNSQuestion
	Answers   []DNSRecord
}

func (d *DNS) reset() {
	d.ID = 0
	d.Response = false
	d.Opcode = 0
	d.RCode = 0
	d.Recursion = false
	d.Questions = d.Questions[:0]
	d.Answers = d.Answers[:0]
}

func (d *DNS) clone() DNS {
	c := *d
	c.Questions = append([]DNSQuestion(nil), d.Questions...)
	c.Answers = make([]DNSRecord, len(d.Answers))
	for i, a := range d.Answers {
		c.Answers[i] = a
		c.Answers[i].Data = append([]byte(nil), a.Data...)
	}
	return c
}

const dnsHeaderLen = 12

// maxDNSPointers bounds compression-pointer chains so a malicious message
// cannot loop the parser.
const maxDNSPointers = 32

// DecodeDNS parses a DNS message. Names are decompressed into freshly
// allocated strings; rdata slices alias msg.
func DecodeDNS(msg []byte, d *DNS) error {
	d.reset()
	if len(msg) < dnsHeaderLen {
		return fmt.Errorf("packet: dns header truncated (%d bytes)", len(msg))
	}
	d.ID = binary.BigEndian.Uint16(msg[0:2])
	flags := binary.BigEndian.Uint16(msg[2:4])
	d.Response = flags&0x8000 != 0
	d.Opcode = uint8(flags >> 11 & 0xf)
	d.Recursion = flags&0x0100 != 0
	d.RCode = uint8(flags & 0xf)
	qd := int(binary.BigEndian.Uint16(msg[4:6]))
	an := int(binary.BigEndian.Uint16(msg[6:8]))

	off := dnsHeaderLen
	for i := 0; i < qd; i++ {
		name, n, err := decodeDNSName(msg, off)
		if err != nil {
			return fmt.Errorf("packet: dns question %d: %w", i, err)
		}
		off += n
		if off+4 > len(msg) {
			return fmt.Errorf("packet: dns question %d truncated", i)
		}
		d.Questions = append(d.Questions, DNSQuestion{
			Name:  name,
			Type:  binary.BigEndian.Uint16(msg[off : off+2]),
			Class: binary.BigEndian.Uint16(msg[off+2 : off+4]),
		})
		off += 4
	}
	for i := 0; i < an; i++ {
		name, n, err := decodeDNSName(msg, off)
		if err != nil {
			return fmt.Errorf("packet: dns answer %d: %w", i, err)
		}
		off += n
		if off+10 > len(msg) {
			return fmt.Errorf("packet: dns answer %d truncated", i)
		}
		rec := DNSRecord{
			Name:  name,
			Type:  binary.BigEndian.Uint16(msg[off : off+2]),
			Class: binary.BigEndian.Uint16(msg[off+2 : off+4]),
			TTL:   binary.BigEndian.Uint32(msg[off+4 : off+8]),
		}
		rdLen := int(binary.BigEndian.Uint16(msg[off+8 : off+10]))
		off += 10
		if off+rdLen > len(msg) {
			return fmt.Errorf("packet: dns answer %d rdata truncated (want %d bytes)", i, rdLen)
		}
		rec.Data = msg[off : off+rdLen]
		off += rdLen
		d.Answers = append(d.Answers, rec)
	}
	return nil
}

// maxDNSName is the longest dotted name accepted.
const maxDNSName = 255

// decodeDNSName decodes a possibly-compressed name starting at off. It
// returns the dotted name and the number of bytes consumed at the original
// position (pointers consume two bytes there). The name is assembled in a
// fixed buffer — its length is capped — so the string is the only
// allocation.
func decodeDNSName(msg []byte, off int) (string, int, error) {
	var buf [maxDNSName]byte
	n := 0
	consumed := 0
	jumped := false
	pointers := 0
	pos := off
	for {
		if pos >= len(msg) {
			return "", 0, fmt.Errorf("name runs past message end")
		}
		b := msg[pos]
		switch {
		case b == 0:
			if !jumped {
				consumed = pos - off + 1
			}
			return string(buf[:n]), consumed, nil
		case b&0xc0 == 0xc0:
			if pos+1 >= len(msg) {
				return "", 0, fmt.Errorf("truncated compression pointer")
			}
			if pointers++; pointers > maxDNSPointers {
				return "", 0, fmt.Errorf("compression pointer chain too long")
			}
			target := int(binary.BigEndian.Uint16(msg[pos:pos+2]) & 0x3fff)
			if !jumped {
				consumed = pos - off + 2
				jumped = true
			}
			if target >= pos {
				return "", 0, fmt.Errorf("forward compression pointer")
			}
			pos = target
		case b&0xc0 != 0:
			return "", 0, fmt.Errorf("reserved label type %#x", b&0xc0)
		default:
			l := int(b)
			if pos+1+l > len(msg) {
				return "", 0, fmt.Errorf("label runs past message end")
			}
			need := n + l
			if n > 0 {
				need++ // the separating dot
			}
			if need > maxDNSName {
				return "", 0, fmt.Errorf("name longer than %d bytes", maxDNSName)
			}
			if n > 0 {
				buf[n] = '.'
				n++
			}
			n += copy(buf[n:], msg[pos+1:pos+1+l])
			pos += 1 + l
		}
	}
}

// AppendDNS appends the wire encoding of d to dst. Names are encoded without
// compression.
func AppendDNS(dst []byte, d *DNS) []byte {
	dst = binary.BigEndian.AppendUint16(dst, d.ID)
	var flags uint16
	if d.Response {
		flags |= 0x8000
	}
	flags |= uint16(d.Opcode&0xf) << 11
	if d.Recursion {
		flags |= 0x0100
	}
	flags |= uint16(d.RCode & 0xf)
	dst = binary.BigEndian.AppendUint16(dst, flags)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(d.Questions)))
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(d.Answers)))
	dst = binary.BigEndian.AppendUint16(dst, 0) // nscount
	dst = binary.BigEndian.AppendUint16(dst, 0) // arcount
	for _, q := range d.Questions {
		dst = appendDNSName(dst, q.Name)
		dst = binary.BigEndian.AppendUint16(dst, q.Type)
		dst = binary.BigEndian.AppendUint16(dst, q.Class)
	}
	for _, a := range d.Answers {
		dst = appendDNSName(dst, a.Name)
		dst = binary.BigEndian.AppendUint16(dst, a.Type)
		dst = binary.BigEndian.AppendUint16(dst, a.Class)
		dst = binary.BigEndian.AppendUint32(dst, a.TTL)
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(a.Data)))
		dst = append(dst, a.Data...)
	}
	return dst
}

func appendDNSName(dst []byte, name string) []byte {
	if name != "" {
		for _, label := range strings.Split(name, ".") {
			if len(label) > 63 {
				label = label[:63]
			}
			dst = append(dst, byte(len(label)))
			dst = append(dst, label...)
		}
	}
	return append(dst, 0)
}

// DNSNameLevel truncates a dotted DNS name to its last n labels, mirroring
// prefix truncation for IP addresses: level 1 keeps only the TLD, level 2 the
// second-level domain, and so on. A level at or beyond the label count
// returns the name unchanged.
func DNSNameLevel(name string, level int) string {
	if level <= 0 {
		return ""
	}
	labels := strings.Split(name, ".")
	if level >= len(labels) {
		return name
	}
	return strings.Join(labels[len(labels)-level:], ".")
}
