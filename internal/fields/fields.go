// Package fields defines the registry of packet and tuple fields that Sonata
// queries can reference.
//
// A field identifies a single value extracted from a packet (for example the
// IPv4 destination address or the TCP flags byte) or a value synthesized by a
// dataflow operator (for example the running aggregate produced by reduce).
// Fields carry static metadata — bit width, value kind, and whether the field
// is hierarchical — that the query planner uses to size switch resources and
// to identify refinement keys (Section 4.1 of the paper).
package fields

import "fmt"

// ID names a field. IDs are small integers so they can be stored compactly in
// schemas, match-action table specifications, and the emitter wire format.
type ID uint8

// Packet header fields and synthetic dataflow fields.
const (
	// Unknown is the zero ID and never names a real field.
	Unknown ID = iota

	// Link layer.
	EthSrc  // Ethernet source MAC (48 bits)
	EthDst  // Ethernet destination MAC (48 bits)
	EthType // EtherType (16 bits)

	// Network layer.
	SrcIP   // IPv4 source address (32 bits, hierarchical)
	DstIP   // IPv4 destination address (32 bits, hierarchical)
	SrcIPv6 // IPv6 source address (truncated to 64 bits, hierarchical)
	DstIPv6 // IPv6 destination address (truncated to 64 bits, hierarchical)
	Proto   // IP protocol number (8 bits)
	TTL     // IPv4 time-to-live (8 bits)
	IPLen   // IPv4 total length (16 bits)
	IPID    // IPv4 identification (16 bits)
	DSCP    // IPv4 DSCP/TOS bits (8 bits)

	// Transport layer.
	SrcPort  // TCP/UDP source port (16 bits)
	DstPort  // TCP/UDP destination port (16 bits)
	TCPFlags // TCP flags byte (8 bits)
	TCPSeq   // TCP sequence number (32 bits)
	TCPAck   // TCP acknowledgment number (32 bits)
	TCPWin   // TCP advertised window (16 bits)

	// Packet-level quantities.
	PktLen     // total frame length in bytes (16 bits)
	PayloadLen // transport payload length in bytes (16 bits)
	Payload    // transport payload (string; stream processor only)

	// DNS fields (require deep parsing; extracted by the switch parser for
	// header fields and by the stream processor for names).
	DNSQName   // first question name (string, hierarchical by label)
	DNSRRName  // first answer resource-record name (string, hierarchical)
	DNSQType   // first question type (16 bits)
	DNSAnCount // answer count (16 bits)
	DNSQR      // query/response bit (1 bit)

	// Synthetic dataflow fields produced by operators.
	AggVal  // aggregate produced by reduce (64 bits)
	AggVal2 // second aggregate, e.g. the right side of a join (64 bits)
	ConstV  // constant column introduced by map (64 bits)
	QID     // query identifier metadata (16 bits)

	numIDs // sentinel; keep last
)

// Kind classifies the runtime representation of a field's values.
type Kind uint8

const (
	// Numeric fields fit in a uint64.
	Numeric Kind = iota
	// Bytes fields are variable-length byte strings (payload, DNS names).
	Bytes
)

// Info is the static metadata for one field.
type Info struct {
	ID   ID
	Name string
	Kind Kind
	// Bits is the width used when the field is carried in switch metadata.
	// Bytes-kind fields report the width of a pointer/offset pair because the
	// switch cannot carry the bytes themselves.
	Bits int
	// Hierarchical reports whether coarser versions of the field exist, which
	// makes it a candidate refinement key (Section 4.1). For IPv4 addresses
	// the levels are prefix lengths 1..32; for DNS names, label counts.
	Hierarchical bool
	// MaxLevel is the finest refinement level for hierarchical fields (32 for
	// IPv4 prefixes, 8 for DNS label depth). Zero for flat fields.
	MaxLevel int
	// SwitchParsable reports whether a PISA parser can extract the field at
	// line rate. Payload and DNS name fields require the stream processor.
	SwitchParsable bool
}

var infos = [numIDs]Info{
	EthSrc:     {EthSrc, "eth.src", Numeric, 48, false, 0, true},
	EthDst:     {EthDst, "eth.dst", Numeric, 48, false, 0, true},
	EthType:    {EthType, "eth.type", Numeric, 16, false, 0, true},
	SrcIP:      {SrcIP, "ipv4.sIP", Numeric, 32, true, 32, true},
	DstIP:      {DstIP, "ipv4.dIP", Numeric, 32, true, 32, true},
	SrcIPv6:    {SrcIPv6, "ipv6.sIP", Numeric, 64, true, 64, true},
	DstIPv6:    {DstIPv6, "ipv6.dIP", Numeric, 64, true, 64, true},
	Proto:      {Proto, "ipv4.proto", Numeric, 8, false, 0, true},
	TTL:        {TTL, "ipv4.ttl", Numeric, 8, false, 0, true},
	IPLen:      {IPLen, "ipv4.len", Numeric, 16, false, 0, true},
	IPID:       {IPID, "ipv4.id", Numeric, 16, false, 0, true},
	DSCP:       {DSCP, "ipv4.dscp", Numeric, 8, false, 0, true},
	SrcPort:    {SrcPort, "tcp.sPort", Numeric, 16, false, 0, true},
	DstPort:    {DstPort, "tcp.dPort", Numeric, 16, false, 0, true},
	TCPFlags:   {TCPFlags, "tcp.flags", Numeric, 8, false, 0, true},
	TCPSeq:     {TCPSeq, "tcp.seq", Numeric, 32, false, 0, true},
	TCPAck:     {TCPAck, "tcp.ack", Numeric, 32, false, 0, true},
	TCPWin:     {TCPWin, "tcp.win", Numeric, 16, false, 0, true},
	PktLen:     {PktLen, "pkt.len", Numeric, 16, false, 0, true},
	PayloadLen: {PayloadLen, "payload.len", Numeric, 16, false, 0, true},
	Payload:    {Payload, "payload", Bytes, 32, false, 0, false},
	DNSQName:   {DNSQName, "dns.qname", Bytes, 32, true, 8, false},
	DNSRRName:  {DNSRRName, "dns.rr.name", Bytes, 32, true, 8, false},
	DNSQType:   {DNSQType, "dns.qtype", Numeric, 16, false, 0, false},
	DNSAnCount: {DNSAnCount, "dns.ancount", Numeric, 16, false, 0, false},
	DNSQR:      {DNSQR, "dns.qr", Numeric, 1, false, 0, false},
	AggVal:     {AggVal, "agg", Numeric, 64, false, 0, true},
	AggVal2:    {AggVal2, "agg2", Numeric, 64, false, 0, true},
	ConstV:     {ConstV, "const", Numeric, 64, false, 0, true},
	QID:        {QID, "qid", Numeric, 16, false, 0, true},
}

var byName = func() map[string]ID {
	m := make(map[string]ID, numIDs)
	for id := ID(1); id < numIDs; id++ {
		if infos[id].Name != "" {
			m[infos[id].Name] = id
		}
	}
	return m
}()

// Lookup returns the Info for id. It panics on an invalid ID because a bad
// field identifier is always a programming error, never a runtime condition.
func Lookup(id ID) Info {
	if id == Unknown || id >= numIDs {
		panic(fmt.Sprintf("fields: invalid field ID %d", id))
	}
	return infos[id]
}

// Valid reports whether id names a registered field.
func Valid(id ID) bool { return id > Unknown && id < numIDs }

// ByName resolves a field by its dotted name, e.g. "ipv4.dIP".
func ByName(name string) (ID, bool) {
	id, ok := byName[name]
	return id, ok
}

// All returns every registered field ID in declaration order.
func All() []ID {
	ids := make([]ID, 0, numIDs-1)
	for id := ID(1); id < numIDs; id++ {
		ids = append(ids, id)
	}
	return ids
}

// String returns the dotted name of the field.
func (id ID) String() string {
	if !Valid(id) {
		return fmt.Sprintf("field(%d)", uint8(id))
	}
	return infos[id].Name
}

// Bits returns the metadata width of the field in bits.
func (id ID) Bits() int { return Lookup(id).Bits }

// Hierarchical reports whether the field supports refinement levels.
func (id ID) Hierarchical() bool { return Lookup(id).Hierarchical }

// LevelShift returns the number of low bits refinement level level clears
// from a value of field id: v >> s << s is the value at that level. For IPv4
// addresses, level is a prefix length and the top level bits survive.
// Level zero and below clear everything (s = 64, and Go defines an
// over-wide shift of an unsigned value as zero); the field's MaxLevel and
// beyond clear nothing. A caller masking many values resolves the shift
// once and loops over shifts. LevelShift panics if the field is not
// numeric-hierarchical.
func LevelShift(id ID, level int) uint {
	if !Valid(id) {
		panic(fmt.Sprintf("fields: invalid field ID %d", id))
	}
	info := &infos[id]
	if !info.Hierarchical || info.Kind != Numeric {
		panic(fmt.Sprintf("fields: LevelShift on non-hierarchical field %s", id))
	}
	switch {
	case level <= 0:
		return 64
	case level >= info.MaxLevel:
		return 0
	}
	return uint(info.MaxLevel - level)
}

// TruncateU64 returns the numeric value v reduced to refinement level
// level for field id: one value's worth of LevelShift.
func TruncateU64(id ID, v uint64, level int) uint64 {
	s := LevelShift(id, level)
	return v >> s << s
}

// TCP flag bit masks for the TCPFlags field.
const (
	FlagFIN = 1 << 0
	FlagSYN = 1 << 1
	FlagRST = 1 << 2
	FlagPSH = 1 << 3
	FlagACK = 1 << 4
	FlagURG = 1 << 5
)

// IP protocol numbers used throughout the queries.
const (
	ProtoICMP = 1
	ProtoTCP  = 6
	ProtoUDP  = 17
)
