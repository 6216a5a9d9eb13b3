package query

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/fields"
	"repro/internal/packet"
	"repro/internal/tuple"
)

// columnCorpus is one frame of every kind the parser tells apart: TCP, UDP,
// ICMP, a non-first fragment, IPv6, a DNS query and a DNS response, ARP (an
// unsupported layer: runnable, nothing past Ethernet) and frames cut inside
// the Ethernet, IPv4 and TCP headers (malformed: not runnable).
func columnCorpus() [][]byte {
	spec := packet.FrameSpec{SrcMAC: [6]byte{2, 0, 0, 0, 0, 1}, DstMAC: [6]byte{2, 0, 0, 0, 0, 2},
		SrcIP: packet.IPv4Addr(10, 1, 2, 3), DstIP: packet.IPv4Addr(9, 8, 7, 6), TTL: 61, TOS: 0x28, IPID: 777,
		Proto: 6, SrcPort: 4321, DstPort: 443, TCPFlags: fields.FlagSYN | fields.FlagACK, Seq: 1 << 31, Ack: 99, Window: 8192,
		Payload: []byte("hello"), Pad: 90}
	tcp := packet.BuildFrame(nil, &spec)
	udp, icmp := spec, spec
	udp.Proto = 17
	icmp.Proto, icmp.Payload = 1, []byte{8, 0, 0, 0, 0, 1, 0, 1}
	frag := packet.BuildFrame(nil, &spec)
	frag[14+6], frag[14+7] = 0x00, 0x10 // fragment offset 16: no transport header
	arp := packet.BuildFrame(nil, &spec)
	arp[12], arp[13] = 0x08, 0x06
	ip6 := packet.IPv6{NextHeader: 17, HopLimit: 64, SrcHi: 0x20010db8_00000001, DstHi: 0x20010db8_ffff0002, PayloadLen: 8}
	v6 := packet.AppendIPv6(packet.AppendEthernet(nil, &packet.Ethernet{Type: packet.EtherTypeIPv6}), &ip6)
	v6 = packet.AppendUDP(v6, &packet.UDP{SrcPort: 5353, DstPort: 53, Length: 8})
	return [][]byte{
		tcp, packet.BuildFrame(nil, &udp), packet.BuildFrame(nil, &icmp), frag, v6,
		packet.BuildDNSQuery(nil, &spec, 7, "a.b.example", packet.DNSTypeTXT),
		packet.BuildDNSResponse(nil, &spec, 7, "a.b.example", 1, []packet.DNSRecord{{Name: "a.b.example", Type: 1, Class: 1, TTL: 5, Data: []byte{1, 2, 3, 4}}}),
		arp, tcp[:9], tcp[:14+11], tcp[:14+20+7],
	}
}

// TestFieldColumnsMatchPacketField is the columns' definition: over the
// runnable frames of a batch, a field's column holds the number Packet.Field
// returns and its bitmap the frames for which Field reports one — for every
// field a set takes, in the switch's parse and in the emitter's deep decode
// of the same frames. What a set does not
// take (names, payloads, the DNS header, operator outputs) has no column.
func TestFieldColumnsMatchPacketField(t *testing.T) {
	set := new(FieldSet)
	for _, f := range fields.All() {
		set.Add(f)
		set.Add(f) // interning is idempotent
	}
	rng := rand.New(rand.NewSource(24))
	corpus := columnCorpus()
	for _, n := range kernelLens {
		for _, deep := range []bool{false, true} {
			parser := packet.NewParser(packet.ParserOptions{DecodeDNS: deep})
			b := &PacketBatch{Pkts: make([]*packet.Packet, n)}
			runnable := make([]uint64, (n+63)>>6)
			for i := range b.Pkts {
				b.Pkts[i] = new(packet.Packet)
				err := parser.Parse(corpus[rng.Intn(len(corpus))], b.Pkts[i])
				if err == nil || errors.Is(err, packet.ErrUnsupportedLayer) {
					runnable[i>>6] |= 1 << uint(i&63)
				}
			}
			b.Extract(set, runnable)
			carried := 0
			for _, f := range fields.All() {
				vals, has, ok := b.Column(f)
				info := fields.Lookup(f)
				if ok != (info.Kind == fields.Numeric && info.SwitchParsable) {
					t.Fatalf("%s: has a column: %v", f, ok)
				}
				if !ok {
					continue
				}
				for i := 0; i < len(has)*64; i++ {
					var want tuple.Value
					wantOK := false
					if i < n && selected(runnable, i) {
						want, wantOK = b.Pkts[i].Field(f)
					}
					if selected(has, i) != wantOK || i < n && vals[i] != want.U {
						t.Fatalf("n=%d deep=%v %s frame %d: column (%d, %v), Packet.Field (%v, %v)",
							n, deep, f, i, vals[i], selected(has, i), want, wantOK)
					}
					if wantOK {
						carried++
					}
				}
			}
			if n > 1 && carried == 0 {
				t.Fatalf("n=%d: no frame carried any field; the test is vacuous", n)
			}
		}
	}
}

func TestFieldSetAddOps(t *testing.T) {
	q := NewBuilder("reads", time.Second).
		Filter(Eq(fields.Proto, 17), Contains(fields.DNSQName, "x")).
		Map(MaskF(fields.DstIP, 16), RoundF(fields.PktLen, 64), F(fields.DNSQType), ConstCol(1)).
		Filter(Gt(fields.ConstV, 0), Lt(fields.PktLen, 9)).
		Distinct().
		MustBuild()
	ops := append([]Op{NewDynPacketFilter("t", fields.SrcIP, 8)}, q.Left.Ops...)
	set := new(FieldSet)
	set.AddOps(ops)
	if got, want := fmt.Sprint(set.ids), fmt.Sprint([]fields.ID{fields.SrcIP, fields.Proto, fields.DstIP, fields.PktLen}); got != want {
		t.Fatalf("interned %s, want %s: the packet-phase reads a column can carry, in order", got, want)
	}
}

// TestU64SetMatchesMap holds the flat set to a Go map over keys that collide
// in their low and in their high bits, with zero (the empty-slot marker),
// 2^64-1 and duplicates among them, from the empty set up — and DynSet.Len to
// what it always counted: the entries the set was built from.
func TestU64SetMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 2, 3, 64, 1000} {
		oracle := map[uint64]struct{}{}
		var keys []tuple.Value
		add := func(k uint64) {
			oracle[k] = struct{}{}
			keys = append(keys, tuple.U64(k))
		}
		for i := 0; i < n; i++ {
			switch rng.Intn(6) {
			case 0:
				add(0)
			case 1:
				add(^uint64(0))
			case 2:
				add(uint64(rng.Intn(8)) << 56) // prefixes: equal low bits
			case 3:
				add(uint64(rng.Intn(8))) // equal high bits
			default:
				add(rng.Uint64())
			}
		}
		flat := newU64Set(len(keys))
		for k := range oracle {
			flat.add(k)
			flat.add(k)
		}
		if len(flat.slots)&(len(flat.slots)-1) != 0 || len(flat.slots) < 2*len(oracle) {
			t.Fatalf("n=%d: %d slots for %d keys: want a power of two, at most half full", n, len(flat.slots), len(oracle))
		}
		set := NewDynSet(keys)
		if set.Len() != len(keys) {
			t.Fatalf("n=%d: Len %d, built from %d entries", n, set.Len(), len(keys))
		}
		probes := []uint64{0, 1, ^uint64(0), 1 << 63, 1 << 56}
		for k := range oracle {
			probes = append(probes, k, k+1, k^1<<40)
		}
		for i := 0; i < 200; i++ {
			probes = append(probes, rng.Uint64())
		}
		for _, k := range probes {
			_, want := oracle[k]
			if flat.has(k) != want || set.nums.has(k) != want {
				t.Fatalf("n=%d key %#x: flat %v, DynSet %v, map %v", n, k, flat.has(k), set.nums.has(k), want)
			}
		}
	}
}
