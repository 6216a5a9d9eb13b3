package planner

import (
	"testing"
	"time"

	"repro/internal/fields"
	"repro/internal/packet"
	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/tuple"
)

// dnsCountQuery counts DNS queries per query name — the paper's example of
// a non-IP refinement key: dns.rr.name refines by label depth, from the
// root (level 1 = TLD) down to the fully qualified name.
func dnsCountQuery(th uint64) *query.Query {
	q := query.NewBuilder("dns_name_count", time.Second).
		Filter(query.Eq(fields.DNSQR, 0)).
		Map(query.F(fields.DNSQName), query.ConstCol(1)).
		Reduce(query.AggSum, fields.DNSQName).
		Filter(query.Gt(fields.AggVal, th)).
		MustBuild()
	q.ID = 7
	return q
}

func TestDNSNameIsRefinementKey(t *testing.T) {
	q := dnsCountQuery(10)
	key, ok := query.QueryRefinementKey(q)
	if !ok {
		t.Fatal("DNS-name query not refinable")
	}
	if key.Field != fields.DNSQName || key.MaxLevel != 8 {
		t.Fatalf("key = %+v", key)
	}
}

func TestDNSNameAugmentationMasksLabels(t *testing.T) {
	q := dnsCountQuery(10)
	key, _ := query.QueryRefinementKey(q)
	aug := AugmentQuery(q, key, 2, 3, Thresholds{})

	// Build a DNS query packet and push it through the augmented pipeline
	// with the dynamic filter loaded for its 2-label suffix.
	spec := packet.FrameSpec{SrcIP: 1, DstIP: 2, SrcPort: 4000}
	frame := packet.BuildDNSQuery(nil, &spec, 9, "chunk1.exfil.bad.example", packet.DNSTypeTXT)
	parser := packet.NewParser(packet.ParserOptions{DecodeDNS: true})
	var pkt packet.Packet
	if err := parser.Parse(frame, &pkt); err != nil {
		t.Fatal(err)
	}

	dyn := stream.NewDynTables()
	prof := stream.NewProfiler(aug.Left.Ops, dyn)
	// Without the gate nothing passes.
	feed(prof, []packet.Packet{pkt})
	if out := prof.EndWindow(); len(out.Outputs) != 0 {
		t.Fatalf("ungated output = %v", out.Outputs)
	}
	// Gate on the /2 suffix ("bad.example"): now the masked /3 name counts.
	dyn.Publish(DynTableName(7, 3), query.NewDynSet([]tuple.Value{
		query.MaskValue(fields.DNSQName, tuple.Str("bad.example"), 2),
	}))
	for i := 0; i < 12; i++ {
		feed(prof, []packet.Packet{pkt})
	}
	out := prof.EndWindow()
	if len(out.Outputs) != 1 {
		t.Fatalf("gated outputs = %v", out.Outputs)
	}
	got := out.Outputs[0]
	if got[0].S != "exfil.bad.example" {
		t.Errorf("masked name = %q, want the 3-label suffix", got[0].S)
	}
	if got[1].U != 12 {
		t.Errorf("count = %d", got[1].U)
	}
}

// TestDNSNameQueryStaysOffSwitch checks that the compiler never claims the
// switch can handle string-keyed state: the planner must schedule the whole
// pipeline (including its dyn filters) at the stream processor.
func TestDNSNameQueryStaysOffSwitch(t *testing.T) {
	q := dnsCountQuery(10)
	if n := query.SwitchPrefixLen(q.Left); n != 1 {
		// Only the QR-bit filter could even theoretically run on a switch —
		// and only if the parser extracted it, which DNS fields forbid.
		t.Logf("switch prefix = %d ops", n)
	}
	for i := range q.Left.Ops {
		sup := query.OpSwitchSupport(&q.Left.Ops[i])
		if q.Left.Ops[i].Kind == query.OpMap && sup.OK {
			t.Error("DNS-name map marked switch-supported")
		}
	}
}
