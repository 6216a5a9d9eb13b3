package queries

import (
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/trace"
)

func TestAllElevenBuild(t *testing.T) {
	p := DefaultParams()
	qs := All(p)
	if len(qs) != 11 {
		t.Fatalf("query count = %d", len(qs))
	}
	seen := map[string]bool{}
	for i, q := range qs {
		if q.ID != uint16(i+1) {
			t.Errorf("%s: ID = %d, want %d", q.Name, q.ID, i+1)
		}
		if seen[q.Name] {
			t.Errorf("duplicate query name %s", q.Name)
		}
		seen[q.Name] = true
		if err := query.Validate(q); err != nil {
			t.Errorf("%s: %v", q.Name, err)
		}
		if q.LinesOfCode() >= 20 {
			t.Errorf("%s: %d lines, paper promises < 20", q.Name, q.LinesOfCode())
		}
	}
}

func TestTopEightAvoidDeepParsing(t *testing.T) {
	for _, q := range TopEight(DefaultParams()) {
		// The top eight only touch layer-3/4 headers: every pipeline must
		// have a nonzero switch-capable prefix.
		if n := query.SwitchPrefixLen(q.Left); n == 0 {
			t.Errorf("%s: left pipeline not switch-capable at all", q.Name)
		}
	}
}

func TestByName(t *testing.T) {
	p := DefaultParams()
	q, err := ByName(p, "superspreader")
	if err != nil || q.Name != "superspreader" {
		t.Fatalf("ByName = %v, %v", q, err)
	}
	if _, err := ByName(p, "nonexistent"); err == nil {
		t.Error("ByName accepted unknown name")
	}
}

// TestEachQueryDetectsItsAttack runs every query All-SP style over a
// workload containing exactly its target attack and checks the victim
// appears in the results — the ground-truth detection property the whole
// system rests on.
func TestEachQueryDetectsItsAttack(t *testing.T) {
	const pkts = 8000
	p := DefaultParams()
	p.NewTCPThresh = 200
	p.SSHBruteThresh = 25
	p.SpreaderThresh = 60
	p.PortScanThresh = 60
	p.DDoSThresh = 70
	p.SYNFloodThresh = 200
	p.IncompleteThresh = 60
	p.SlowlorisBytesThresh = 2000
	p.SlowlorisRatioThresh = 5
	p.DNSTunnelThresh = 40
	p.ZorroTelnetThresh = 20
	p.DNSReflectThresh = 70

	victim := trace.StandardVictim
	attacker := packet.IPv4Addr(10, 200, 0, 1)
	cases := []struct {
		q      *query.Query
		attack func(g *trace.Generator)
		want   uint32 // expected key in results
	}{
		{NewlyOpenedTCPConns(p), func(g *trace.Generator) {
			g.AddAttack(trace.NewSYNFlood(victim, 64, 400, 0, g.Duration()))
		}, victim},
		{SSHBruteForce(p), func(g *trace.Generator) {
			g.AddAttack(trace.NewSSHBruteForce(victim, 48, 120, 0, g.Duration()))
		}, victim},
		{Superspreader(p), func(g *trace.Generator) {
			g.AddAttack(trace.NewSuperspreader(attacker, 200, 300, 0, g.Duration()))
		}, attacker},
		{PortScan(p), func(g *trace.Generator) {
			g.AddAttack(trace.NewPortScan(attacker, victim, 300, 350, 0, g.Duration()))
		}, attacker},
		{DDoS(p), func(g *trace.Generator) {
			g.AddAttack(trace.NewDDoS(victim, 300, 400, 0, g.Duration()))
		}, victim},
		{TCPSYNFlood(p), func(g *trace.Generator) {
			g.AddAttack(trace.NewSYNFlood(victim, 64, 400, 0, g.Duration()))
		}, victim},
		{TCPIncompleteFlows(p), func(g *trace.Generator) {
			g.AddAttack(trace.NewTCPIncomplete(victim, 100, 300, 0, g.Duration()))
		}, victim},
		{SlowlorisAttacks(p), func(g *trace.Generator) {
			g.AddAttack(trace.NewSlowloris(victim, 300, 0, g.Duration()))
		}, victim},
		{DNSTunneling(p), func(g *trace.Generator) {
			g.AddAttack(trace.NewDNSTunnel(attacker, packet.IPv4Addr(8, 8, 8, 8),
				"exfil.bad.com", 80, 0, g.Duration()))
		}, attacker},
		{ZorroAttack(p), func(g *trace.Generator) {
			g.AddAttack(trace.NewZorro(attacker, victim, 200, 0, g.Duration(), time.Second))
		}, victim},
		{DNSReflection(p), func(g *trace.Generator) {
			g.AddAttack(trace.NewDNSReflection(victim, 200, 400, 0, g.Duration()))
		}, victim},
	}

	for _, c := range cases {
		c := c
		t.Run(c.q.Name, func(t *testing.T) {
			cfg := trace.DefaultConfig()
			cfg.PacketsPerWindow = pkts
			cfg.Windows = 1
			cfg.Hosts = 500
			g, err := trace.NewGenerator(cfg)
			if err != nil {
				t.Fatal(err)
			}
			c.attack(g)

			c.q.ID = 1
			engine := stream.NewEngine(nil)
			if err := engine.Install(c.q, 0, stream.Partition{}); err != nil {
				t.Fatal(err)
			}
			parser := packet.NewParser(packet.ParserOptions{DecodeDNS: true})
			var pkt packet.Packet
			pkts, one := &query.PacketBatch{Pkts: []*packet.Packet{&pkt}}, []uint64{1} // one selects pkt
			inst := engine.Instance(1, 0)
			for _, r := range g.WindowRecords(0).Records {
				if parser.Parse(r.Data, &pkt) != nil {
					continue
				}
				inst.IngestPackets(stream.SideLeft, pkts, one)
				if c.q.HasJoin() {
					inst.IngestPackets(stream.SideRight, pkts, one)
				}
			}
			results, _ := engine.EndWindow()
			found := false
			for _, tup := range results[0].Tuples {
				if len(tup) > 0 && tup[0].U == uint64(c.want) {
					found = true
				}
			}
			if !found {
				t.Errorf("victim %s not among %d results: %v",
					packet.IPv4String(c.want), len(results[0].Tuples), results[0].Tuples)
			}
			// Precision: the needle list must stay tiny relative to hosts.
			if len(results[0].Tuples) > 25 {
				t.Errorf("%d results; query not selective", len(results[0].Tuples))
			}
		})
	}
}
