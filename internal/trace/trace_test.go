package trace

import (
	"bytes"
	"sort"
	"testing"
	"time"

	"repro/internal/fields"
	"repro/internal/packet"
)

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.PacketsPerWindow = 4000
	cfg.Windows = 3
	cfg.Hosts = 500
	return cfg
}

func TestGeneratorDeterministic(t *testing.T) {
	cfg := smallConfig()
	g1, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	StandardAttackSuite(g1)
	StandardAttackSuite(g2)
	for i := 0; i < cfg.Windows; i++ {
		w1, w2 := g1.WindowRecords(i), g2.WindowRecords(i)
		if len(w1.Records) != len(w2.Records) {
			t.Fatalf("window %d: %d vs %d records", i, len(w1.Records), len(w2.Records))
		}
		for j := range w1.Records {
			if w1.Records[j].TS != w2.Records[j].TS || !bytes.Equal(w1.Records[j].Data, w2.Records[j].Data) {
				t.Fatalf("window %d record %d differs", i, j)
			}
		}
	}
}

// TestParallelGenerationDeterministic is the purity contract behind
// GenerateWindows: the same seed must yield byte-identical pcap output at
// any worker count, and regenerating a window out of order (or twice) must
// reproduce it exactly.
func TestParallelGenerationDeterministic(t *testing.T) {
	cfg := smallConfig()
	pcapAt := func(workers int) []byte {
		g, err := NewGenerator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		StandardAttackSuite(g)
		var buf bytes.Buffer
		if err := WritePcap(&buf, g, workers); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	want := pcapAt(1)
	for _, workers := range []int{2, 4, 8} {
		if got := pcapAt(workers); !bytes.Equal(got, want) {
			t.Errorf("pcap bytes at %d workers differ from sequential (%d vs %d bytes)",
				workers, len(got), len(want))
		}
	}

	// Out-of-order and repeated regeneration must match the in-order pass.
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	StandardAttackSuite(g)
	last := g.WindowRecords(cfg.Windows - 1)
	first := g.WindowRecords(0)
	again := g.WindowRecords(cfg.Windows - 1)
	if len(last.Records) != len(again.Records) {
		t.Fatalf("regenerated window: %d vs %d records", len(last.Records), len(again.Records))
	}
	for j := range last.Records {
		if last.Records[j].TS != again.Records[j].TS || !bytes.Equal(last.Records[j].Data, again.Records[j].Data) {
			t.Fatalf("regenerated window record %d differs", j)
		}
	}
	if len(first.Records) == 0 {
		t.Fatal("first window empty")
	}
}

func TestGeneratorWindowsSortedAndInRange(t *testing.T) {
	g, err := NewGenerator(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	StandardAttackSuite(g)
	for i := 0; i < g.Windows(); i++ {
		w := g.WindowRecords(i)
		if !sort.SliceIsSorted(w.Records, func(a, b int) bool { return w.Records[a].TS < w.Records[b].TS }) {
			t.Errorf("window %d not sorted", i)
		}
		lo := w.Start
		hi := w.Start + g.Config().Window
		for _, r := range w.Records {
			if r.TS < lo || r.TS >= hi {
				t.Fatalf("window %d record at %v outside [%v,%v)", i, r.TS, lo, hi)
			}
		}
		if len(w.Records) < g.Config().PacketsPerWindow {
			t.Errorf("window %d has %d records, below budget %d", i, len(w.Records), g.Config().PacketsPerWindow)
		}
	}
}

func TestGeneratorPacketsParse(t *testing.T) {
	g, err := NewGenerator(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	StandardAttackSuite(g)
	p := packet.NewParser(packet.ParserOptions{DecodeDNS: true})
	var pkt packet.Packet
	w := g.WindowRecords(0)
	dns, tcp, udp := 0, 0, 0
	for _, r := range w.Records {
		if err := p.Parse(r.Data, &pkt); err != nil {
			t.Fatalf("generated packet failed to parse: %v", err)
		}
		switch {
		case pkt.Has(packet.LayerDNS):
			dns++
		case pkt.Has(packet.LayerTCP):
			tcp++
		case pkt.Has(packet.LayerUDP):
			udp++
		}
	}
	if tcp == 0 || udp == 0 || dns == 0 {
		t.Errorf("traffic mix missing classes: tcp=%d udp=%d dns=%d", tcp, udp, dns)
	}
	if tcp < udp {
		t.Errorf("expected TCP-dominated mix, got tcp=%d udp=%d", tcp, udp)
	}
}

// The headline property the generator must reproduce: per-destination packet
// counts are heavy-tailed and the attack victims stand out.
func TestHeavyTailAndNeedles(t *testing.T) {
	cfg := smallConfig()
	cfg.PacketsPerWindow = 8000
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g.AddAttack(NewSYNFlood(StandardVictim, 64, 400, 0, g.Duration()))
	w := g.WindowRecords(1)

	p := packet.NewParser(packet.ParserOptions{})
	var pkt packet.Packet
	synPerDst := map[uint32]int{}
	for _, r := range w.Records {
		if p.Parse(r.Data, &pkt) != nil || !pkt.Has(packet.LayerTCP) {
			continue
		}
		if pkt.TCP.Flags == fields.FlagSYN {
			synPerDst[pkt.IPv4.Dst]++
		}
	}
	max, maxDst, second := 0, uint32(0), 0
	for d, c := range synPerDst {
		if c > max {
			max, second, maxDst = c, max, d
		} else if c > second {
			second = c
		}
	}
	if maxDst != StandardVictim {
		t.Errorf("top SYN destination = %s, want victim %s",
			packet.IPv4String(maxDst), packet.IPv4String(StandardVictim))
	}
	// The needle must clearly lead even the most popular background host
	// (which is itself heavy-tailed, so the gap is 2x not 100x).
	if max < 2*second {
		t.Errorf("victim got %d SYNs vs runner-up %d; needle not prominent", max, second)
	}
	// Heavy tail: the median destination sees a tiny trickle.
	counts := make([]int, 0, len(synPerDst))
	for _, c := range synPerDst {
		counts = append(counts, c)
	}
	sort.Ints(counts)
	if med := counts[len(counts)/2]; med > 5 {
		t.Errorf("median per-destination SYN count = %d; tail not heavy", med)
	}
	// Heavy tail: far more destinations than "hot" destinations.
	hot := 0
	for _, c := range synPerDst {
		if c > 5 {
			hot++
		}
	}
	if hot > len(synPerDst)/4 {
		t.Errorf("background SYNs too concentrated: %d hot of %d", hot, len(synPerDst))
	}
}

func TestZorroPhases(t *testing.T) {
	cfg := smallConfig()
	cfg.Windows = 8
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	shellAt := 16 * time.Second
	g.AddAttack(NewZorro(ip4(10, 66, 0, 1), StandardVictim, 300, 9*time.Second, g.Duration(), shellAt))

	p := packet.NewParser(packet.ParserOptions{})
	var pkt packet.Packet
	zorro := 0
	telnetByWindow := make([]int, cfg.Windows)
	for i := 0; i < cfg.Windows; i++ {
		for _, r := range g.WindowRecords(i).Records {
			if p.Parse(r.Data, &pkt) != nil || !pkt.Has(packet.LayerTCP) {
				continue
			}
			if pkt.TCP.DstPort == 23 && pkt.IPv4.Dst == StandardVictim {
				telnetByWindow[i]++
				if bytes.Contains(pkt.Payload, []byte("zorro")) {
					zorro++
					if r.TS < shellAt {
						t.Errorf("zorro payload before shell time at %v", r.TS)
					}
				}
			}
		}
	}
	if zorro != 5 {
		t.Errorf("zorro packets = %d, want 5", zorro)
	}
	if telnetByWindow[0] != 0 || telnetByWindow[2] != 0 {
		t.Errorf("attack traffic before start: %v", telnetByWindow)
	}
	if telnetByWindow[4] == 0 || telnetByWindow[6] == 0 {
		t.Errorf("attack traffic missing during active phase: %v", telnetByWindow)
	}
}

func TestDNSTunnelUniqueNames(t *testing.T) {
	cfg := smallConfig()
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tun := NewDNSTunnel(ip4(99, 9, 0, 66), ip4(8, 8, 8, 8), "exfil.bad.com", 100, 0, g.Duration())
	g.AddAttack(tun)

	p := packet.NewParser(packet.ParserOptions{DecodeDNS: true})
	var pkt packet.Packet
	names := map[string]bool{}
	queries := 0
	for i := 0; i < cfg.Windows; i++ {
		for _, r := range g.WindowRecords(i).Records {
			if p.Parse(r.Data, &pkt) != nil || !pkt.Has(packet.LayerDNS) || pkt.DNS.Response {
				continue
			}
			name := pkt.DNS.Questions[0].Name
			if packet.DNSNameLevel(name, 3) == "exfil.bad.com" && name != "exfil.bad.com" {
				queries++
				names[name] = true
			}
		}
	}
	if queries == 0 {
		t.Fatal("no tunnel queries generated")
	}
	if len(names) != queries {
		t.Errorf("tunnel labels repeat: %d unique of %d", len(names), queries)
	}
}

func TestSliceWindows(t *testing.T) {
	recs := []Record{
		{TS: 0},
		{TS: time.Second},
		{TS: 2*time.Second + 500*time.Millisecond},
		{TS: 5 * time.Second},
	}
	wins := Slice(recs, time.Second, 6*time.Second)
	if len(wins) != 6 {
		t.Fatalf("got %d windows", len(wins))
	}
	counts := []int{1, 1, 1, 0, 0, 1}
	for i, want := range counts {
		if len(wins[i].Records) != want {
			t.Errorf("window %d has %d records, want %d", i, len(wins[i].Records), want)
		}
	}
}

func TestPcapRoundTrip(t *testing.T) {
	cfg := smallConfig()
	cfg.PacketsPerWindow = 500
	cfg.Windows = 2
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WritePcap(&buf, g, 1); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadPcap(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var want int
	for i := 0; i < cfg.Windows; i++ {
		want += len(g.WindowRecords(i).Records)
	}
	if len(recs) != want {
		t.Fatalf("round trip lost records: %d vs %d", len(recs), want)
	}
	// Pcap microsecond resolution may coarsen timestamps but order holds.
	if !sort.SliceIsSorted(recs, func(a, b int) bool { return recs[a].TS < recs[b].TS }) {
		t.Error("round-tripped records out of order")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},
		{Window: time.Second, Windows: 1, PacketsPerWindow: 0, Hosts: 100, ZipfS: 1.2},
		{Window: time.Second, Windows: 1, PacketsPerWindow: 10, Hosts: 2, ZipfS: 1.2},
		{Window: time.Second, Windows: 1, PacketsPerWindow: 10, Hosts: 100, ZipfS: 0.5},
	}
	for i, cfg := range bad {
		if _, err := NewGenerator(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func BenchmarkGenerateWindow(b *testing.B) {
	cfg := DefaultConfig()
	cfg.PacketsPerWindow = 20000
	g, err := NewGenerator(cfg)
	if err != nil {
		b.Fatal(err)
	}
	StandardAttackSuite(g)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := g.WindowRecords(i % cfg.Windows)
		if len(w.Records) == 0 {
			b.Fatal("empty window")
		}
	}
}
