package emitter

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/packet"
	"repro/internal/pisa"
	"repro/internal/queries"
	"repro/internal/query"
	"repro/internal/stream"
)

// allSPDeployment installs qs with every pipeline at the stream processor and
// a switch that mirrors each side whole, a batch at a time, into the emitter.
func allSPDeployment(t *testing.T, qs []*query.Query) (*pisa.Switch, *stream.Engine, *Emitter) {
	t.Helper()
	engine := stream.NewEngine(nil)
	prog := &pisa.Program{}
	for _, q := range qs {
		if err := engine.Install(q, 0, stream.Partition{}); err != nil {
			t.Fatal(err)
		}
		prog.Instances = append(prog.Instances, &pisa.InstanceSpec{QID: q.ID, Ops: q.Left.Ops})
		if q.HasJoin() {
			prog.Instances = append(prog.Instances, &pisa.InstanceSpec{QID: q.ID, Side: pisa.SideRight, Ops: q.Right.Ops})
		}
	}
	em := New(engine)
	sw, err := pisa.NewSwitchShared(pisa.DefaultConfig(), prog, em, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sw, engine, em
}

// replay runs frames through sw in 256-view batches, the views parsed as the
// runtime's dispatcher parses them (headers only), calling after(n) once each
// batch of n views has crossed the monitoring port.
func replay(sw *pisa.Switch, frames [][]byte, after func(n int)) {
	parser := packet.NewParser(packet.ParserOptions{})
	views := make([]pisa.View, 256)
	for lo := 0; lo < len(frames); lo += len(views) {
		batch := views[:min(len(views), len(frames)-lo)]
		for i := range batch {
			batch[i].Prepare(parser, frames[lo+i])
		}
		sw.ProcessViews(batch)
		after(len(batch))
	}
}

func resultsOf(results []stream.Result, qid uint16) string {
	for _, r := range results {
		if r.QID == qid {
			return fmt.Sprint(r.Tuples)
		}
	}
	return "absent"
}

// TestDNSDecodeFollowsInstalledQueries pins the emitter's deep-decode gate:
// with only header queries installed (Figures 7–8's eight), mirrored packets
// are adopted without their DNS layer and nothing counts as deep-decoded;
// installing a query that reads a DNS field turns decoding on; and on traffic
// with DNS in it, that query answers exactly what it answers over packets
// always deep-decoded, while the header queries answer what they answered
// with decoding off.
func TestDNSDecodeFollowsInstalledQueries(t *testing.T) {
	p := queries.DefaultParams()
	p.DNSTunnelThresh = 1
	frames := boundaryFrames(rand.New(rand.NewSource(3)), 2048)
	dnsFrame := frames[0]
	for _, f := range frames {
		var pkt packet.Packet
		if packet.NewParser(packet.ParserOptions{DecodeDNS: true}).Parse(f, &pkt) == nil && pkt.Has(packet.LayerDNS) {
			dnsFrame = f
			break
		}
	}

	top := queries.TopEight(p)
	sw, engine, em := allSPDeployment(t, top)
	if engine.ReadsDNS() {
		t.Fatal("the header queries read no DNS field, yet the engine says one does")
	}
	replay(sw, frames, func(n int) {
		for i := range n {
			if em.pkts[i].Has(packet.LayerDNS) {
				t.Fatalf("view %d adopted with its DNS layer decoded, and no installed query reads it", i)
			}
		}
	})
	st := em.WindowStats()
	if st.DeepDecodes != 0 {
		t.Errorf("%d deep decodes with no DNS reader installed", st.DeepDecodes)
	}
	if st.Frames == 0 {
		t.Fatal("vacuous: nothing crossed the monitoring port")
	}
	headerOnly, _ := engine.EndWindow()
	want := make(map[uint16]string)
	for _, q := range top {
		want[q.ID] = resultsOf(headerOnly, q.ID)
	}

	tunnel := queries.DNSTunneling(p)
	tunnel.ID = 9
	if err := engine.Install(tunnel, 0, stream.Partition{}); err != nil {
		t.Fatal(err)
	}
	if !engine.ReadsDNS() {
		t.Fatal("dns_tunneling reads dns.qname, yet the engine says no instance reads DNS")
	}
	var swPkt packet.Packet
	if err := packet.NewParser(packet.ParserOptions{}).Parse(dnsFrame, &swPkt); err != nil {
		t.Fatal(err)
	}
	wire := wireOf(em)
	wire.Deliver(&pisa.Mirror{QID: tunnel.ID, Packet: dnsFrame, Parsed: &swPkt})
	if !wire.pkt.Pkts[0].Has(packet.LayerDNS) {
		t.Fatal("a DNS reader is installed, yet the adopted packet has no DNS layer")
	}
	engine.EndWindow()

	// The reference: dns_tunneling over every frame deep-decoded.
	ref := stream.NewEngine(nil)
	if err := ref.Install(tunnel, 0, stream.Partition{}); err != nil {
		t.Fatal(err)
	}
	deep := packet.NewParser(packet.ParserOptions{DecodeDNS: true})
	for _, f := range frames {
		pkt := new(packet.Packet)
		if deep.Parse(f, pkt) != nil {
			continue // malformed at the emitter too
		}
		ref.Instance(tunnel.ID, 0).IngestPackets(stream.SideLeft, &query.PacketBatch{Pkts: []*packet.Packet{pkt}}, oneSel)
	}
	refResults, _ := ref.EndWindow()
	want[tunnel.ID] = resultsOf(refResults, tunnel.ID)
	if want[tunnel.ID] == "[]" {
		t.Fatal("vacuous: dns_tunneling reports nothing on the reference")
	}

	sw, engine, em = allSPDeployment(t, append(top, tunnel))
	replay(sw, frames, func(int) {})
	if em.WindowStats().DeepDecodes == 0 {
		t.Error("no deep decodes with dns_tunneling installed over DNS traffic")
	}
	got, _ := engine.EndWindow()
	for qid, w := range want {
		if g := resultsOf(got, qid); g != w {
			t.Errorf("q%d: %s\nwant %s", qid, g, w)
		}
	}
}
