package trace

import (
	"fmt"
	"io"
	"time"

	"repro/internal/pcap"
)

// WritePcap streams every window of g to w as a classic pcap capture, with
// window generation spread over up to workers goroutines. Virtual timestamps
// are anchored at epoch, windows are written in order and generation is pure
// per window, so the bytes are reproducible and the same at any worker
// count.
func WritePcap(w io.Writer, g *Generator, workers int) error {
	pw := pcap.NewWriter(w, pcap.LinkTypeEthernet, 65535)
	var werr error
	g.GenerateWindows(workers, func(win Window) {
		if werr != nil {
			return
		}
		for _, rec := range win.Records {
			if err := pw.WritePacket(time.Unix(0, 0).Add(rec.TS), rec.Data); err != nil {
				werr = fmt.Errorf("trace: window %d: %w", win.Index, err)
				return
			}
		}
	})
	if werr != nil {
		return werr
	}
	return pw.Flush()
}

// ReadPcap loads a capture into records with timestamps relative to the
// first packet.
func ReadPcap(r io.Reader) ([]Record, error) {
	pr, err := pcap.NewReader(r)
	if err != nil {
		return nil, err
	}
	var recs []Record
	var base time.Time
	for {
		rec, err := pr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if base.IsZero() {
			base = rec.TS
		}
		recs = append(recs, Record{TS: rec.TS.Sub(base), Data: rec.Data})
	}
	return recs, nil
}

// StandardVictim is the case-study victim address used throughout the
// evaluation; it matches the 99.7.0.25 host from the paper's Figure 9.
var StandardVictim = ip4(99, 7, 0, 25)

func ip4(a, b, c, d byte) uint32 {
	return uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d)
}

// StandardAttackSuite registers one instance of every attack class on g,
// sized relative to the generator's background budget so the needles stay
// needles as the workload scales. Attacks run from the beginning through
// the end of the trace so every window carries signal, except Zorro, whose
// phased timeline is driven by the case study.
func StandardAttackSuite(g *Generator) {
	cfg := g.Config()
	full := span{0, g.Duration()}
	rate := cfg.PacketsPerWindow

	g.AddAttack(NewSYNFlood(StandardVictim, 256, rate/50, full.Start, full.End))
	g.AddAttack(NewSSHBruteForce(ip4(99, 7, 1, 40), 48, rate/200, full.Start, full.End))
	g.AddAttack(NewSuperspreader(ip4(99, 9, 3, 7), 600, rate/100, full.Start, full.End))
	g.AddAttack(NewPortScan(ip4(10, 200, 0, 1), ip4(99, 7, 2, 50), 800, rate/100, full.Start, full.End))
	g.AddAttack(NewDDoS(ip4(99, 8, 0, 10), 900, rate/50, full.Start, full.End))
	g.AddAttack(NewTCPIncomplete(ip4(99, 8, 1, 20), 300, rate/100, full.Start, full.End))
	g.AddAttack(NewSlowloris(ip4(99, 7, 3, 80), rate/200, full.Start, full.End))
	g.AddAttack(NewDNSTunnel(ip4(99, 9, 0, 66), ip4(8, 8, 8, 8), "exfil.bad-domain.com", rate/200, full.Start, full.End))
	g.AddAttack(NewDNSReflection(ip4(99, 8, 2, 30), 400, rate/50, full.Start, full.End))
}
