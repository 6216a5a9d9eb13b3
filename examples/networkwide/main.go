// Networkwide: one query plan running across several vantage points.
//
// The paper's future-work section proposes network-wide telemetry (and the
// authors followed up with network-wide heavy hitter detection at SOSR'18).
// This example deploys Query 1 on four vantage-point switches, routing
// traffic by source address the way flows split across border routers. The
// SYN flood stays below the detection threshold at every individual switch —
// only the merged aggregate at the stream processor reveals it.
//
//	go run ./examples/networkwide
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/fields"
	"repro/internal/packet"
	"repro/internal/pisa"
	"repro/internal/planner"
	"repro/internal/query"
	"repro/internal/runtime"
	"repro/internal/trace"
)

const nSwitches = 4

func main() {
	cfg := trace.DefaultConfig()
	cfg.PacketsPerWindow = 20_000
	cfg.Windows = 5
	gen, err := trace.NewGenerator(cfg)
	if err != nil {
		log.Fatal(err)
	}
	// 256 sources x ~3 SYNs each per window: ~200 SYNs per vantage point
	// after routing, threshold 500.
	gen.AddAttack(trace.NewSYNFlood(trace.StandardVictim, 256, 800, 0, gen.Duration()))

	q := query.NewBuilder("newly_opened_tcp_conns", 3*time.Second).
		Filter(query.Eq(fields.TCPFlags, fields.FlagSYN)).
		Map(query.F(fields.DstIP), query.ConstCol(1)).
		Reduce(query.AggSum, fields.DstIP).
		Filter(query.Gt(fields.AggVal, 500)).
		MustBuild()
	q.ID = 1

	var train []planner.Frames
	for i := 0; i < 2; i++ {
		train = append(train, gen.WindowRecords(i).Frames())
	}
	tr, err := planner.Train([]*query.Query{q}, planner.DefaultMenu, train)
	if err != nil {
		log.Fatal(err)
	}
	plan, err := planner.PlanQueries(tr, []*query.Query{q}, pisa.DefaultConfig(), planner.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}

	rt, err := runtime.NewWithOptions(plan, pisa.DefaultConfig(), runtime.Options{VantagePoints: nSwitches})
	if err != nil {
		log.Fatal(err)
	}
	parser := packet.NewParser(packet.ParserOptions{})
	var pkt packet.Packet
	fmt.Printf("%d vantage points; per-switch SYN share stays below the threshold\n\n", nSwitches)
	for w := 2; w < gen.Windows(); w++ {
		var perSwitch [nSwitches]int
		for _, r := range gen.WindowRecords(w).Records {
			vp := 0
			if parser.Parse(r.Data, &pkt) == nil {
				vp = int(pkt.IPv4.Src) % nSwitches
			}
			perSwitch[vp]++
			rt.ProcessAt(vp, r.Data)
		}
		rep := rt.CloseWindow()
		fmt.Printf("window %d: per-switch packets = %v, merged tuples at SP = %d\n", w, perSwitch, rep.TuplesToSP)
		for _, res := range rep.Results {
			for _, t := range res.Tuples {
				fmt.Printf("  NETWORK-WIDE heavy hitter %s: %d new connections in aggregate\n",
					packet.IPv4String(uint32(t[0].U)), t[1].U)
			}
		}
	}
}
