// Quickstart: detect a SYN flood with one Sonata query.
//
// The example generates a synthetic border-switch workload with a SYN flood
// aimed at 99.7.0.25, expresses Query 1 of the paper ("newly opened TCP
// connections"), trains the planner on the first two windows, and replays
// the rest. Watch the tuples-to-stream-processor column: the switch handles
// almost everything.
//
//	go run ./examples/quickstart
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

func main() {
	// 1. A workload: background traffic plus a SYN flood.
	cfg := trace.DefaultConfig()
	cfg.PacketsPerWindow = 20_000
	cfg.Windows = 6
	gen, err := trace.NewGenerator(cfg)
	if err != nil {
		log.Fatal(err)
	}
	gen.AddAttack(trace.NewSYNFlood(trace.StandardVictim, 128, 1_000, 0, gen.Duration()))

	// 2. The query, in the paper's surface syntax:
	//
	//	packetStream(W)
	//	  .filter(p => p.tcp.flags == SYN)
	//	  .map(p => (p.dIP, 1))
	//	  .reduce(keys=(dIP,), f=sum)
	//	  .filter((dIP, count) => count > 400)
	q := query.NewBuilder("newly_opened_tcp_conns", 3*time.Second).
		Filter(query.Eq(fields.TCPFlags, fields.FlagSYN)).
		Map(query.F(fields.DstIP), query.ConstCol(1)).
		Reduce(query.AggSum, fields.DstIP).
		Filter(query.Gt(fields.AggVal, 400)).
		MustBuild()
	fmt.Println("query:")
	fmt.Println(q)

	// 3. Train the planner on two windows, plan, and deploy.
	q.ID = 1
	qs := []*query.Query{q}
	var train []planner.Frames
	for i := 0; i < 2; i++ {
		train = append(train, gen.WindowRecords(i).Frames())
	}
	tr, err := planner.Train(qs, planner.DefaultMenu, train)
	if err != nil {
		log.Fatal(err)
	}
	plan, err := planner.PlanQueries(tr, qs, pisa.DefaultConfig(), planner.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	rt, err := runtime.NewWithOptions(plan, pisa.DefaultConfig(), runtime.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("plan:")
	for _, line := range rt.EntrySummary() {
		fmt.Println("  ", line)
	}

	// 4. Replay and report.
	fmt.Println("\nwindow  pkts@switch  tuples@SP  detections")
	for w := 2; w < gen.Windows(); w++ {
		rep := rt.ProcessWindow(gen.WindowRecords(w).Frames())
		var hits []string
		for _, res := range rep.Results {
			for _, t := range res.Tuples {
				hits = append(hits, fmt.Sprintf("%s (%d SYNs)",
					packet.IPv4String(uint32(t[0].U)), t[1].U))
			}
		}
		fmt.Printf("%6d  %11d  %9d  %v\n", w, rep.Switch.PacketsIn, rep.TuplesToSP, hits)
	}
}
