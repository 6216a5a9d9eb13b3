// Slowloris: a join query partitioned across switch and stream processor.
//
// The Slowloris query (Query 2 of the paper) joins two sub-queries — the
// connection count and the byte volume per host — and divides them at the
// stream processor, because no PISA switch can divide. This example shows
// the planner cutting each sub-query independently and the runtime joining
// their outputs.
//
//	go run ./examples/slowloris
package main

import (
	"fmt"
	"log"

	"repro/internal/packet"
	"repro/internal/pisa"
	"repro/internal/planner"
	"repro/internal/queries"
	"repro/internal/query"
	"repro/internal/runtime"
	"repro/internal/trace"
)

func main() {
	cfg := trace.DefaultConfig()
	cfg.PacketsPerWindow = 20_000
	cfg.Windows = 6
	gen, err := trace.NewGenerator(cfg)
	if err != nil {
		log.Fatal(err)
	}
	victim := trace.StandardVictim
	gen.AddAttack(trace.NewSlowloris(victim, 1_200, 0, gen.Duration()))

	p := queries.DefaultParams()
	p.SlowlorisBytesThresh = 20_000
	p.SlowlorisRatioThresh = 8
	q := queries.SlowlorisAttacks(p)
	fmt.Println("query (note the join and the division, both stream-processor-only):")
	fmt.Println(q)

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
	for _, qp := range plan.Queries {
		for _, lp := range qp.Levels {
			fmt.Printf("level /%d: left sub-query cut after %d/%d tables; right after %d/%d\n",
				lp.Level, lp.Left.CutAt, len(lp.Left.Tables),
				lp.Right.CutAt, len(lp.Right.Tables))
		}
	}

	rt, err := runtime.NewWithOptions(plan, pisa.DefaultConfig(), runtime.Options{})
	if err != nil {
		log.Fatal(err)
	}
	for w := 2; w < gen.Windows(); w++ {
		rep := rt.ProcessWindow(gen.WindowRecords(w).Frames())
		fmt.Printf("window %d: %d tuples to SP;", w, rep.TuplesToSP)
		for _, res := range rep.Results {
			for _, t := range res.Tuples {
				fmt.Printf(" ALERT %s conns-per-kilobyte=%d",
					packet.IPv4String(uint32(t[0].U)), t[1].U)
			}
		}
		fmt.Println()
	}
	fmt.Printf("expected victim: %s\n", packet.IPv4String(victim))
}
