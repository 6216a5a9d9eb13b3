// Adaptive: collision-triggered re-planning when traffic outgrows training.
//
// The planner sizes switch registers from training traffic (Section 3.3 of
// the paper). Here live traffic carries 10x the training volume — and so
// ~10x the unique keys — overflowing the registers. The collision signal
// fires, the runtime re-trains on recent windows, and the redeployed plan's
// right-sized registers restore a near-zero collision rate.
//
//	go run ./examples/adaptive
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/fields"
	"repro/internal/planner"
	"repro/internal/query"
	"repro/internal/trace"
)

func main() {
	// Training: light traffic.
	light := trace.DefaultConfig()
	light.PacketsPerWindow = 2_000
	light.Windows = 2
	light.Hosts = 4_000
	lightGen, err := trace.NewGenerator(light)
	if err != nil {
		log.Fatal(err)
	}
	// Live: the same network after a 10x traffic surge.
	heavy := light
	heavy.PacketsPerWindow = 20_000
	heavy.Windows = 6
	heavy.Seed = 2
	heavyGen, err := trace.NewGenerator(heavy)
	if err != nil {
		log.Fatal(err)
	}

	// Superspreader state grows with traffic: distinct (src, dst) pairs.
	q := query.NewBuilder("superspreader", 3*time.Second).
		Map(query.F(fields.SrcIP), query.F(fields.DstIP)).
		Distinct().
		Map(query.C(fields.SrcIP), query.ConstCol(1)).
		Reduce(query.AggSum, fields.SrcIP).
		Filter(query.Gt(fields.AggVal, 5_000)).
		MustBuild()

	s := core.New(core.Config{})
	s.Register(q)
	var train []planner.Frames
	for i := 0; i < 2; i++ {
		train = append(train, frames(lightGen, i))
	}
	if err := s.Train(train); err != nil {
		log.Fatal(err)
	}
	ar, err := s.DeployAdaptive(0.01, 2)
	if err != nil {
		log.Fatal(err)
	}
	defer ar.Close()

	fmt.Println("window  pkts     collisions  collision-rate  replanned")
	for w := 0; w < heavyGen.Windows(); w++ {
		fr := frames(heavyGen, w)
		rep, replanned, err := ar.ProcessWindow(fr)
		if err != nil {
			log.Fatal(err)
		}
		rate := float64(rep.Switch.Collisions) / float64(rep.Switch.PacketsIn)
		mark := ""
		if replanned {
			mark = "<- re-trained & redeployed"
		}
		fmt.Printf("%6d  %7d  %10d  %13.2f%%  %s\n",
			w, rep.Switch.PacketsIn, rep.Switch.Collisions, rate*100, mark)
	}
	fmt.Printf("\nre-plans: %d (registers re-sized from recent windows)\n", ar.Replans())
}

func frames(g *trace.Generator, i int) [][]byte {
	win := g.WindowRecords(i)
	out := make([][]byte, len(win.Records))
	for j, r := range win.Records {
		out[j] = r.Data
	}
	return out
}
