// Adaptive: collision-triggered re-planning when traffic outgrows training.
//
// The planner sizes switch registers from training traffic (Section 3.3 of
// the paper). Here live traffic carries 10x the training volume — and so
// ~10x the unique keys — overflowing the registers. The collision signal
// fires, the example re-trains on recent windows, and Runtime.Replan swaps
// in a plan whose right-sized registers restore a near-zero collision rate.
//
//	go run ./examples/adaptive
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/fields"
	"repro/internal/pisa"
	"repro/internal/planner"
	"repro/internal/query"
	"repro/internal/runtime"
	"repro/internal/trace"
)

// The re-planning policy: once the deployed plan's cumulative collision
// rate passes collisionThreshold, re-train on the last keepWindows windows
// and swap the new plan in (Runtime.Replan) before the next window.
const (
	collisionThreshold = 0.01
	keepWindows        = 2
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
	q.ID = 1
	qs := []*query.Query{q}
	plan, err := trainAndPlan(qs, []planner.Frames{lightGen.WindowRecords(0).Frames(), lightGen.WindowRecords(1).Frames()})
	if err != nil {
		log.Fatal(err)
	}
	rt, err := runtime.NewWithOptions(plan, pisa.DefaultConfig(), runtime.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Close()

	var recent []planner.Frames
	replans := 0
	fmt.Println("window  pkts     collisions  collision-rate  replanned")
	for w := 0; w < heavyGen.Windows(); w++ {
		fr := heavyGen.WindowRecords(w).Frames()
		rep := rt.ProcessWindow(fr)
		recent = append(recent, fr)
		if len(recent) > keepWindows {
			recent = recent[len(recent)-keepWindows:]
		}
		mark := ""
		if rt.NeedsReplan(collisionThreshold) {
			plan, err := trainAndPlan(qs, recent)
			if err != nil {
				log.Fatal(err)
			}
			if err := rt.Replan(plan); err != nil {
				log.Fatal(err)
			}
			replans++
			mark = "<- re-trained & redeployed"
		}
		rate := float64(rep.Switch.Collisions) / float64(rep.Switch.PacketsIn)
		fmt.Printf("%6d  %7d  %10d  %13.2f%%  %s\n",
			w, rep.Switch.PacketsIn, rep.Switch.Collisions, rate*100, mark)
	}
	fmt.Printf("\nre-plans: %d (registers re-sized from recent windows)\n", replans)
}

// trainAndPlan profiles the queries over windows and plans them for the
// default switch.
func trainAndPlan(qs []*query.Query, windows []planner.Frames) (*planner.Plan, error) {
	tr, err := planner.Train(qs, planner.DefaultMenu, windows)
	if err != nil {
		return nil, err
	}
	return planner.PlanQueries(tr, qs, pisa.DefaultConfig(), planner.DefaultOptions())
}
