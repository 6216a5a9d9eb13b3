package eval

import (
	"fmt"
	"time"

	"repro/internal/fields"
	"repro/internal/packet"
	"repro/internal/pisa"
	"repro/internal/planner"
	"repro/internal/queries"
	"repro/internal/query"
	"repro/internal/runtime"
	"repro/internal/trace"
)

// CaseStudyResult carries the Figure 9 timeline: per-window packets at the
// switch versus tuples reported to the stream processor, plus the two
// detection events.
type CaseStudyResult struct {
	Table *Table
	// VictimIdentifiedWindow is the first window whose refinement output
	// contains the victim (the paper's "victim identified" marker).
	VictimIdentifiedWindow int
	// AttackConfirmedWindow is the first window whose final result reports
	// the keyword detection ("attack confirmed").
	AttackConfirmedWindow int
	// Victim echoes the ground-truth target.
	Victim uint32
}

// CaseStudy reproduces the Tofino case study (Figure 9): a Zorro telnet
// brute-force attack starts mid-trace; Sonata identifies the victim via
// refinement within a window or two while reporting only a handful of
// tuples, then confirms the attack when the "zorro" keyword appears.
func CaseStudy(scale Scale) (*CaseStudyResult, error) {
	cfg := trace.DefaultConfig()
	cfg.Seed = scale.Seed
	cfg.PacketsPerWindow = scale.PacketsPerWindow
	cfg.Windows = scale.Windows + 3 // room for the attack phases
	cfg.Hosts = scale.Hosts
	g, err := trace.NewGenerator(cfg)
	if err != nil {
		return nil, err
	}
	victim := trace.StandardVictim
	attacker := packet.IPv4Addr(10, 66, 0, 1)
	w := g.Config().Window
	attackStart := time.Duration(scale.TrainWindows+1) * w // after training + 1 quiet window
	// The shell phase lands several windows after onset so the timeline
	// separates "victim identified" (refinement) from "attack confirmed"
	// (payload keyword), as in the paper's Figure 9.
	shellAt := attackStart + 3*w + w/2
	zorro := trace.NewZorro(attacker, victim, scale.PacketsPerWindow/12, attackStart, g.Duration(), shellAt)
	g.AddAttack(zorro)

	p := ScaledParams(scale)
	q := queries.ZorroAttack(p)
	q.ID = 10

	wl := &Workload{Gen: g, TrainWindows: scale.TrainWindows}
	// Train on windows that include attack-free traffic only; thresholds
	// for the telnet sub-query then come from the query parameters (no
	// satisfying keys in training keeps originals).
	tr, err := planner.Train([]*query.Query{q}, []int{16, 24}, wl.TrainingFrames())
	if err != nil {
		return nil, err
	}
	opts := planner.DefaultOptions()
	plan, err := planner.PlanQueries(tr, []*query.Query{q}, pisa.DefaultConfig(), opts)
	if err != nil {
		return nil, err
	}
	rt, err := runtime.NewWithOptions(plan, pisa.DefaultConfig(), runtime.Options{})
	if err != nil {
		return nil, err
	}
	defer rt.Close()

	res := &CaseStudyResult{Victim: victim, VictimIdentifiedWindow: -1, AttackConfirmedWindow: -1}
	res.Table = &Table{ID: "fig9", Title: "Zorro case study timeline",
		Header: []string{"window", "t-start", "pkts@switch", "tuples@SP", "victim-identified", "attack-confirmed"}}

	for wi := scale.TrainWindows; wi < g.Windows(); wi++ {
		rep := rt.ProcessWindow(wl.Frames(wi))
		// "Victim identified": the telnet-volume sub-query (the refinement
		// gate) reports the victim's address, or a prefix of it at a coarse
		// level — the moment the stream processor starts watching the
		// victim's payloads. "Attack confirmed": the finest final result
		// (the keyword condition) fires.
		victimSeen, confirmed := false, false
		for _, r := range rep.AllResults {
			prefix := uint64(fields.TruncateU64(fields.DstIP, uint64(victim), int(r.Level)))
			for _, t := range r.RightOutputs {
				if len(t) > 0 && t[0].U == prefix {
					victimSeen = true
				}
			}
		}
		for _, r := range rep.Results {
			for _, t := range r.Tuples {
				if len(t) > 0 && t[0].U == uint64(victim) {
					confirmed = true
				}
			}
		}
		if victimSeen && res.VictimIdentifiedWindow < 0 {
			res.VictimIdentifiedWindow = wi
		}
		if confirmed && res.AttackConfirmedWindow < 0 {
			res.AttackConfirmedWindow = wi
		}
		res.Table.AddRow(wi, time.Duration(wi)*w,
			rep.Switch.PacketsIn, rep.TuplesToSP,
			mark(victimSeen), mark(confirmed))
	}
	res.Table.Notes = append(res.Table.Notes,
		fmt.Sprintf("attack starts at %v; shell (zorro keyword) at %v; victim %s",
			attackStart, shellAt, packet.IPv4String(victim)))
	return res, nil
}

func mark(b bool) string {
	if b {
		return "yes"
	}
	return ""
}
