package eval

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/compile"
	"repro/internal/pisa"
	"repro/internal/planner"
	"repro/internal/queries"
	"repro/internal/query"
	"repro/internal/tuple"
)

// Table3 reproduces the expressiveness comparison: lines of code per
// telemetry task in Sonata's surface syntax versus the generated P4 and
// Spark programs an operator would otherwise maintain by hand.
func Table3(p queries.Params, levels []int) *Table {
	t := &Table{ID: "table3", Title: "Implemented Sonata queries: lines of code",
		Header: []string{"#", "query", "sonata", "p4", "spark"}}
	for i, q := range queries.All(p) {
		p4 := generatedP4(q, levels)
		spark := compile.GenerateSpark(q, 0, 0)
		t.AddRow(i+1, q.Name, q.LinesOfCode(), compile.LinesOf(p4), compile.LinesOf(spark))
	}
	t.Notes = append(t.Notes,
		"P4 covers all refinement levels with maximal on-switch partitioning, as in the paper",
		"Spark covers the full query at the stream processor")
	return t
}

// generatedP4 renders the per-level switch programs for a query.
func generatedP4(q *query.Query, levels []int) string {
	key, refinable := query.QueryRefinementKey(q)
	insts := make([]compile.Instance, 0, len(levels)+1)
	build := func(prev, level int) {
		aug := q.Clone()
		if refinable {
			aug = planner.AugmentQuery(q, key, prev, level, planner.Thresholds{})
		}
		pipe := compile.CompilePipeline(aug.Left.Ops)
		pts := pipe.ValidPartitionPoints()
		insts = append(insts, compile.Instance{Level: uint8(level), Pipe: pipe, CutAt: pts[len(pts)-1]})
	}
	if !refinable {
		build(planner.LevelStar, 0)
	} else {
		prev := planner.LevelStar
		for _, l := range levels {
			if l >= key.MaxLevel {
				continue
			}
			build(prev, l)
			prev = l
		}
		build(prev, key.MaxLevel)
	}
	return compile.GenerateP4(q.Name, insts)
}

// Fig3 reproduces the collision-rate model: rate versus the number of
// incoming keys relative to the register size, for d = 1..4 chained
// registers.
func Fig3() *Table {
	t := &Table{ID: "fig3", Title: "Collision rate vs incoming keys (k/n), by register chains d",
		Header: []string{"k/n", "d=1", "d=2", "d=3", "d=4"}}
	const n = 4096
	ratios := []float64{0.1, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0}
	for _, ratio := range ratios {
		row := []any{ratio}
		for d := 1; d <= 4; d++ {
			bank := pisa.NewRegisterBank(n, d, []int{64})
			r := rand.New(rand.NewSource(7))
			keys := make([]uint64, int(ratio*float64(n)))
			for i := range keys {
				keys[i] = r.Uint64()
			}
			fails := bank.FoldColumn(tuple.Column{U: keys})
			row = append(row, float64(fails)/float64(len(keys)))
		}
		t.AddRow(row...)
	}
	return t
}

// Fig5 reproduces the refinement cost matrix for Query 1: for each
// transition r_i -> r_{i+1}, the packets sent to the stream processor when
// only the filter runs on the switch (N1), when the reduce also runs (N2),
// and the register state B required, sized for the default switch.
func Fig5(w *Workload, th uint64) (*Table, error) {
	p := ScaledParams(Scale{PacketsPerWindow: w.Gen.Config().PacketsPerWindow})
	if th > 0 {
		p.NewTCPThresh = th
	}
	q := queries.NewlyOpenedTCPConns(p)
	q.ID = 1
	tr, err := planner.Train([]*query.Query{q}, []int{8, 16}, w.TrainingFrames())
	if err != nil {
		return nil, err
	}
	qt, cfg := tr.PerQuery[1], pisa.DefaultConfig()
	t := &Table{ID: "fig5", Title: "Query 1 refinement transition costs (per window)",
		Header: []string{"transition", "N1 (filter only)", "N2 (reduce on switch)", "B (Kb)"}}
	label := func(prev int) string {
		if prev == planner.LevelStar {
			return "*"
		}
		return fmt.Sprint(prev)
	}
	for _, lv := range qt.Levels {
		for _, prev := range append([]int{planner.LevelStar}, qt.Levels...) {
			edge, ok := qt.Edges[[2]int{prev, lv}]
			if !ok || prev >= lv && prev != planner.LevelStar {
				continue
			}
			sc := edge.Left
			n1 := sc.NAt(sc.StatelessCut())
			n2 := sc.NAtCut[len(sc.NAtCut)-1]
			var bits int64 // the sized registers of every stateful table
			for t := range sc.Pipe.Tables {
				if tab := &sc.Pipe.Tables[t]; tab.Stateful {
					_, b, _ := cfg.RegisterSize(tab, sc.KeysAt[t])
					bits += b
				}
			}
			t.AddRow(fmt.Sprintf("%s->%d", label(prev), lv), n1, n2, float64(bits)/1024)
		}
	}
	return t, nil
}

// parallelFor runs worker(i) for i in [0, n) on up to a few goroutines —
// experiment runs are independent once the workload's frame cache is warm.
func parallelFor(n int, worker func(i int) error) error {
	procs := runtime.GOMAXPROCS(0)
	if procs > 4 {
		procs = 4
	}
	if procs > n {
		procs = n
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	next := make(chan int)
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := worker(i); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return firstErr
}

// warm forces the workload's frame cache so parallel runs never touch the
// (stateful) generator concurrently.
func warm(w *Workload) {
	for i := 0; i < w.Gen.Windows(); i++ {
		w.Frames(i)
	}
}

// Fig7a reproduces single-query performance: tuples at the stream processor
// per window for each of the top-eight queries under each plan mode.
func Fig7a(w *Workload, cfg pisa.Config) (*Table, error) {
	p := ScaledParams(Scale{PacketsPerWindow: w.Gen.Config().PacketsPerWindow})
	t := &Table{ID: "fig7a", Title: "Single-query load on the stream processor (mean tuples/window)",
		Header: []string{"query", "All-SP", "Filter-DP", "Max-DP", "Fix-REF", "Sonata", "sonata-delay"}}
	warm(w)
	qs := queries.TopEight(p)
	rows := make([][]any, len(qs))
	err := parallelFor(len(qs), func(i int) error {
		q := qs[i]
		e := NewExperiment(w, []*query.Query{q})
		results, err := e.AllModes(cfg)
		if err != nil {
			return fmt.Errorf("fig7a %s: %w", q.Name, err)
		}
		rows[i] = []any{q.Name,
			results[planner.ModeAllSP].MeanTuples(),
			results[planner.ModeFilterDP].MeanTuples(),
			results[planner.ModeMaxDP].MeanTuples(),
			results[planner.ModeFixRef].MeanTuples(),
			results[planner.ModeSonata].MeanTuples(),
			results[planner.ModeSonata].Delay}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	return t, nil
}

// Fig7b reproduces multi-query performance: load versus the number of
// concurrently running queries.
func Fig7b(w *Workload, cfg pisa.Config) (*Table, error) {
	p := ScaledParams(Scale{PacketsPerWindow: w.Gen.Config().PacketsPerWindow})
	all := queries.TopEight(p)
	t := &Table{ID: "fig7b", Title: "Multi-query load on the stream processor (mean tuples/window)",
		Header: []string{"queries", "All-SP", "Filter-DP", "Max-DP", "Fix-REF", "Sonata"}}
	warm(w)
	rows := make([][]any, len(all))
	err := parallelFor(len(all), func(i int) error {
		n := i + 1
		e := NewExperiment(w, all[:n])
		results, err := e.AllModes(cfg)
		if err != nil {
			return fmt.Errorf("fig7b n=%d: %w", n, err)
		}
		rows[i] = []any{n,
			results[planner.ModeAllSP].MeanTuples(),
			results[planner.ModeFilterDP].MeanTuples(),
			results[planner.ModeMaxDP].MeanTuples(),
			results[planner.ModeFixRef].MeanTuples(),
			results[planner.ModeSonata].MeanTuples()}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	return t, nil
}

// fig8Sweeps are Fig. 8's four sweeps, each varying one switch resource of
// the base configuration.
var fig8Sweeps = []struct {
	id, title, unit string
	values          []any
	apply           func(pisa.Config, any) pisa.Config
}{
	{"fig8a", "Effect of pipeline depth", "stages", []any{1, 2, 4, 8, 12, 16, 32},
		func(c pisa.Config, v any) pisa.Config { c.Stages = v.(int); return c }},
	{"fig8b", "Effect of stateful actions per stage", "actions", []any{1, 2, 4, 8, 12, 16, 32},
		func(c pisa.Config, v any) pisa.Config { c.StatefulPerStage = v.(int); return c }},
	{"fig8c", "Effect of register memory per stage", "memory-mb",
		[]any{0.5, 1.0, 2.0, 4.0, 8.0, 12.0, 16.0, 32.0},
		func(c pisa.Config, v any) pisa.Config {
			bits := int64(v.(float64) * (1 << 20))
			c.RegisterBitsPerStage, c.MaxRegisterBitsPerOp = bits, bits/2
			return c
		}},
	{"fig8d", "Effect of PHV metadata budget", "metadata-kb", []any{0.25, 0.5, 1.0, 2.0, 4.0, 8.0},
		func(c pisa.Config, v any) pisa.Config { c.MetadataBits = int(v.(float64) * 1024); return c }},
}

// Fig8Configs lists the switch configurations Fig. 8 plans for, sweep by
// sweep, each named as its row is ("fig8b actions=2").
func Fig8Configs(base pisa.Config) (names []string, cfgs []pisa.Config) {
	for _, sw := range fig8Sweeps {
		for _, v := range sw.values {
			names = append(names, fmt.Sprintf("%s %s=%v", sw.id, sw.unit, v))
			cfgs = append(cfgs, sw.apply(base, v))
		}
	}
	return names, cfgs
}

// Fig8 reproduces the switch-constraint sweeps: stream-processor load as
// one resource dimension varies, for Max-DP, Fix-REF, and Sonata, running
// all eight header queries concurrently.
func Fig8(w *Workload, base pisa.Config) (map[string]*Table, error) {
	p := ScaledParams(Scale{PacketsPerWindow: w.Gen.Config().PacketsPerWindow})
	all := queries.TopEight(p)
	e := NewExperiment(w, all)
	modes := []planner.Mode{planner.ModeMaxDP, planner.ModeFixRef, planner.ModeSonata}

	warm(w)
	if _, err := e.Training(); err != nil {
		return nil, err
	}
	out := make(map[string]*Table)
	for _, sw := range fig8Sweeps {
		t := &Table{ID: sw.id, Title: sw.title,
			Header: []string{sw.unit, "Max-DP", "Fix-REF", "Sonata"}}
		rows := make([][]any, len(sw.values))
		err := parallelFor(len(sw.values), func(i int) error {
			v := sw.values[i]
			cfg := sw.apply(base, v)
			row := []any{v}
			for _, mode := range modes {
				res, err := e.Run(cfg, mode)
				if err != nil {
					return fmt.Errorf("%s %v %v: %w", sw.id, v, mode, err)
				}
				row = append(row, res.MeanTuples())
			}
			rows[i] = row
			return nil
		})
		if err != nil {
			return nil, err
		}
		for _, row := range rows {
			t.AddRow(row...)
		}
		out[sw.id] = t
	}
	return out, nil
}

// Overhead reproduces the dynamic refinement overhead micro-benchmark:
// updating ~200 dynamic filter entries and resetting registers at a window
// boundary, compared with the window length.
func Overhead(w *Workload, cfg pisa.Config) (*Table, error) {
	p := ScaledParams(Scale{PacketsPerWindow: w.Gen.Config().PacketsPerWindow})
	e := NewExperiment(w, queries.TopEight(p))
	res, err := e.Run(cfg, planner.ModeSonata)
	if err != nil {
		return nil, err
	}
	t := &Table{ID: "overhead", Title: "Dynamic refinement update overhead",
		Header: []string{"metric", "value"}}
	windows := len(res.PerWindow)
	if windows == 0 {
		windows = 1
	}
	perWindowEntries := float64(res.FilterUpdates) / float64(windows)
	perWindowTime := res.UpdateTime / time.Duration(windows)
	t.AddRow("filter entries updated per window", perWindowEntries)
	t.AddRow("update time per window", perWindowTime.String())
	t.AddRow("window length", w.Window().String())
	t.AddRow("overhead fraction", float64(perWindowTime)/float64(w.Window()))
	t.Notes = append(t.Notes,
		"the paper measures 131 ms for 200 Tofino entries (~5% of W=3s); the simulator's updates are memory writes, so the fraction here bounds scheduling overhead rather than hardware latency")
	return t, nil
}
