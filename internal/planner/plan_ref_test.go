package planner

// The reference plan selector: the per-combination implementation the
// priced-edge selector replaced, kept as the oracle TestPathCandidatesMatchReference
// and TestPlanMatchesReference hold PlanQueries to. Every (path × cut-tier)
// combination is built as a candidate with its own cuts slice, deduplicated
// through a signature map and priced edge by edge through sideN, which
// re-derives the pipeline's valid cut points on every call; every greedy
// trial re-augments and re-compiles each placed edge. The functions below
// are the replaced code, renamed with a ref prefix, extended as plan
// selection was: each mode's list is a filter over one enumeration that
// offers Filter-DP's cut on the finest path, Sonata's list holds every
// mode's, and selection runs the restricted greedies and the swap search
// from the best of them (the search, swapSearch, is shared; the footprints
// it prunes by and the placer it places with are the reference's own). The
// helpers the change left alone
// (paths, gateOnly, gateQuery) are shared. The reference sizes registers
// through maxEntries and places programs with the first-fit placer below,
// the planner's own copies before pisa.Config.RegisterSize and
// pisa.Program.Place replaced them, so the plans compare pisa's one
// resource model against an independent one.

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"

	"repro/internal/compile"
	"repro/internal/pisa"
	"repro/internal/query"
)

// refPlanQueries is PlanQueries over the reference selector.
func refPlanQueries(tr *TrainingResult, queries []*query.Query, cfg pisa.Config, opts Options) (*Plan, error) {
	sel := &refSelector{tr: tr, cfg: cfg, opts: opts}
	for _, q := range queries {
		qt, ok := tr.PerQuery[q.ID]
		if !ok {
			return nil, fmt.Errorf("planner: query %d (%s) was not trained", q.ID, q.Name)
		}
		cands := sel.candidatesFor(qt)
		if len(cands) == 0 {
			return nil, fmt.Errorf("planner: no candidates for %q", q.Name)
		}
		sel.queries = append(sel.queries, qt)
		sel.cands = append(sel.cands, cands)
	}
	return sel.realize(sel.choose())
}

type refSelector struct {
	tr      *TrainingResult
	cfg     pisa.Config
	opts    Options
	queries []*QueryTraining
	cands   [][]candidate
}

// candidatesFor is the planning mode's list: Sonata's paths (for a
// restricted mode the finest path, and for Fix-REF the full ladder too),
// every combination sorted, each mode's cheapest 48 kept, and the All-SP
// combination whatever its rank.
func (s *refSelector) candidatesFor(qt *QueryTraining) []candidate {
	ps := paths(qt, maxDelay)
	if s.opts.Mode != ModeSonata {
		ps = [][]int{{qt.Levels[len(qt.Levels)-1]}}
		if s.opts.Mode == ModeFixRef && len(qt.Levels) > 1 {
			ps = append(ps, qt.Levels)
		}
	}
	var kept []candidate
	rank := map[Mode]int{}
	for _, c := range s.pathCandidates(qt, ps) {
		var modes uint8
		for m := ModeSonata; m <= ModeFixRef; m++ {
			if c.modes&(1<<m) == 0 || (s.opts.Mode != ModeSonata && m != s.opts.Mode) {
				continue
			}
			if rank[m] < 48 || c.modes&(1<<ModeAllSP) != 0 {
				modes |= 1 << m
			}
			rank[m]++
		}
		if modes != 0 {
			c.modes = modes | 1<<s.opts.Mode
			kept = append(kept, c)
		}
	}
	return kept
}

// refModes is the set of modes whose space holds c (Table 4's emulations).
func refModes(qt *QueryTraining, c *candidate) uint8 {
	finest := qt.Levels[len(qt.Levels)-1]
	modes := uint8(1 << ModeSonata)
	if slices.Equal(c.path, qt.Levels) {
		modes |= 1 << ModeFixRef
	}
	if slices.Equal(c.path, []int{finest}) {
		modes |= 1 << ModeMaxDP
		edge := qt.Edges[[2]int{LevelStar, finest}]
		if c.cuts[0] == [2]int{0, 0} {
			modes |= 1<<ModeAllSP | 1<<ModeFilterDP | 1<<ModeFixRef
		} else if c.cuts[0] == [2]int{refFilterCut(edge.Left), refFilterCut(edge.Right)} {
			modes |= 1 << ModeFilterDP
		}
	}
	return modes
}

// refFilterCut cuts after the leading run of plain filter tables.
func refFilterCut(sc *SideCost) int {
	if sc == nil {
		return 0
	}
	cut := 0
	for i, t := range sc.Pipe.Tables {
		if t.Kind != compile.TableFilter || i >= sc.Pipe.CapPrefix {
			break
		}
		cut = i + 1
	}
	return cut
}

func (s *refSelector) pathCandidates(qt *QueryTraining, paths [][]int) []candidate {
	var out []candidate
	seen := map[string]bool{}
	// Dedup signature: decimal-rendered path and cuts with separators. Built
	// by hand because this runs inside the per-window refinement loop, where
	// reflection-based formatting showed up in end-to-end profiles.
	var sigBuf []byte
	sig := func(c *candidate) []byte {
		sigBuf = sigBuf[:0]
		for _, p := range c.path {
			sigBuf = strconv.AppendInt(sigBuf, int64(p), 10)
			sigBuf = append(sigBuf, ',')
		}
		sigBuf = append(sigBuf, '|')
		for _, t := range c.cuts {
			sigBuf = strconv.AppendInt(sigBuf, int64(t[0]), 10)
			sigBuf = append(sigBuf, ':')
			sigBuf = strconv.AppendInt(sigBuf, int64(t[1]), 10)
			sigBuf = append(sigBuf, ',')
		}
		return sigBuf
	}
	for _, path := range paths {
		tiers := make([][][2]int, len(path))
		prev := LevelStar
		for i, level := range path {
			edge := qt.Edges[[2]int{prev, level}]
			tiers[i] = refCutTiers(edge, prev == LevelStar && level == qt.Levels[len(qt.Levels)-1])
			prev = level
		}
		// Cartesian product of tiers, bounded: paths are short (<=4) and
		// tiers per edge <=3, so at most 81 combos per path.
		var rec func(i int, cuts [][2]int)
		rec = func(i int, cuts [][2]int) {
			if i == len(path) {
				c := candidate{path: path, cuts: append([][2]int(nil), cuts...)}
				c.cost = s.pathCost(qt, c)
				c.modes = refModes(qt, &c)
				if key := sig(&c); !seen[string(key)] {
					seen[string(key)] = true
					out = append(out, c)
				}
				return
			}
			for _, t := range tiers[i] {
				rec(i+1, append(cuts, t))
			}
		}
		rec(0, nil)
	}
	slices.SortStableFunc(out, func(a, b candidate) int {
		if a.cost != b.cost {
			return cmp.Compare(a.cost, b.cost)
		}
		// Equal trained cost: prefer deeper cuts (more work on the switch).
		// Training can only estimate the traffic it saw; when a class of
		// traffic is absent from training, every cut costs zero and the
		// deeper one is free insurance against workload drift.
		return cmp.Compare(b.cutDepth(), a.cutDepth())
	})
	return out
}

// refCutTiers is an edge's tier pairs; the finest path's edge also offers
// each side's leading-filter cut.
func refCutTiers(edge *EdgeProfile, finest bool) [][2]int {
	tiersOf := func(sc *SideCost) []int {
		if sc == nil {
			return []int{0}
		}
		max := refMaxCut(sc)
		lean := refStatelessCut(sc)
		set := []int{max}
		if lean != max {
			set = append(set, lean)
		}
		if lean != 0 && max != 0 {
			set = append(set, 0)
		}
		if f := refFilterCut(sc); finest && !slices.Contains(set, f) {
			set = append(set, f)
		}
		return set
	}
	var out [][2]int
	for _, l := range tiersOf(edge.Left) {
		for _, r := range tiersOf(edge.Right) {
			out = append(out, [2]int{l, r})
		}
	}
	return out
}

func refMaxCut(sc *SideCost) int {
	pts := sc.Pipe.ValidPartitionPoints()
	return pts[len(pts)-1]
}

func refStatelessCut(sc *SideCost) int {
	cut := 0
	for _, p := range sc.Pipe.ValidPartitionPoints() {
		ok := true
		for t := 0; t < p; t++ {
			if sc.Pipe.Tables[t].Stateful {
				ok = false
				break
			}
		}
		if ok && p > cut {
			cut = p
		}
	}
	return cut
}

func (s *refSelector) pathCost(qt *QueryTraining, c candidate) uint64 {
	var total uint64
	prev := LevelStar
	for i, level := range c.path {
		edge := qt.Edges[[2]int{prev, level}]
		if !gateOnly(qt, c.path, i) {
			total += refSideN(edge.Left, c.cuts[i][0], s.cfg)
		}
		total += refSideN(edge.Right, c.cuts[i][1], s.cfg)
		prev = level
	}
	return total
}

func refSideN(sc *SideCost, cut int, cfg pisa.Config) uint64 {
	if sc == nil {
		return 0
	}
	base := sc.NAtCut[0]
	for i, p := range sc.Pipe.ValidPartitionPoints() {
		if p == cut {
			base = sc.NAtCut[i]
			break
		}
	}
	return base + refOverflowN(sc, cut, cfg)
}

func refOverflowN(sc *SideCost, cut int, cfg pisa.Config) uint64 {
	var extra uint64
	for t := 0; t < cut; t++ {
		tab := &sc.Pipe.Tables[t]
		if !tab.Stateful {
			continue
		}
		keys := sc.KeysAt[t]
		n := pisa.EntriesFor(keys)
		cap := maxEntries(cfg, tab.KeyBits, tab.ValBits)
		if n <= cap {
			continue
		}
		// Effective capacity of d chained registers before collisions bite.
		capacity := uint64(float64(cap*cfg.RegisterChains) * 0.7)
		if keys <= capacity {
			continue
		}
		inPkts := refTableInputN(sc, t)
		extra += (keys - capacity) * inPkts / keys
	}
	return extra
}

func refTableInputN(sc *SideCost, t int) uint64 {
	pts := sc.Pipe.ValidPartitionPoints()
	best := sc.NAtCut[0]
	for i, p := range pts {
		if p <= t {
			best = sc.NAtCut[i]
		}
	}
	return best
}

// choose is the selection path: the mode's greedy; for Sonata short of
// every query's cheapest candidate, the best of it and each restricted
// mode's greedy, improved by the swap search.
func (s *refSelector) choose() []int {
	choice := s.greedy(s.opts.Mode)
	if s.opts.Mode != ModeSonata {
		return choice
	}
	cost := func(choice []int) (total uint64) {
		for qi, ci := range choice {
			total += s.cands[qi][ci].cost
		}
		return total
	}
	var floor uint64
	for _, cands := range s.cands {
		floor += cands[0].cost
	}
	if cost(choice) == floor {
		return choice
	}
	for _, m := range []Mode{ModeAllSP, ModeFilterDP, ModeMaxDP, ModeFixRef} {
		if c := s.greedy(m); cost(c) < cost(choice) {
			choice = c
		}
	}
	choice, _ = swapSearch(s.cands, s.cfg, choice, s.resources, func(choice []int) bool {
		_, err := s.buildProgram(choice)
		return err == nil
	})
	return choice
}

func (s *refSelector) greedy(mode Mode) []int {
	choice := make([]int, len(s.queries))
	for qi := range choice {
		choice[qi] = s.fallbackIndex(qi)
	}
	for {
		bestQ, bestC := -1, -1
		var bestGain int64
		for qi := range s.queries {
			cur := s.cands[qi][choice[qi]].cost
			for ci := range s.cands[qi] {
				if ci == choice[qi] || s.cands[qi][ci].modes&(1<<mode) == 0 {
					continue
				}
				gain := int64(cur) - int64(s.cands[qi][ci].cost)
				if gain <= bestGain {
					continue
				}
				old := choice[qi]
				choice[qi] = ci
				if _, err := s.buildProgram(choice); err == nil {
					bestQ, bestC, bestGain = qi, ci, gain
				}
				choice[qi] = old
			}
		}
		if bestQ < 0 {
			break
		}
		choice[bestQ] = bestC
	}
	for qi := range s.queries {
		cur := &s.cands[qi][choice[qi]]
		for ci := range s.cands[qi] {
			c := &s.cands[qi][ci]
			if ci == choice[qi] || c.modes&(1<<mode) == 0 || c.cost != cur.cost || c.cutDepth() <= cur.cutDepth() {
				continue
			}
			old := choice[qi]
			choice[qi] = ci
			if _, err := s.buildProgram(choice); err != nil {
				choice[qi] = old
			} else {
				cur = &s.cands[qi][choice[qi]]
			}
		}
	}
	return choice
}

func (s *refSelector) fallbackIndex(qi int) int {
	for ci, c := range s.cands[qi] {
		if len(c.path) == 1 && c.cuts[0] == [2]int{0, 0} {
			return ci
		}
	}
	panic("reference: no All-SP candidate")
}

func (s *refSelector) realize(choice []int) (*Plan, error) {
	prog, err := s.buildProgram(choice)
	if err != nil {
		return nil, fmt.Errorf("planner: chosen plan does not fit the switch: %w", err)
	}
	plan := &Plan{Mode: s.opts.Mode, Program: prog}
	specs := prog.Instances
	for qi, qt := range s.queries {
		c := s.cands[qi][choice[qi]]
		qp := &QueryPlan{Query: qt.Query, Key: qt.Key}
		prev := LevelStar
		for i, level := range c.path {
			lp := s.levelPlan(qt, prev, level, c.cuts[i], gateOnly(qt, c.path, i), &specs)
			qp.Levels = append(qp.Levels, lp)
			prev = level
		}
		plan.Queries = append(plan.Queries, qp)
	}
	return plan, nil
}

// levelPlan assembles one level over the next of the program's instances,
// taken from the front of *specs: its left side, then its right.
func (s *refSelector) levelPlan(qt *QueryTraining, prev, level int, cuts [2]int, gate bool, specs *[]*pisa.InstanceSpec) LevelPlan {
	next := func() *pisa.InstanceSpec {
		spec := (*specs)[0]
		*specs = (*specs)[1:]
		return spec
	}
	edge := qt.Edges[[2]int{prev, level}]
	aug := qt.AugmentedAt(prev, level)
	lp := LevelPlan{Prev: prev, Level: level, Aug: aug, Left: next()}
	if gate {
		lp.Aug = gateQuery(aug)
		lp.ExpectedN = refSideN(edge.Right, cuts[1], s.cfg)
		lp.EstWork = max(refWork(edge.Right, cuts[1], s.cfg), 1)
		return lp
	}
	lp.ExpectedN = refSideN(edge.Left, cuts[0], s.cfg)
	lp.EstWork = refWork(edge.Left, cuts[0], s.cfg)
	if edge.Right != nil {
		lp.Right = next()
		lp.ExpectedN += refSideN(edge.Right, cuts[1], s.cfg)
		lp.EstWork += refWork(edge.Right, cuts[1], s.cfg)
	}
	lp.EstWork = max(lp.EstWork, 1)
	return lp
}

// refWork is a side's trained work at the cut: its op-level work sum plus
// its expected register overflow at 8 each.
func refWork(sc *SideCost, cut int, cfg pisa.Config) uint64 {
	return sc.Work + 8*refOverflowN(sc, cut, cfg)
}

// refMakeInstance is one side's switch instance, unplaced, its registers
// sized to the trained keys under the per-op budget.
func refMakeInstance(qid uint16, level int, side pisa.Side, ops []query.Op, sc *SideCost, cut int, cfg pisa.Config) *pisa.InstanceSpec {
	pipe := compile.CompilePipeline(ops)
	spec := &pisa.InstanceSpec{QID: qid, Level: uint8(level), Side: side,
		Ops: ops, Tables: pipe.Tables, CutAt: cut}
	spec.RegEntries = make([]int, len(pipe.Tables))
	for t := range pipe.Tables {
		if pipe.Tables[t].Stateful && t < cut {
			tab := &pipe.Tables[t]
			n := pisa.EntriesFor(sc.KeysAt[t])
			if cap := maxEntries(cfg, tab.KeyBits, tab.ValBits); n > cap {
				n = cap
			}
			spec.RegEntries[t] = n
		}
	}
	return spec
}

func (s *refSelector) buildProgram(choice []int) (*pisa.Program, error) {
	prog := &pisa.Program{}
	for qi := range s.queries {
		prog.Instances = append(prog.Instances, s.specs(qi, &s.cands[qi][choice[qi]])...)
	}
	if err := refPlace(prog, s.cfg); err != nil {
		return nil, err
	}
	return prog, nil
}

// resources is the switch footprint the candidate's instances take: their
// stateful tables, register bits and metadata bits, and the longest cut.
func (s *refSelector) resources(qi int, c *candidate) (fp footprint) {
	for _, spec := range s.specs(qi, c) {
		for t := 0; t < spec.CutAt; t++ {
			if tab := &spec.Tables[t]; tab.Stateful {
				fp.stateful++
				fp.bits += pisa.RegisterBits(spec.RegEntries[t], s.cfg.RegisterChains, tab.KeyBits, tab.ValBits)
			}
		}
		fp.meta += spec.MetaBits()
		fp.cut = max(fp.cut, spec.CutAt)
	}
	return fp
}

// specs is the candidate's switch instances in program order, unplaced.
func (s *refSelector) specs(qi int, c *candidate) []*pisa.InstanceSpec {
	qt := s.queries[qi]
	var out []*pisa.InstanceSpec
	add := func(ops []query.Op, sc *SideCost, level int, side pisa.Side, cut int) {
		out = append(out, refMakeInstance(qt.Query.ID, level, side, ops, sc, cut, s.cfg))
	}
	prev := LevelStar
	for i, level := range c.path {
		edge := qt.Edges[[2]int{prev, level}]
		aug := qt.AugmentedAt(prev, level)
		if gateOnly(qt, c.path, i) {
			add(aug.Right.Ops, edge.Right, level, pisa.SideLeft, c.cuts[i][1])
		} else {
			add(aug.Left.Ops, edge.Left, level, pisa.SideLeft, c.cuts[i][0])
			if edge.Right != nil {
				add(aug.Right.Ops, edge.Right, level, pisa.SideRight, c.cuts[i][1])
			}
		}
		prev = level
	}
	return out
}

// maxEntries is the largest power-of-two register size fitting the per-op
// budget.
func maxEntries(cfg pisa.Config, keyBits, valBits int) int {
	n := 256
	for pisa.RegisterBits(n*2, cfg.RegisterChains, keyBits, valBits) <= cfg.MaxRegisterBitsPerOp {
		n *= 2
	}
	return n
}

// refPlace assigns prog's stages with the placer below, then validates it.
func refPlace(prog *pisa.Program, cfg pisa.Config) error {
	place := newPlacer(cfg)
	for _, spec := range prog.Instances {
		stages, err := place.fit(spec)
		if err != nil {
			return err
		}
		spec.StageOf = stages
	}
	return prog.Validate(cfg)
}

// placer assigns tables to stages first-fit under the per-stage limits.
type placer struct {
	cfg       pisa.Config
	stateful  []int
	stateless []int
	bits      []int64
}

func newPlacer(cfg pisa.Config) *placer {
	return &placer{cfg: cfg,
		stateful:  make([]int, cfg.Stages),
		stateless: make([]int, cfg.Stages),
		bits:      make([]int64, cfg.Stages)}
}

// fit places an instance's switch tables in strictly increasing stages.
func (p *placer) fit(spec *pisa.InstanceSpec) ([]int, error) {
	stages := make([]int, len(spec.Tables))
	for i := range stages {
		stages[i] = -1
	}
	next := 0
	for t := 0; t < spec.CutAt; t++ {
		tab := &spec.Tables[t]
		placed := false
		for st := next; st < p.cfg.Stages; st++ {
			if tab.Stateful {
				opBits := pisa.RegisterBits(spec.RegEntries[t], p.cfg.RegisterChains, tab.KeyBits, tab.ValBits)
				if opBits > p.cfg.MaxRegisterBitsPerOp {
					return nil, fmt.Errorf("planner: %s table %d needs %d bits, per-op cap %d",
						spec.Name(), t, opBits, p.cfg.MaxRegisterBitsPerOp)
				}
				if p.stateful[st]+1 > p.cfg.StatefulPerStage || p.bits[st]+opBits > p.cfg.RegisterBitsPerStage {
					continue
				}
				p.stateful[st]++
				p.bits[st] += opBits
			} else {
				if p.stateless[st]+1 > p.cfg.StatelessPerStage {
					continue
				}
				p.stateless[st]++
			}
			stages[t] = st
			next = st + 1
			placed = true
			break
		}
		if !placed {
			return nil, fmt.Errorf("planner: %s table %d does not fit in %d stages",
				spec.Name(), t, p.cfg.Stages)
		}
	}
	return stages, nil
}
