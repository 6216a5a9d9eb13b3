package planner

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"repro/internal/compile"
	"repro/internal/pisa"
	"repro/internal/query"
)

// Mode selects which telemetry system the planner emulates (Table 4). Each
// mode constrains the plan space exactly as the paper emulates prior
// systems by constraining the ILP.
type Mode uint8

const (
	// ModeSonata is the full planner: joint partitioning and refinement.
	ModeSonata Mode = iota
	// ModeAllSP mirrors every packet to the stream processor (Gigascope,
	// OpenSOC, NetQRE).
	ModeAllSP
	// ModeFilterDP executes only leading filter tables on the switch
	// (EverFlow).
	ModeFilterDP
	// ModeMaxDP executes as many operators as fit on the switch but never
	// refines (UnivMon, OpenSketch).
	ModeMaxDP
	// ModeFixRef refines through every level, one at a time (DREAM).
	ModeFixRef
)

func (m Mode) String() string {
	switch m {
	case ModeSonata:
		return "Sonata"
	case ModeAllSP:
		return "All-SP"
	case ModeFilterDP:
		return "Filter-DP"
	case ModeMaxDP:
		return "Max-DP"
	case ModeFixRef:
		return "Fix-REF"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// Options configure planning.
type Options struct {
	Mode Mode
	// MaxDelay is the default bound on refinement chain length, in windows
	// (a query's own MaxDelay takes precedence when set).
	MaxDelay int
	// UseILP solves plan selection with the branch-and-bound ILP instead of
	// the greedy packer; the greedy result seeds the incumbent either way.
	UseILP bool
	// ILPBudget bounds the ILP solve time (the paper capped Gurobi at 20
	// minutes; the default here is 10 seconds).
	ILPBudget time.Duration
}

// DefaultOptions returns the Sonata-mode defaults.
func DefaultOptions() Options {
	return Options{Mode: ModeSonata, MaxDelay: 4, ILPBudget: 10 * time.Second}
}

// InstancePlan is one (level, side) pipeline placed on the switch and
// stream processor.
type InstancePlan struct {
	Side pisa.Side
	Ops  []query.Op
	Pipe compile.Pipeline
	// Cut is the number of tables on the switch.
	Cut int
	// RegEntries sizes each stateful switch table's registers.
	RegEntries []int
	// EstWork is the trained estimate of this instance's per-window work in
	// tuple-stage units: the number of tuples entering each pipeline stage,
	// summed, as measured on the training windows (with dynamic gates
	// applied). The runtime's shard balancer weighs instances by it.
	EstWork uint64
}

// LevelPlan is one refinement level of a query: the augmented query plus
// the per-side partitioning.
type LevelPlan struct {
	Prev, Level int
	Aug         *query.Query
	Left        InstancePlan
	Right       *InstancePlan // nil without join
	// ExpectedN is the trained estimate of stream-processor tuples per
	// window contributed by this level.
	ExpectedN uint64
}

// QueryPlan is the complete plan for one query.
type QueryPlan struct {
	Query  *query.Query
	Key    query.RefinementKey
	Levels []LevelPlan
}

// Delay returns the detection delay in windows (|R| in the paper).
func (qp *QueryPlan) Delay() int { return len(qp.Levels) }

// ExpectedN sums the per-level trained tuple estimates.
func (qp *QueryPlan) ExpectedN() uint64 {
	var n uint64
	for i := range qp.Levels {
		n += qp.Levels[i].ExpectedN
	}
	return n
}

// Plan is the planner's output for the whole query set.
type Plan struct {
	Queries []*QueryPlan
	Mode    Mode
	// Program is the switch-side program realizing the plan, with stages
	// assigned.
	Program *pisa.Program
}

// ExpectedN sums the trained per-window tuple estimates across queries.
func (p *Plan) ExpectedN() uint64 {
	var n uint64
	for _, qp := range p.Queries {
		n += qp.ExpectedN()
	}
	return n
}

// candidate is one explorable plan for a single query: a refinement path
// and per-edge cuts.
type candidate struct {
	path []int    // levels, coarse to fine; empty prev handled implicitly
	cuts [][2]int // per path element: {leftCut, rightCut}
	cost uint64
}

// PlanQueries chooses partitioning and refinement plans for the trained
// query set under the switch configuration.
func PlanQueries(tr *TrainingResult, queries []*query.Query, cfg pisa.Config, opts Options) (*Plan, error) {
	sel, err := newSelector(tr, queries, cfg, opts)
	if err != nil {
		return nil, err
	}
	choice := sel.greedy()
	if opts.UseILP {
		if ilpChoice, ok := sel.solveILP(choice); ok {
			choice = ilpChoice
		}
	}
	return sel.realize(choice)
}

// selector carries the plan-selection state.
type selector struct {
	tr      *TrainingResult
	cfg     pisa.Config
	opts    Options
	queries []*QueryTraining
	// edges[qi] holds query qi's refinement edges as selection prices and
	// places them, each built the first time a path reaches it.
	edges []map[[2]int]*pricedEdge
	cands [][]candidate
	// Scratch reused across queries and trial programs.
	proxies []proxy
	placed  []placement
}

// newSelector prices every query's plan space into its candidate list.
func newSelector(tr *TrainingResult, queries []*query.Query, cfg pisa.Config, opts Options) (*selector, error) {
	if opts.MaxDelay <= 0 {
		opts.MaxDelay = 4
	}
	s := &selector{tr: tr, cfg: cfg, opts: opts}
	for _, q := range queries {
		qt, ok := tr.PerQuery[q.ID]
		if !ok {
			return nil, fmt.Errorf("planner: query %d (%s) was not trained", q.ID, q.Name)
		}
		s.queries = append(s.queries, qt)
		s.edges = append(s.edges, make(map[[2]int]*pricedEdge))
		cands := s.candidatesFor(len(s.queries) - 1)
		if len(cands) == 0 {
			return nil, fmt.Errorf("planner: no candidates for %q", q.Name)
		}
		s.cands = append(s.cands, cands)
	}
	return s, nil
}

// candidatesFor enumerates the plan space of query qi under the mode.
func (s *selector) candidatesFor(qi int) []candidate {
	qt := s.queries[qi]
	switch s.opts.Mode {
	case ModeAllSP:
		return []candidate{s.allSPCandidate(qi)}
	case ModeFilterDP:
		return []candidate{s.filterDPCandidate(qi)}
	case ModeMaxDP:
		return s.pathCandidates(qi, [][]int{finestPath(qt)})
	case ModeFixRef:
		return s.pathCandidates(qi, [][]int{qt.Levels})
	default:
		return s.pathCandidates(qi, paths(qt, s.opts.MaxDelay))
	}
}

// finestPath is the no-refinement path: the single finest level.
func finestPath(qt *QueryTraining) []int {
	return []int{qt.Levels[len(qt.Levels)-1]}
}

// paths enumerates monotone level chains ending at the finest level, with
// length bounded by the query's delay budget (maxDelay unless the query's
// own is tighter).
func paths(qt *QueryTraining, maxDelay int) [][]int {
	maxLen := maxDelay
	if qt.Query.MaxDelay > 0 && qt.Query.MaxDelay < maxLen {
		maxLen = qt.Query.MaxDelay
	}
	if maxLen < 1 {
		maxLen = 1
	}
	finest := qt.Levels[len(qt.Levels)-1]
	inner := qt.Levels[:len(qt.Levels)-1]
	var out [][]int
	var rec func(start int, cur []int)
	rec = func(start int, cur []int) {
		path := append(append([]int(nil), cur...), finest)
		out = append(out, path)
		if len(cur)+1 >= maxLen {
			return
		}
		for i := start; i < len(inner); i++ {
			rec(i+1, append(cur, inner[i]))
		}
	}
	rec(0, nil)
	return out
}

// allSPCandidate puts everything on the stream processor.
func (s *selector) allSPCandidate(qi int) candidate {
	c := candidate{path: finestPath(s.queries[qi]), cuts: [][2]int{{0, 0}}}
	c.cost = s.pathCost(qi, &c)
	return c
}

// filterDPCandidate cuts after the leading run of plain filter tables.
func (s *selector) filterDPCandidate(qi int) candidate {
	qt := s.queries[qi]
	finest := finestPath(qt)
	edge := qt.Edges[[2]int{LevelStar, finest[0]}]
	cutOf := func(sc *SideCost) int {
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
	c := candidate{path: finest, cuts: [][2]int{{cutOf(edge.Left), cutOf(edge.Right)}}}
	c.cost = s.pathCost(qi, &c)
	return c
}

// proxy is one (path, cut-tier combination) of a query's plan space before
// it becomes a candidate: its cost and cut depth, summed from the edges'
// priced tiers, and its indexes — the path's into the path list, and combo,
// the per-edge tier-pair indexes in mixed radix with the first edge most
// significant.
type proxy struct {
	cost               uint64
	depth, path, combo int32
}

// pathCandidates expands each path into per-edge cut-tier combinations and
// returns the cheapest 48 as candidates, cheapest first. Every combination
// is an index proxy priced from the edges' tables; only the 48 kept are
// built. Paths are distinct and so are an edge's tier pairs, so every
// combination is a distinct candidate.
func (s *selector) pathCandidates(qi int, paths [][]int) []candidate {
	gated := gatedQuery(s.queries[qi])
	s.proxies = s.proxies[:0]
	var edges []*pricedEdge
	for pi, path := range paths {
		edges = edges[:0]
		prev := LevelStar
		for _, level := range path {
			edges = append(edges, s.edge(qi, prev, level))
			prev = level
		}
		var rec func(i int, cost uint64, depth, combo int)
		rec = func(i int, cost uint64, depth, combo int) {
			if i == len(edges) {
				s.proxies = append(s.proxies, proxy{cost, int32(depth), int32(pi), int32(combo)})
				return
			}
			e := edges[i]
			gate := gated && i < len(edges)-1
			left, right := e.tiers[0], e.tiers[1]
			for li := range left {
				for ri := range right {
					n := right[ri].n
					if !gate {
						n += left[li].n
					}
					rec(i+1, cost+n, depth+left[li].cut+right[ri].cut, combo*len(left)*len(right)+li*len(right)+ri)
				}
			}
		}
		rec(0, 0, 0, 0)
	}
	// Among equal cost and depth the order is pdqsort's over the enumeration
	// order, the same whether it sorts proxies (slices.SortFunc) or built
	// candidates (sort.Slice, as plan_ref_test.go's reference selector does):
	// both are one pdqsort template.
	slices.SortFunc(s.proxies, func(a, b proxy) int {
		if a.cost != b.cost {
			return cmp.Compare(a.cost, b.cost)
		}
		// Equal trained cost: prefer deeper cuts (more work on the switch).
		// Training can only estimate the traffic it saw; when a class of
		// traffic is absent from training, every cut costs zero and the
		// deeper one is free insurance against workload drift.
		return cmp.Compare(b.depth, a.depth)
	})
	// Keep the search tractable: the cheapest few dozen candidates.
	kept := s.proxies[:min(len(s.proxies), 48)]
	out := make([]candidate, len(kept))
	for k, p := range kept {
		path := paths[p.path]
		c := &out[k]
		c.path, c.cuts, c.cost = path, make([][2]int, len(path)), p.cost
		for i, combo := len(path)-1, int(p.combo); i >= 0; i-- {
			prev := LevelStar
			if i > 0 {
				prev = path[i-1]
			}
			e := s.edge(qi, prev, path[i])
			left, right := e.tiers[0], e.tiers[1]
			pair := combo % (len(left) * len(right))
			combo /= len(left) * len(right)
			c.cuts[i] = [2]int{left[pair/len(right)].cut, right[pair%len(right)].cut}
		}
	}
	return out
}

// cutDepth sums the candidate's cut positions across levels and sides.
func (c *candidate) cutDepth() int {
	d := 0
	for _, cut := range c.cuts {
		d += cut[0] + cut[1]
	}
	return d
}

// pricedEdge is one refinement edge of a query as plan selection reads it,
// built once per PlanQueries: each side's cut tiers priced (a side without a
// join has the one empty cut), and, from the first trial program that
// places the edge, its augmented query and its sides' compiled pipelines.
type pricedEdge struct {
	prev, level int
	sides       [2]*SideCost // left, right (nil without a join)
	tiers       [2][]sidePrice
	aug         *query.Query
	pipes       [2]compile.Pipeline
}

// edge returns query qi's edge prev → level, pricing it on first use.
func (s *selector) edge(qi, prev, level int) *pricedEdge {
	k := [2]int{prev, level}
	if e := s.edges[qi][k]; e != nil {
		return e
	}
	prof := s.queries[qi].Edges[k]
	e := &pricedEdge{prev: prev, level: level, sides: [2]*SideCost{prof.Left, prof.Right}}
	for side, sc := range e.sides {
		for _, cut := range cutTiers(sc) {
			e.tiers[side] = append(e.tiers[side], price(sc, cut, s.cfg))
		}
	}
	s.edges[qi][k] = e
	return e
}

// at returns the edge's side priced at cut: one of its tiers, or, for a
// cut outside them (Filter-DP's filter prefix), priced afresh.
func (e *pricedEdge) at(side, cut int, cfg pisa.Config) sidePrice {
	for _, p := range e.tiers[side] {
		if p.cut == cut {
			return p
		}
	}
	return price(e.sides[side], cut, cfg)
}

// augment builds the edge's augmented query and compiles its sides, once.
func (e *pricedEdge) augment(qt *QueryTraining) {
	if e.aug != nil {
		return
	}
	e.aug = qt.AugmentedAt(e.prev, e.level)
	e.pipes[0] = compile.CompilePipeline(e.aug.Left.Ops)
	if e.aug.HasJoin() {
		e.pipes[1] = compile.CompilePipeline(e.aug.Right.Ops)
	}
}

// cutTiers returns the distinct cuts worth considering for one side of an
// edge: everything capability-allowed ("max"), the stateless prefix only
// ("lean"), and nothing ("zero") — the tiers trade stream-processor load
// against switch resources. A missing side has the one empty cut.
func cutTiers(sc *SideCost) []int {
	if sc == nil {
		return []int{0}
	}
	max, lean := sc.Cuts[len(sc.Cuts)-1], statelessCut(sc)
	tiers := []int{max}
	if lean != max {
		tiers = append(tiers, lean)
	}
	if lean != 0 && max != 0 {
		tiers = append(tiers, 0)
	}
	return tiers
}

// statelessCut is the deepest valid cut that uses no stateful tables.
func statelessCut(sc *SideCost) int {
	cut := 0
	for _, p := range sc.Cuts {
		if slices.ContainsFunc(sc.Pipe.Tables[:p], func(t compile.Table) bool { return t.Stateful }) {
			break // so does every deeper cut
		}
		cut = p
	}
	return cut
}

// sidePrice is one side of an edge cut at one position, priced: what the
// stream processor receives, and what the switch spends.
type sidePrice struct {
	cut int
	// n is the trained N for the cut plus overflow, the estimated
	// register-overflow traffic under the switch's per-op budget.
	n, overflow uint64
	// regs sizes each stateful switch table's registers, capped to the
	// per-op budget; stateful, bits and meta are the cut's switch footprint.
	regs     []int
	stateful int
	bits     int64
	meta     int
}

// price prices one side at a cut (the zero price for a missing side).
func price(sc *SideCost, cut int, cfg pisa.Config) sidePrice {
	p := sidePrice{cut: cut}
	if sc == nil {
		return p
	}
	p.regs = make([]int, len(sc.Pipe.Tables))
	for t := 0; t < cut; t++ {
		tab := &sc.Pipe.Tables[t]
		if !tab.Stateful {
			continue
		}
		keys := sc.KeysAt[t]
		n := pisa.EntriesFor(keys)
		if cap := maxEntries(cfg, tab.KeyBits, tab.ValBits); n > cap {
			// Cap to the per-operator register budget. Keys beyond capacity
			// overflow to the stream processor per packet (Section 3.3's
			// "additional packets processed by the stream processor" term):
			// the excess key fraction of the table's input packets, once the
			// d chained registers' effective capacity is exceeded.
			if capacity := uint64(float64(cap*cfg.RegisterChains) * 0.7); keys > capacity {
				p.overflow += (keys - capacity) * sc.inputN(t) / keys
			}
			n = cap
		}
		p.regs[t] = n
		p.stateful++
		p.bits += pisa.RegisterBits(n, cfg.RegisterChains, tab.KeyBits, tab.ValBits)
	}
	p.n = sc.nAt(cut) + p.overflow
	if cut > 0 {
		p.meta = sc.Pipe.MetaBits
	}
	return p
}

// nAt is the trained N for a cut (the whole window's for a cut that is not
// a valid cut point).
func (sc *SideCost) nAt(cut int) uint64 {
	if i := slices.Index(sc.Cuts, cut); i >= 0 {
		return sc.NAtCut[i]
	}
	return sc.NAtCut[0]
}

// inputN estimates the packets entering table t: the trained N at the
// deepest valid cut at or before t.
func (sc *SideCost) inputN(t int) uint64 {
	best := sc.NAtCut[0]
	for i, p := range sc.Cuts {
		if p <= t {
			best = sc.NAtCut[i]
		}
	}
	return best
}

// gatedQuery reports whether the query's coarse levels run only the gating
// sub-query. For join queries whose left side is the raw packet stream
// (e.g. the Zorro payload query), coarse refinement levels exist solely to
// zoom in via the aggregating sub-query; mirroring the packet-phase left
// side there would ship payloads the stream processor cannot use yet. The
// paper's case study behaves this way: payload processing starts only once
// the victim is identified.
func gatedQuery(qt *QueryTraining) bool {
	return qt.Query.HasJoin() && qt.Query.Left.OutSchema() == nil
}

// gateOnly reports whether level i of the path runs only the gating
// sub-query: a gated query's every level but the finest.
func gateOnly(qt *QueryTraining, path []int, i int) bool {
	return i != len(path)-1 && gatedQuery(qt)
}

// placement is one pipeline a candidate places on the switch: side
// (0 left, 1 right) of edge, cut at cut, run as the switch's side as.
type placement struct {
	edge *pricedEdge
	side int
	as   pisa.Side
	cut  int
}

// placements appends to out the pipelines candidate c of query qi places,
// in program order: per level the left side, then a join's right — or, on
// a gate-only level, the right side alone, run as the level's left
// pipeline. Pricing, resource accounting, trial programs and the final plan
// all read this one list, so they agree on what each level runs.
func (s *selector) placements(qi int, c *candidate, out []placement) []placement {
	prev := LevelStar
	for i, level := range c.path {
		e := s.edge(qi, prev, level)
		if gateOnly(s.queries[qi], c.path, i) {
			out = append(out, placement{e, 1, pisa.SideLeft, c.cuts[i][1]})
		} else {
			out = append(out, placement{e, 0, pisa.SideLeft, c.cuts[i][0]})
			if e.sides[1] != nil {
				out = append(out, placement{e, 1, pisa.SideRight, c.cuts[i][1]})
			}
		}
		prev = level
	}
	return out
}

// pathCost is the trained per-window tuple estimate of a candidate.
func (s *selector) pathCost(qi int, c *candidate) uint64 {
	var total uint64
	s.placed = s.placements(qi, c, s.placed[:0])
	for _, p := range s.placed {
		total += p.edge.at(p.side, p.cut, s.cfg).n
	}
	return total
}

// greedy packs candidates: start everything at All-SP-equivalent (always
// feasible: zero switch resources) and repeatedly adopt the single swap
// with the largest tuple saving that still packs onto the switch.
func (s *selector) greedy() []int {
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
				if ci == choice[qi] {
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
	// Final pass: within equal cost, move each query to the deepest-cut
	// candidate that still packs (free robustness; see candidate ordering).
	for qi := range s.queries {
		cur := &s.cands[qi][choice[qi]]
		for ci := range s.cands[qi] {
			c := &s.cands[qi][ci]
			if ci == choice[qi] || c.cost != cur.cost || c.cutDepth() <= cur.cutDepth() {
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

// fallbackIndex finds (or appends) the all-zero-cut candidate, which is
// feasible on any switch.
func (s *selector) fallbackIndex(qi int) int {
	for ci, c := range s.cands[qi] {
		if len(c.path) == 1 && c.cuts[0] == [2]int{0, 0} {
			return ci
		}
	}
	s.cands[qi] = append(s.cands[qi], s.allSPCandidate(qi))
	return len(s.cands[qi]) - 1
}

// realize converts a choice vector into the final plan with a validated
// switch program.
func (s *selector) realize(choice []int) (*Plan, error) {
	prog, err := s.buildProgram(choice)
	if err != nil {
		return nil, fmt.Errorf("planner: chosen plan does not fit the switch: %w", err)
	}
	plan := &Plan{Mode: s.opts.Mode, Program: prog}
	for qi, qt := range s.queries {
		qp := &QueryPlan{Query: qt.Query, Key: qt.Key}
		s.placed = s.placements(qi, &s.cands[qi][choice[qi]], s.placed[:0])
		for _, p := range s.placed {
			inst, n := s.instance(p)
			if p.as == pisa.SideRight {
				lp := &qp.Levels[len(qp.Levels)-1]
				lp.Right = &inst
				lp.ExpectedN += n
				continue
			}
			// A level's left pipeline opens its entry. Gate-only levels
			// collapse the join query to its aggregating sub-query: the
			// level's sole job is to feed the next level's dynamic filters.
			aug := p.edge.aug
			if p.side == 1 {
				aug = gateQuery(aug)
			}
			qp.Levels = append(qp.Levels, LevelPlan{Prev: p.edge.prev, Level: p.edge.level,
				Aug: aug, Left: inst, ExpectedN: n})
		}
		plan.Queries = append(plan.Queries, qp)
	}
	return plan, nil
}

// gateQuery rewrites a join query into a plain query over its right
// (aggregating) sub-pipeline.
func gateQuery(aug *query.Query) *query.Query {
	return &query.Query{
		ID: aug.ID, Name: aug.Name + "#gate", Window: aug.Window,
		MaxDelay: aug.MaxDelay, Left: aug.Right,
	}
}

// instance is a placement as an instance plan, with its trained N. The
// edge must have been augmented (buildProgram does it).
func (s *selector) instance(p placement) (InstancePlan, uint64) {
	pr := p.edge.at(p.side, p.cut, s.cfg)
	pipe := p.edge.pipes[p.side]
	return InstancePlan{Side: p.as, Ops: pipe.Ops, Pipe: pipe, Cut: p.cut, RegEntries: pr.regs,
		// Work estimate for the shard balancer: the trained op-level work
		// sum plus the collision-overflow packets this cut will shunt inline
		// to the stream processor — the profiler has unbounded registers, so
		// Work alone misses that cost, and it is heavy (mirror encode/decode
		// plus an SP pipeline run per packet).
		EstWork: p.edge.sides[p.side].Work + 8*pr.overflow,
	}, pr.n
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

// buildProgram materializes the switch program for a choice vector,
// assigning stages first-fit, and validates it against the configuration.
func (s *selector) buildProgram(choice []int) (*pisa.Program, error) {
	prog := &pisa.Program{}
	place := newPlacer(s.cfg)
	for qi, qt := range s.queries {
		s.placed = s.placements(qi, &s.cands[qi][choice[qi]], s.placed[:0])
		for _, p := range s.placed {
			p.edge.augment(qt)
			inst, _ := s.instance(p)
			spec := &pisa.InstanceSpec{
				QID: qt.Query.ID, Level: uint8(p.edge.level), Side: inst.Side,
				Ops: inst.Ops, Tables: inst.Pipe.Tables, CutAt: inst.Cut,
				RegEntries: inst.RegEntries,
			}
			stages, err := place.fit(spec)
			if err != nil {
				return nil, err
			}
			spec.StageOf = stages
			prog.Instances = append(prog.Instances, spec)
		}
	}
	if err := prog.Validate(s.cfg); err != nil {
		return nil, err
	}
	return prog, nil
}

// placer assigns tables to stages first-fit under the per-stage limits.
type placer struct {
	cfg       Config
	stateful  []int
	stateless []int
	bits      []int64
}

// Config aliases pisa.Config for the placer.
type Config = pisa.Config

func newPlacer(cfg Config) *placer {
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
