package planner

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/compile"
	"repro/internal/pisa"
	"repro/internal/query"
)

// Mode selects which telemetry system the planner emulates (Table 4). As
// the paper emulates prior systems by constraints added to Sonata's, each
// restricted mode's plan space filters Sonata's one enumeration of (path,
// cuts) per query: All-SP is the finest path with nothing on the switch,
// Filter-DP that path cut after its leading filters, Max-DP that path,
// Fix-REF the full ladder. Sonata's list holds theirs, so its plan costs no
// more than theirs while its delay bound admits the full ladder.
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

var modeNames = [...]string{"Sonata", "All-SP", "Filter-DP", "Max-DP", "Fix-REF"}

func (m Mode) String() string {
	if int(m) < len(modeNames) {
		return modeNames[m]
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// Options configure planning.
type Options struct {
	Mode Mode
}

// DefaultOptions returns the Sonata-mode defaults.
func DefaultOptions() Options {
	return Options{Mode: ModeSonata}
}

// maxDelay bounds a refinement chain's length, in windows, unless the
// query's own MaxDelay is tighter. DefaultMenu's ladder, three levels and the
// finest, never exceeds it.
const maxDelay = 4

// The work model, in tuple-stage units. A record entering a stateless op
// costs 1 and one entering a stateful op (a key-value update) StatefulWork;
// a packet a full register shunts to the stream processor — the mirror plus
// an SP pipeline run — costs OverflowWork. Training prices EstWork with it
// and the flight recorder prices a window's observed work with it, so their
// ratio reads drift, not a difference of units.
const (
	StatefulWork = 4
	OverflowWork = 8
)

// OpWork is the work model's weight of a record entering op o.
func OpWork(o *query.Op) uint64 {
	if o.Stateful() {
		return StatefulWork
	}
	return 1
}

// LevelPlan is one refinement level of a query: the augmented query and
// its per-side pipelines as the switch program installs them.
type LevelPlan struct {
	Prev, Level int
	Aug         *query.Query
	// Left and Right are the level's pipelines: the instances at their
	// positions in Plan.Program.Instances (the same pointers), whose CutAt is
	// where the stream processor takes over and RegEntries how the switch
	// registers are sized. Right is nil without a join.
	Left, Right *pisa.InstanceSpec
	// ExpectedN is the trained estimate of stream-processor tuples per
	// window contributed by this level.
	ExpectedN uint64
	// EstWork is the trained estimate of the level's per-window work in the
	// work model's units, both sides summed: the tuples entering each
	// pipeline stage, each at its op's OpWork, as measured on the training
	// windows (with dynamic gates applied), plus the packets its capped
	// registers are expected to overflow, at OverflowWork each. It is at
	// least 1, so a level that saw no training traffic still weighs
	// something: the shard balancer weighs a level by it, and the flight
	// recorder divides by it.
	EstWork uint64
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
	// assigned: every level's sides, query by query, each level's left
	// before its right, and nothing else.
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
	// modes is the set of modes (bit 1<<Mode) whose candidate list holds
	// this one: the planning mode's and, planning Sonata, each one's.
	modes uint8
}

// PlanQueries chooses partitioning and refinement plans for the trained
// query set under the switch configuration.
func PlanQueries(tr *TrainingResult, queries []*query.Query, cfg pisa.Config, opts Options) (*Plan, error) {
	sel, err := newSelector(tr, queries, cfg, opts)
	if err != nil {
		return nil, err
	}
	return sel.realize(sel.choose())
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
	// Scratch reused across queries and trial programs: per mode the
	// cheapest proxies offered, the All-SP ones, and the kept ones sorted.
	cheapest [ModeFixRef + 1][]proxy
	allSP    []proxy
	proxies  []proxy
	placed   []placement
}

// newSelector prices every query's plan space into its candidate list.
func newSelector(tr *TrainingResult, queries []*query.Query, cfg pisa.Config, opts Options) (*selector, error) {
	s := &selector{tr: tr, cfg: cfg, opts: opts}
	for _, q := range queries {
		qt, ok := tr.PerQuery[q.ID]
		if !ok {
			return nil, fmt.Errorf("planner: query %d (%s) was not trained", q.ID, q.Name)
		}
		s.queries = append(s.queries, qt)
		s.edges = append(s.edges, make(map[[2]int]*pricedEdge))
		s.cands = append(s.cands, s.candidates(len(s.queries)-1))
	}
	return s, nil
}

// paths enumerates monotone level chains ending at the finest level, with
// length bounded by the query's delay budget (bound unless the query's own
// is tighter). The first is the finest path.
func paths(qt *QueryTraining, bound int) [][]int {
	maxLen := bound
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

// proxy is one (path, cut-tier combination) of a query's plan space before
// it becomes a candidate: its cost and cut depth, summed from the edges'
// priced tiers, its indexes — the path's into the path list, and combo,
// the per-edge tier-pair indexes in mixed radix with the first edge most
// significant — and the modes whose plan space holds it.
type proxy struct {
	cost               uint64
	depth, path, combo int32
	modes              uint8
}

// maxCandidates caps a mode's candidate list: its cheapest 48 combinations
// keep the search tractable.
const maxCandidates = 48

// compareProxies is the order candidates are kept and listed in: cost, then
// cut depth, deeper first, then enumeration order. Paths and combinations
// are distinct, so it is total.
func compareProxies(a, b proxy) int {
	if a.cost != b.cost {
		return cmp.Compare(a.cost, b.cost)
	}
	// Equal trained cost: prefer deeper cuts (more work on the switch).
	// Training can only estimate the traffic it saw; when a class of
	// traffic is absent from training, every cut costs zero and the
	// deeper one is free insurance against workload drift.
	if a.depth != b.depth {
		return cmp.Compare(b.depth, a.depth)
	}
	// Then enumeration order, so that a mode's list, filtered from this
	// order, is the order its own space sorts in.
	return cmp.Or(cmp.Compare(a.path, b.path), cmp.Compare(a.combo, b.combo))
}

// offer files proxy p with every mode of planning whose space holds it: into
// the mode's cheapest maxCandidates so far, a heap whose root is the costliest
// kept, and, when p is an All-SP proxy, into allSP, which keeps them all.
func (s *selector) offer(p proxy, planning uint8) {
	for m := range s.cheapest {
		if p.modes&planning&(1<<m) == 0 {
			continue
		}
		h := s.cheapest[m]
		if len(h) < maxCandidates {
			h = append(h, p)
			for i := len(h) - 1; i > 0; {
				up := (i - 1) / 2
				if compareProxies(h[up], h[i]) > 0 {
					break
				}
				h[up], h[i] = h[i], h[up]
				i = up
			}
			s.cheapest[m] = h
			continue
		}
		if compareProxies(p, h[0]) > 0 {
			continue
		}
		h[0] = p
		for i := 0; ; {
			c := 2*i + 1
			if c >= len(h) {
				break
			}
			if c+1 < len(h) && compareProxies(h[c+1], h[c]) > 0 {
				c++
			}
			if compareProxies(h[i], h[c]) > 0 {
				break
			}
			h[i], h[c] = h[c], h[i]
			i = c
		}
	}
	if p.modes&(1<<ModeAllSP) != 0 {
		s.allSP = append(s.allSP, p)
	}
}

// kept appends to dst, once each and in compareProxies order, every proxy
// offer kept, and empties the heaps for the next query. Each mode's
// maxCandidates cheapest come first among its own there as in the full
// order, so ranking the kept proxies ranks those the same.
func (s *selector) kept(dst []proxy) []proxy {
	for m, h := range s.cheapest {
		dst = append(dst, h...)
		s.cheapest[m] = h[:0]
	}
	dst = append(dst, s.allSP...)
	s.allSP = s.allSP[:0]
	slices.SortFunc(dst, compareProxies)
	return slices.Compact(dst)
}

// candidates enumerates query qi's plan space once and returns the planning
// mode's candidate list, cheapest first (compareProxies). Every (path,
// cut-tier combination) is an index proxy priced from the edges' tables.
// Each mode's list is the cheapest maxCandidates combinations of its space
// plus the All-SP one, every list's fallback (it packs on any switch);
// Sonata's list is the union of every mode's. So only those proxies are kept
// as they are enumerated, only they are sorted, and only they are built.
// Paths are distinct and so are an edge's tiers, so every combination is a
// distinct candidate.
func (s *selector) candidates(qi int) []candidate {
	qt := s.queries[qi]
	ps := paths(qt, maxDelay)
	planning := uint8(0xff)
	if s.opts.Mode != ModeSonata {
		// A restricted space lies on the finest path and, for Fix-REF, on
		// the full ladder, which the delay bound does not limit.
		planning = 1 << s.opts.Mode
		ps = ps[:1]
		if s.opts.Mode == ModeFixRef && len(qt.Levels) > 1 {
			ps = append(ps, qt.Levels)
		}
	}
	gated := gatedQuery(qt)
	var edges []*pricedEdge
	for pi, path := range ps {
		edges = edges[:0]
		prev := LevelStar
		for _, level := range path {
			edges = append(edges, s.edge(qi, prev, level))
			prev = level
		}
		var rec func(i int, cost uint64, depth, combo int)
		rec = func(i int, cost uint64, depth, combo int) {
			if i == len(edges) {
				if modes := modesOf(qt, path, edges[0], combo); modes&planning != 0 {
					s.offer(proxy{cost, int32(depth), int32(pi), int32(combo), modes}, planning)
				}
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
	s.proxies = s.kept(s.proxies[:0])
	var out []candidate
	var rank [ModeFixRef + 1]int
	var cuts [][2]int // kept candidates' cuts, carved from shared chunks
	for _, p := range s.proxies {
		var modes uint8
		for m := range rank {
			if p.modes&planning&(1<<m) == 0 {
				continue
			}
			if rank[m] < maxCandidates || p.modes&(1<<ModeAllSP) != 0 {
				modes |= 1 << m
			}
			rank[m]++
		}
		if modes == 0 {
			continue
		}
		path := ps[p.path]
		if len(cuts) < len(path) {
			cuts = make([][2]int, maxCandidates*len(path))
		}
		c := candidate{path: path, cuts: cuts[:len(path):len(path)], cost: p.cost, modes: modes | 1<<s.opts.Mode}
		cuts = cuts[len(path):]
		for i, combo := len(path)-1, int(p.combo); i >= 0; i-- {
			prev := LevelStar
			if i > 0 {
				prev = path[i-1]
			}
			e := s.edge(qi, prev, path[i])
			pairs := len(e.tiers[0]) * len(e.tiers[1])
			c.cuts[i] = e.cutPair(combo % pairs)
			combo /= pairs
		}
		out = append(out, c)
	}
	return out
}

// modesOf is the set of modes whose plan space holds the combination combo
// of path, whose first edge is first: Sonata's always; the full ladder is
// Fix-REF's; the finest path is Max-DP's, cut after its leading filters
// Filter-DP's, and with nothing on the switch All-SP's and, as their
// fallback, Filter-DP's and Fix-REF's.
func modesOf(qt *QueryTraining, path []int, first *pricedEdge, combo int) uint8 {
	modes := uint8(1 << ModeSonata)
	if len(path) == len(qt.Levels) {
		modes |= 1 << ModeFixRef
	}
	if len(path) == 1 {
		modes |= 1 << ModeMaxDP
		switch first.cutPair(combo) {
		case [2]int{}:
			modes |= 1<<ModeAllSP | 1<<ModeFilterDP | 1<<ModeFixRef
		case [2]int{filterCut(first.sides[0]), filterCut(first.sides[1])}:
			modes |= 1 << ModeFilterDP
		}
	}
	return modes
}

// filterCut is Filter-DP's cut of a side: after its leading run of plain
// filter tables (0 for a missing side).
func filterCut(sc *SideCost) int {
	cut := 0
	for sc != nil && cut < sc.Pipe.CapPrefix && sc.Pipe.Tables[cut].Kind == compile.TableFilter {
		cut++
	}
	return cut
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
	qt := s.queries[qi]
	prof := qt.Edges[k]
	e := &pricedEdge{prev: prev, level: level, sides: [2]*SideCost{prof.Left, prof.Right}}
	for side, sc := range e.sides {
		cuts := cutTiers(sc)
		// The finest path's edge offers Filter-DP's cut too.
		if f := filterCut(sc); prev == LevelStar && level == qt.Levels[len(qt.Levels)-1] && !slices.Contains(cuts, f) {
			cuts = append(cuts, f)
		}
		for _, cut := range cuts {
			e.tiers[side] = append(e.tiers[side], price(sc, cut, s.cfg))
		}
	}
	s.edges[qi][k] = e
	return e
}

// at returns the edge's side priced at cut, which is one of its tiers.
func (e *pricedEdge) at(side, cut int) sidePrice {
	return e.tiers[side][slices.IndexFunc(e.tiers[side], func(p sidePrice) bool { return p.cut == cut })]
}

// cutPair is the cuts of the edge's tier pair pair, the left tier's index
// times the right side's tier count plus the right tier's.
func (e *pricedEdge) cutPair(pair int) [2]int {
	right := e.tiers[1]
	return [2]int{e.tiers[0][pair/len(right)].cut, right[pair%len(right)].cut}
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
	max, lean := sc.Cuts[len(sc.Cuts)-1], sc.StatelessCut()
	tiers := []int{max}
	if lean != max {
		tiers = append(tiers, lean)
	}
	if lean != 0 && max != 0 {
		tiers = append(tiers, 0)
	}
	return tiers
}

// StatelessCut is the deepest valid cut that uses no stateful tables.
func (sc *SideCost) StatelessCut() int {
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
		n, bits, capped := cfg.RegisterSize(tab, keys)
		// Keys beyond a capped register's capacity overflow to the stream
		// processor per packet (Section 3.3's "additional packets processed
		// by the stream processor" term): the excess key fraction of the
		// table's input packets, once the d chained registers' effective
		// capacity is exceeded.
		if capacity := uint64(float64(n*cfg.RegisterChains) * 0.7); capped && keys > capacity {
			p.overflow += (keys - capacity) * sc.inputN(t) / keys
		}
		p.regs[t] = n
		p.stateful++
		p.bits += bits
	}
	p.n = sc.NAt(cut) + p.overflow
	if cut > 0 {
		p.meta = sc.Pipe.MetaBits
	}
	return p
}

// NAt is the trained N for a cut (the whole window's for a cut that is not
// a valid cut point).
func (sc *SideCost) NAt(cut int) uint64 {
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

// choose is plan selection, one choice per query. A restricted mode's is
// the greedy's over its list. Sonata's is the greedy's over its whole list
// when that gives every query its cheapest candidate (the zero choice),
// which no choice beats. Otherwise the incumbent is the cheapest of that
// and each restricted mode's greedy choice, all of which place, and the
// swap search improves on it through placeable choices only.
func (s *selector) choose() []int {
	choice, final := s.incumbent()
	if !final {
		choice, _ = swapSearch(s.cands, s.cfg, choice, s.candidateResources, s.places)
	}
	return choice
}

// incumbent is the mode's greedy choice, final when the mode is restricted
// or the choice is Sonata's zero choice, and otherwise the cheapest of it
// and every restricted mode's greedy choice.
func (s *selector) incumbent() (choice []int, final bool) {
	choice = s.greedy(s.opts.Mode)
	if s.opts.Mode != ModeSonata || s.totalCost(choice) == s.totalCost(make([]int, len(choice))) {
		return choice, true
	}
	for m := ModeAllSP; m <= ModeFixRef; m++ {
		if c := s.greedy(m); s.totalCost(c) < s.totalCost(choice) {
			choice = c
		}
	}
	return choice, false
}

// places reports whether a choice's program places on the switch.
func (s *selector) places(choice []int) bool {
	_, err := s.buildProgram(choice)
	return err == nil
}

// footprint is what a candidate takes of the switch: stateful tables,
// register bits and metadata bits summed over the pipelines it places, and
// the most switch tables any one of those pipelines runs (its longest cut).
type footprint struct {
	stateful int
	bits     int64
	meta     int
	cut      int
}

// candidateResources is a candidate's footprint over the pipelines it
// places, from the edges' priced tiers.
func (s *selector) candidateResources(qi int, c *candidate) (fp footprint) {
	s.placed = s.placements(qi, c, s.placed[:0])
	for _, p := range s.placed {
		pr := p.edge.at(p.side, p.cut)
		fp.stateful += pr.stateful
		fp.bits += pr.bits
		fp.meta += pr.meta
		fp.cut = max(fp.cut, p.cut)
	}
	return fp
}

// swapCap caps the placements the swap search tries: a deterministic
// budget, where a wall-clock one would make plans depend on the host's
// speed.
const swapCap = 4096

// swapMove sets query q[k] to candidate c[k], for one query (q[1] < 0) or
// two, and saves saving of the choice's trained cost.
type swapMove struct {
	saving uint64
	q, c   [2]int32
}

// compareMoves orders moves by saving, largest first, then one-query moves
// before two-query ones, then by queries and candidates: a total order, so
// the search is deterministic.
func compareMoves(a, b swapMove) int {
	return cmp.Or(cmp.Compare(b.saving, a.saving), cmp.Compare(min(a.q[1], 0), min(b.q[1], 0)),
		cmp.Compare(a.q[0], b.q[0]), cmp.Compare(a.c[0], b.c[0]),
		cmp.Compare(a.q[1], b.q[1]), cmp.Compare(a.c[1], b.c[1]))
}

// swapSearch improves a placeable choice over cands, each query's list
// sorted by cost, in rounds. A round lists every move of one query, or of
// two together, whose summed trained cost is below the choice's; drops each
// that takes a candidate with a pipeline of more switch tables than the
// switch has stages (a pipeline's tables take strictly increasing stages,
// C4) or whose summed footprint (resources) exceeds the switch's totals —
// S·A stateful tables, S·B register bits and M metadata bits, Table 2's C2,
// C1 and C5 summed over stages. Every placed program meets both, so the
// drop only skips moves that cannot place. It adopts the first of the
// rest, in compareMoves order, that places. Whether a move fits is decided
// by places alone. The search ends when a round places nothing or swapCap
// placements are spent, which capped reports; the choice it returns places.
func swapSearch(cands [][]candidate, cfg pisa.Config, choice []int,
	resources func(qi int, c *candidate) footprint,
	places func(choice []int) bool) (out []int, capped bool) {
	foot := make([][][3]int64, len(cands))
	short := make([][]bool, len(cands)) // every pipeline fits the stages
	for qi := range cands {
		foot[qi] = make([][3]int64, len(cands[qi]))
		short[qi] = make([]bool, len(cands[qi]))
		for ci := range cands[qi] {
			fp := resources(qi, &cands[qi][ci])
			foot[qi][ci] = [3]int64{int64(fp.stateful), fp.bits, int64(fp.meta)}
			short[qi][ci] = fp.cut <= cfg.Stages
		}
	}
	limit := [3]int64{int64(cfg.Stages * cfg.StatefulPerStage), int64(cfg.Stages) * cfg.RegisterBitsPerStage, int64(cfg.MetadataBits)}
	cost := func(qi, ci int) int64 { return int64(cands[qi][ci].cost) }
	choice, trial := slices.Clone(choice), make([]int, len(choice))
	var moves []swapMove
	for spent := 0; ; {
		var total [3]int64
		for qi, ci := range choice {
			for r := range total {
				total[r] += foot[qi][ci][r]
			}
		}
		// fits is the prune: both candidates' pipelines fit the stages, and
		// the choice's footprint with query qi moved from its candidate to
		// ci, and qj (when not negative) to cj, fits the totals.
		fits := func(qi, ci, qj, cj int) bool {
			if !short[qi][ci] || qj >= 0 && !short[qj][cj] {
				return false
			}
			for r, t := range total {
				t += foot[qi][ci][r] - foot[qi][choice[qi]][r]
				if qj >= 0 {
					t += foot[qj][cj][r] - foot[qj][choice[qj]][r]
				}
				if t > limit[r] {
					return false
				}
			}
			return true
		}
		moves = moves[:0]
		for qi := range cands {
			cur := cost(qi, choice[qi])
			for ci := 0; ci < len(cands[qi]) && cost(qi, ci) < cur; ci++ {
				if fits(qi, ci, -1, 0) {
					moves = append(moves, swapMove{uint64(cur - cost(qi, ci)), [2]int32{int32(qi), -1}, [2]int32{int32(ci), 0}})
				}
			}
		}
		for qi := range cands {
			for qj := qi + 1; qj < len(cands); qj++ {
				cur := cost(qi, choice[qi]) + cost(qj, choice[qj])
				for ci := 0; ci < len(cands[qi]) && cost(qi, ci)+cost(qj, 0) < cur; ci++ {
					if ci == choice[qi] {
						continue
					}
					for cj := 0; cj < len(cands[qj]) && cost(qi, ci)+cost(qj, cj) < cur; cj++ {
						if cj != choice[qj] && fits(qi, ci, qj, cj) {
							moves = append(moves, swapMove{uint64(cur - cost(qi, ci) - cost(qj, cj)),
								[2]int32{int32(qi), int32(qj)}, [2]int32{int32(ci), int32(cj)}})
						}
					}
				}
			}
		}
		slices.SortFunc(moves, compareMoves)
		adopted := false
		for _, m := range moves {
			if spent == swapCap {
				return choice, true
			}
			spent++
			copy(trial, choice)
			for k, qi := range m.q {
				if qi >= 0 {
					trial[qi] = int(m.c[k])
				}
			}
			if adopted = places(trial); adopted {
				choice, trial = trial, choice
				break
			}
		}
		if !adopted {
			return choice, false
		}
	}
}

// totalCost is a choice's trained per-window tuple estimate.
func (s *selector) totalCost(choice []int) uint64 {
	var total uint64
	for qi, ci := range choice {
		total += s.cands[qi][ci].cost
	}
	return total
}

// greedy packs the mode's candidates: start every query at All-SP (zero
// switch resources, so it packs on any switch) and repeatedly adopt the
// single swap with the largest tuple saving that still packs onto the
// switch.
func (s *selector) greedy(mode Mode) []int {
	in := func(c *candidate) bool { return c.modes&(1<<mode) != 0 }
	choice := make([]int, len(s.queries))
	for qi := range choice {
		choice[qi] = slices.IndexFunc(s.cands[qi], func(c candidate) bool {
			return len(c.path) == 1 && c.cuts[0] == [2]int{}
		})
	}
	for {
		bestQ, bestC := -1, -1
		var bestGain int64
		for qi := range s.queries {
			cur := s.cands[qi][choice[qi]].cost
			for ci := range s.cands[qi] {
				if ci == choice[qi] || !in(&s.cands[qi][ci]) {
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
			if ci == choice[qi] || !in(c) || c.cost != cur.cost || c.cutDepth() <= cur.cutDepth() {
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

// realize converts a choice vector into the final plan: the placed switch
// program, and each query's levels over its instances, in program order.
func (s *selector) realize(choice []int) (*Plan, error) {
	prog, err := s.buildProgram(choice)
	if err != nil {
		return nil, fmt.Errorf("planner: chosen plan does not fit the switch: %w", err)
	}
	plan := &Plan{Mode: s.opts.Mode, Program: prog}
	specs := prog.Instances
	for qi, qt := range s.queries {
		qp := &QueryPlan{Query: qt.Query, Key: qt.Key}
		s.placed = s.placements(qi, &s.cands[qi][choice[qi]], s.placed[:0])
		for _, p := range s.placed {
			spec := specs[0]
			specs = specs[1:]
			pr := p.edge.at(p.side, p.cut)
			// The trained op-level work sum plus the collision-overflow
			// packets this cut will shunt inline to the stream processor:
			// the profiler has unbounded registers, so Work alone misses
			// that cost.
			work := p.edge.sides[p.side].Work + OverflowWork*pr.overflow
			if p.as == pisa.SideRight {
				lp := &qp.Levels[len(qp.Levels)-1]
				lp.Right = spec
				lp.ExpectedN += pr.n
				lp.EstWork += work
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
				Aug: aug, Left: spec, ExpectedN: pr.n, EstWork: work})
		}
		for li := range qp.Levels {
			qp.Levels[li].EstWork = max(qp.Levels[li].EstWork, 1)
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

// buildProgram materializes the switch program for a choice vector and
// places it on the switch (pisa.Program.Place).
func (s *selector) buildProgram(choice []int) (*pisa.Program, error) {
	prog := s.program(choice)
	if err := prog.Place(s.cfg); err != nil {
		return nil, err
	}
	return prog, nil
}

// program is the switch program for a choice vector, not yet placed.
func (s *selector) program(choice []int) *pisa.Program {
	prog := &pisa.Program{}
	for qi, qt := range s.queries {
		s.placed = s.placements(qi, &s.cands[qi][choice[qi]], s.placed[:0])
		for _, p := range s.placed {
			p.edge.augment(qt)
			pipe := p.edge.pipes[p.side]
			prog.Instances = append(prog.Instances, &pisa.InstanceSpec{
				QID: qt.Query.ID, Level: uint8(p.edge.level), Side: p.as,
				Ops: pipe.Ops, Tables: pipe.Tables, CutAt: p.cut,
				RegEntries: p.edge.at(p.side, p.cut).regs,
			})
		}
	}
	return prog
}
