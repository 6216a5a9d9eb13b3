package planner

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/compile"
	"repro/internal/fields"
	"repro/internal/packet"
	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/tuple"
)

// Frames is one training window's raw packets.
type Frames [][]byte

// SideCost holds the workload estimates for one side of one refinement
// edge: the paper's N_{q,t} and B_{q,t} inputs (Table 1), as medians across
// training windows.
type SideCost struct {
	// Pipe is the compiled augmented pipeline the costs refer to.
	Pipe compile.Pipeline
	// Cuts are the pipeline's valid cut points, Pipe.ValidPartitionPoints().
	Cuts []int
	// NAtCut[i] is the tuples-per-window the stream processor would receive
	// if the pipeline were cut after Cuts[i] tables.
	NAtCut []uint64
	// KeysAt[t] is the distinct-key count of stateful table t.
	KeysAt map[int]uint64
	// Work is the median per-window op-level work sum: tuples entering each
	// pipeline op, each at its OpWork, added up. It feeds the runtime's shard balancer through
	// LevelPlan.EstWork.
	Work uint64
}

// EdgeProfile is the cost of running a query at level Level gated by the
// keys that satisfied level Prev (Figure 5's rows).
type EdgeProfile struct {
	Prev, Level int
	Left        *SideCost
	Right       *SideCost // nil without a join
}

// QueryTraining aggregates everything the planner learned about one query.
type QueryTraining struct {
	Query     *query.Query
	Key       query.RefinementKey
	Refinable bool
	// Levels are the refinement levels considered, coarse to fine, ending
	// at the key's finest level. For unrefinable queries it is [0].
	Levels []int
	// Th[r] carries the relaxed thresholds for level r.
	Th map[int]Thresholds
	// Satisfy[r] is the union (across windows) of keys satisfying the query
	// at level r, each masked to r, in order (tuple.Value.Compare).
	Satisfy map[int][]tuple.Value
	// Edges[{prev, level}] is the edge cost profile.
	Edges map[[2]int]*EdgeProfile
}

// AugmentedAt builds the query instance for an edge, with trained
// thresholds applied.
func (qt *QueryTraining) AugmentedAt(prev, level int) *query.Query {
	if !qt.Refinable {
		return qt.Query.Clone()
	}
	return AugmentQuery(qt.Query, qt.Key, prev, level, qt.Th[level])
}

// TrainingResult maps query IDs to their training outcomes.
type TrainingResult struct {
	PerQuery map[uint16]*QueryTraining
	// WindowPackets is the median packet count per training window — the
	// all-packets baseline N for a cut of zero.
	WindowPackets uint64
}

// DefaultMenu is the level menu every deployment trains with unless it
// says otherwise: /8, /16 and /24, a subset of the paper's {4, 8, …, 32}
// (EXPERIMENTS.md deviation 2), each key's finest level appended by Train.
// Train only reads the menu.
var DefaultMenu = []int{8, 16, 24}

// Train profiles the query set over the training windows and derives
// refinement levels, relaxed thresholds, satisfying-key sets, and edge
// costs. levels is the planner's level menu (coarse to fine, e.g.
// {8,16,24,32}); the finest level of each query's key is appended
// automatically when missing.
//
// Each window is parsed and its header fields extracted once, each window on
// its own goroutine, into one batch every run reads. Then queries train on
// min(GOMAXPROCS, len(queries)) workers, heaviest first, each worker with its
// own profiler and scratch; the batches are read-only by then. A query's
// training reads only the batches and its own runs, so the result does not
// depend on the worker count. Train keeps nothing of the windows.
func Train(queries []*query.Query, levels []int, windows []Frames) (*TrainingResult, error) {
	if len(windows) == 0 {
		return nil, fmt.Errorf("planner: no training windows")
	}
	if len(queries) == 0 {
		return nil, fmt.Errorf("planner: no queries")
	}
	// The fields the queries read in packet phase: their operators' and each
	// refinement key, which gated edges filter on.
	set := &query.FieldSet{}
	for _, q := range queries {
		for _, p := range sides(q) {
			set.AddOps(p.Ops)
		}
		if key, ok := query.QueryRefinementKey(q); ok {
			set.Add(key.Field)
		}
	}
	// DNS is deep-decoded only when some query reads it.
	opts := packet.ParserOptions{DecodeDNS: slices.ContainsFunc(queries, query.ReadsDNS)}
	batches, all := make([]query.PacketBatch, len(windows)), make([][]uint64, len(windows))
	counts := make([]uint64, len(windows))
	each(len(windows), func() func(int) {
		parser := packet.NewParser(opts)
		return func(w int) {
			// Each packet is parsed in place and owns its DNS slices; a
			// frame that fails to parse leaves its slot zeroed for the next.
			pkts := make([]packet.Packet, len(windows[w]))
			n := 0
			for _, f := range windows[w] {
				if parser.Parse(f, &pkts[n]) == nil {
					n++
				} else {
					pkts[n] = packet.Packet{}
				}
			}
			b := &batches[w]
			b.Pkts = make([]*packet.Packet, n)
			for i := range b.Pkts {
				b.Pkts[i] = &pkts[i]
			}
			all[w] = tuple.SelAll(nil, n)
			b.Extract(set, all[w])
			counts[w] = uint64(len(windows[w]))
		}
	})

	// Heaviest first, so that the longest query does not start last.
	order := make([]int, len(queries))
	weight := make([]int, len(queries))
	for i, q := range queries {
		order[i], weight[i] = i, trainWeight(q, levels)
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(weight[b], weight[a]) })
	learned := make([]*QueryTraining, len(queries))
	each(len(queries), func() func(int) {
		t := &trainer{batches: batches, all: all, prof: stream.NewProfiler(nil, nil),
			seen: make(map[tuple.Value]int), gates: make(map[fields.ID][][]uint64)}
		return func(i int) {
			learned[order[i]] = t.learn(queries[order[i]], levels)
		}
	})

	res := &TrainingResult{PerQuery: make(map[uint16]*QueryTraining), WindowPackets: medianU64(counts)}
	for i, q := range queries {
		res.PerQuery[q.ID] = learned[i]
	}
	return res, nil
}

// each calls do(i) for every i in [0, n) on min(GOMAXPROCS, n) goroutines,
// each taking the next i as it finishes one. worker is called once per
// goroutine, on the caller's, and returns that goroutine's do, so a worker's
// scratch is its own.
func each(n int, worker func() func(int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), n) {
		do := worker()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				do(i)
			}
		}()
	}
	wg.Wait()
}

// trainWeight is a static estimate of what training q costs, to order the
// queries by: its sides, times the levels it trains at, times its stateful
// ops (at least one).
func trainWeight(q *query.Query, menu []int) int {
	levels := 1
	if key, ok := query.QueryRefinementKey(q); ok {
		for _, l := range menu {
			if l > 0 && l < key.MaxLevel {
				levels++
			}
		}
	}
	stateful := 0
	for _, p := range sides(q) {
		for i := range p.Ops {
			if p.Ops[i].Stateful() {
				stateful++
			}
		}
	}
	return len(sides(q)) * levels * max(stateful, 1)
}

// trainer holds one training worker's view of a Train call's windows — per
// window, a batch of its parsed packets with the queries' fields extracted,
// and the selection of all of them, both shared read-only with every other
// worker — and the worker's own profiler, through which every run goes and
// whose keyed-state tables carry over from run to run.
type trainer struct {
	batches []query.PacketBatch
	all     [][]uint64
	prof    *stream.Profiler
	// keys and seen are satisfying's scratch, gates gatedRuns'.
	keys  []tuple.Value
	seen  map[tuple.Value]int
	gates map[fields.ID][][]uint64
}

// learn trains one query. Each level gets one ungated run per side and
// window with its final threshold filter opened, the finest level first:
// its outputs are every key's aggregate. A coarser level's relaxed threshold
// is the least of them over prefixes of finest-level satisfying keys, and
// applying the level's trained filter to them afterwards (closeRun) gives
// its satisfying keys and its (*, r) edge. Then each coarser level prev
// gates the finer ones through the dynamic filter AugmentQuery put at op 0
// of their sides: evaluated once per window and key field, its selection
// starts every finer level's run on either side.
func (t *trainer) learn(q *query.Query, menu []int) *QueryTraining {
	qt := &QueryTraining{Query: q, Th: make(map[int]Thresholds),
		Satisfy: make(map[int][]tuple.Value), Edges: make(map[[2]int]*EdgeProfile)}
	key, ok := query.QueryRefinementKey(q)
	qt.Key, qt.Refinable = key, ok
	qt.Levels = []int{key.MaxLevel} // [0] when the query is not refinable
	if ok {
		// The menu's levels below the key's finest, and the finest, each once.
		for _, l := range menu {
			if l > 0 && l < key.MaxLevel {
				qt.Levels = append(qt.Levels, l)
			}
		}
		slices.Sort(qt.Levels)
		qt.Levels = slices.Compact(qt.Levels)
		qt.Th[key.MaxLevel] = Thresholds{}
	}
	coarse, finest := qt.Levels[:len(qt.Levels)-1], qt.Levels[len(qt.Levels)-1]

	var finestKeys map[tuple.Value]struct{}
	for _, r := range append([]int{finest}, coarse...) {
		// Until Th[r] is set this is the level at its original thresholds.
		runs := t.openRuns(qt.AugmentedAt(LevelStar, r))
		if r != finest {
			qt.Th[r] = qt.observeThresholds(r, prefixSet(key, finestKeys, r), runs)
		}
		aug := qt.AugmentedAt(LevelStar, r)
		for s, p := range sides(aug) {
			for w := range runs[s] {
				runs[s][w] = closeRun(p, runs[s][w])
			}
		}
		qt.Edges[[2]int{LevelStar, r}] = t.edge(LevelStar, r, aug, runs)
		if qt.Refinable {
			set := t.satisfying(key.Field, r, aug, runs)
			if r == finest {
				finestKeys = set
			}
			qt.Satisfy[r] = make([]tuple.Value, 0, len(set))
			for k := range set {
				qt.Satisfy[r] = append(qt.Satisfy[r], k)
			}
			slices.SortFunc(qt.Satisfy[r], tuple.Value.Compare)
		}
	}

	for i, prev := range coarse {
		admit := query.NewDynSet(qt.Satisfy[prev])
		clear(t.gates)
		for _, r := range qt.Levels[i+1:] {
			aug := qt.AugmentedAt(prev, r)
			qt.Edges[[2]int{prev, r}] = t.edge(prev, r, aug, t.gatedRuns(aug, admit))
		}
	}
	return qt
}

// sides lists the pipelines training runs: left, then a join's right.
func sides(q *query.Query) []*query.Pipeline {
	if q.HasJoin() {
		return []*query.Pipeline{q.Left, q.Right}
	}
	return []*query.Pipeline{q.Left}
}

// openRuns profiles each side of aug over every window, indexed
// [side][window], with its final threshold filter opened
// (disableFinalFilter): the outputs are every key that reaches the filter.
func (t *trainer) openRuns(aug *query.Query) [][]stream.PipelineProfile {
	runs := make([][]stream.PipelineProfile, len(sides(aug)))
	for s, p := range sides(aug) {
		for w, all := range t.all {
			runs[s] = append(runs[s], t.run(disableFinalFilter(p).Ops, w, all))
		}
	}
	return runs
}

// gatedRuns profiles each side of aug over every window, [side][window].
// Op 0 of a side is the dynamic filter AugmentQuery prepended, here admitting
// the keys in admit. Its selection over each window is evaluated once per
// key field and kept in t.gates, which the caller clears for each coarser
// level, whose filters are the same but for their table. The rest of the
// side runs over the gate's packets, and op 0 emits as many as it selects,
// so OutAfter and Keys are indexed by the side's ops.
func (t *trainer) gatedRuns(aug *query.Query, admit *query.DynSet) [][]stream.PipelineProfile {
	runs := make([][]stream.PipelineProfile, len(sides(aug)))
	for s, p := range sides(aug) {
		dyn := &p.Ops[0]
		sels, ok := t.gates[dyn.DynKeyField]
		if !ok {
			sels = make([][]uint64, len(t.all))
			for w := range sels {
				sels[w] = slices.Clone(t.all[w])
				admit.FilterPackets(sels[w], &t.batches[w], dyn)
			}
			t.gates[dyn.DynKeyField] = sels
		}
		for w, gate := range sels {
			run := t.run(p.Ops[1:], w, gate)
			run.OutAfter = slices.Insert(run.OutAfter, 0, uint64(tuple.SelCount(gate)))
			run.Keys = slices.Insert(run.Keys, 0, 0)
			runs[s] = append(runs[s], run)
		}
	}
	return runs
}

// run profiles ops over the packets sel selects from window w.
func (t *trainer) run(ops []query.Op, w int, sel []uint64) stream.PipelineProfile {
	t.prof.Reset(ops)
	t.prof.Feed(&t.batches[w], sel)
	return t.prof.EndWindow()
}

// closeRun turns an open run into a run of p: the outputs that fail p's
// final threshold filter drop out, and out of that filter's and the
// pipeline's emission counts. Nothing before the filter moves.
func closeRun(p *query.Pipeline, run stream.PipelineProfile) stream.PipelineProfile {
	final := finalThresholdOp(p)
	if final == nil {
		return run
	}
	kept := run.Outputs[:0:0]
rows:
	for _, row := range run.Outputs {
		for i := range final.Clauses {
			if !final.Clauses[i].MatchTuple(row) {
				continue rows
			}
		}
		kept = append(kept, row)
	}
	dropped := uint64(len(run.Outputs) - len(kept))
	run.OutAfter[len(p.Ops)-1] -= dropped
	run.OutAfter[len(p.Ops)] -= dropped
	run.Outputs = kept
	return run
}

// observeThresholds relaxes level r's thresholds from its open runs: per
// side, the least aggregate the final filter saw over a key in prefixes (nil
// when the side has no such filter, key column or key).
func (qt *QueryTraining) observeThresholds(r int, prefixes map[tuple.Value]struct{}, runs [][]stream.PipelineProfile) Thresholds {
	var th [2]*uint64
	for s, p := range sides(AugmentQuery(qt.Query, qt.Key, LevelStar, r, Thresholds{})) {
		thCol, keyCol := thresholdColumn(p), keyColumnOf(p, qt.Key.Field)
		if thCol < 0 || keyCol < 0 {
			continue
		}
		for _, run := range runs[s] {
			for _, row := range run.Outputs {
				if _, ok := prefixes[query.MaskValue(qt.Key.Field, row[keyCol], r)]; !ok {
					continue
				}
				if v := row[thCol].U; th[s] == nil || v < *th[s] {
					th[s] = &v
				}
			}
		}
	}
	return Thresholds{Left: th[0], Right: th[1]}
}

// satisfying is level r's satisfying-key set: the union over windows of the
// keys its closed runs hand down (HandDown).
func (t *trainer) satisfying(key fields.ID, r int, aug *query.Query, runs [][]stream.PipelineProfile) map[tuple.Value]struct{} {
	set := make(map[tuple.Value]struct{})
	var out [2]KeyedRows // per side
	for w := range runs[0] {
		for s, p := range sides(aug) {
			out[s] = KeyedRows{runs[s][w].Outputs, keyColumnOf(p, key)}
		}
		t.keys = HandDown(t.keys[:0], t.seen, key, r, out[:len(runs)]...)
		for _, k := range t.keys {
			set[k] = struct{}{}
		}
	}
	return set
}

// edge is the cost profile of an edge from its runs, [side][window].
func (t *trainer) edge(prev, level int, aug *query.Query, runs [][]stream.PipelineProfile) *EdgeProfile {
	e := &EdgeProfile{Prev: prev, Level: level, Left: t.sideCost(aug.Left.Ops, runs[0])}
	if aug.HasJoin() {
		e.Right = t.sideCost(aug.Right.Ops, runs[1])
	}
	return e
}

// sideCost is one side's cost from its run per window: the medians across
// windows of N for every cut, each stateful table's key count, and the
// op-level work.
func (t *trainer) sideCost(ops []query.Op, runs []stream.PipelineProfile) *SideCost {
	pipe := compile.CompilePipeline(ops)
	cuts := pipe.ValidPartitionPoints()
	sc := &SideCost{Pipe: pipe, Cuts: cuts, NAtCut: make([]uint64, len(cuts)), KeysAt: make(map[int]uint64)}
	perWindow := make([]uint64, len(runs))
	median := func(of func(run *stream.PipelineProfile, pkts uint64) uint64) uint64 {
		for w := range runs {
			perWindow[w] = of(&runs[w], uint64(len(t.batches[w].Pkts)))
		}
		return medianU64(perWindow)
	}
	for ci, cut := range cuts {
		sc.NAtCut[ci] = median(func(run *stream.PipelineProfile, pkts uint64) uint64 {
			if cut == 0 { // the whole window reaches the stream processor
				return pkts
			}
			return run.OutAfter[pipe.Tables[cut-1].LastOp()]
		})
	}
	for ti, tab := range pipe.Tables {
		if tab.Stateful {
			sc.KeysAt[ti] = median(func(run *stream.PipelineProfile, _ uint64) uint64 { return run.Keys[tab.OpIdx] })
		}
	}
	// Op-level work: op 0 sees the whole window, op j the records op j-1
	// emitted, each at its op's weight in the work model. With the gate
	// applied this captures filter selectivity exactly, which cut-level
	// counts cannot.
	sc.Work = median(func(run *stream.PipelineProfile, pkts uint64) uint64 {
		var work uint64
		for j := range ops {
			entering := pkts
			if j > 0 {
				entering = run.OutAfter[j-1]
			}
			work += entering * OpWork(&ops[j])
		}
		return work
	})
	return sc
}

// prefixSet masks a key set to a coarser level.
func prefixSet(key query.RefinementKey, keys map[tuple.Value]struct{}, level int) map[tuple.Value]struct{} {
	out := make(map[tuple.Value]struct{}, len(keys))
	for k := range keys {
		out[query.MaskValue(key.Field, k, level)] = struct{}{}
	}
	return out
}

func medianU64(xs []uint64) uint64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[len(s)/2]
}
