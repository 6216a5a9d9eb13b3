package planner

import (
	"fmt"
	"slices"

	"repro/internal/compile"
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
	// pipeline op, added up. It feeds the runtime's shard balancer through
	// InstancePlan.EstWork.
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
	// at level r, in dynamic-table encoding.
	Satisfy map[int][]string
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
// Each window is parsed and its header fields extracted once, into one batch
// every run reads; training is serial, and keeps nothing of the windows.
func Train(queries []*query.Query, levels []int, windows []Frames) (*TrainingResult, error) {
	if len(windows) == 0 {
		return nil, fmt.Errorf("planner: no training windows")
	}
	if len(queries) == 0 {
		return nil, fmt.Errorf("planner: no queries")
	}
	res := &TrainingResult{PerQuery: make(map[uint16]*QueryTraining)}
	t := &trainer{batches: make([]query.PacketBatch, len(windows)), all: make([][]uint64, len(windows)),
		prof: stream.NewProfiler(nil, nil)}
	counts := make([]uint64, len(windows))
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
	parser := packet.NewParser(packet.ParserOptions{DecodeDNS: slices.ContainsFunc(queries, query.ReadsDNS)})
	for w, frames := range windows {
		pkts := make([]packet.Packet, 0, len(frames))
		for _, f := range frames {
			var pkt packet.Packet
			if err := parser.Parse(f, &pkt); err == nil {
				// Deep-copy DNS scratch state, which the parser reuses.
				pkt.DNS = *cloneDNS(&pkt.DNS)
				pkts = append(pkts, pkt)
			}
		}
		for i := range pkts {
			t.batches[w].Pkts = append(t.batches[w].Pkts, &pkts[i])
		}
		t.all[w] = tuple.SelAll(nil, len(pkts))
		t.batches[w].Extract(set, t.all[w])
		counts[w] = uint64(len(frames))
	}
	res.WindowPackets = medianU64(counts)

	for _, q := range queries {
		res.PerQuery[q.ID] = t.learn(q, levels)
	}
	return res, nil
}

func cloneDNS(d *packet.DNS) *packet.DNS {
	c := *d
	c.Questions = append([]packet.DNSQuestion(nil), d.Questions...)
	c.Answers = append([]packet.DNSRecord(nil), d.Answers...)
	return &c
}

// trainer holds one Train call's windows — per window, a batch of its
// parsed packets with the queries' fields extracted, and the selection of
// all of them — and the profiler every run goes through, whose keyed-state
// tables carry over from run to run.
type trainer struct {
	batches []query.PacketBatch
	all     [][]uint64
	prof    *stream.Profiler
}

// learn trains one query. Each level gets one ungated run per side and
// window with its final threshold filter opened, the finest level first:
// its outputs are every key's aggregate. A coarser level's relaxed threshold
// is the least of them over prefixes of finest-level satisfying keys, and
// applying the level's trained filter to them afterwards (closeRun) gives
// its satisfying keys and its (*, r) edge. Then each coarser level prev
// gates the finer ones: its dynamic filter is evaluated once per window, and
// that selection starts every finer level's run on either side.
func (t *trainer) learn(q *query.Query, menu []int) *QueryTraining {
	qt := &QueryTraining{Query: q, Th: make(map[int]Thresholds),
		Satisfy: make(map[int][]string), Edges: make(map[[2]int]*EdgeProfile)}
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

	var finestKeys map[string]struct{}
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
			set := qt.satisfying(r, aug, runs)
			if r == finest {
				finestKeys = set
			}
			qt.Satisfy[r] = make([]string, 0, len(set))
			for k := range set {
				qt.Satisfy[r] = append(qt.Satisfy[r], k)
			}
			slices.Sort(qt.Satisfy[r])
		}
	}

	for i, prev := range coarse {
		admit, filter := query.NewDynSet(qt.Satisfy[prev]), query.NewDynPacketFilter("", key.Field, prev)
		gates := make([][]uint64, len(t.all))
		for w := range gates {
			gates[w] = slices.Clone(t.all[w])
			admit.FilterPackets(gates[w], &t.batches[w], &filter)
		}
		for _, r := range qt.Levels[i+1:] {
			aug := qt.AugmentedAt(prev, r)
			qt.Edges[[2]int{prev, r}] = t.edge(prev, r, aug, t.gatedRuns(aug, gates))
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
// Op 0 of a side is the dynamic filter whose selection over window w is
// gates[w]: the rest of the side runs over the gate's packets, and op 0 emits
// as many as it selects, so OutAfter and Keys are indexed by the side's ops.
func (t *trainer) gatedRuns(aug *query.Query, gates [][]uint64) [][]stream.PipelineProfile {
	runs := make([][]stream.PipelineProfile, len(sides(aug)))
	for s, p := range sides(aug) {
		for w, gate := range gates {
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
func (qt *QueryTraining) observeThresholds(r int, prefixes map[string]struct{}, runs [][]stream.PipelineProfile) Thresholds {
	var th [2]*uint64
	for s, p := range sides(AugmentQuery(qt.Query, qt.Key, LevelStar, r, Thresholds{})) {
		thCol, keyCol := thresholdColumn(p), keyColumnOf(p, qt.Key.Field)
		if thCol < 0 || keyCol < 0 {
			continue
		}
		for _, run := range runs[s] {
			for _, row := range run.Outputs {
				if _, ok := prefixes[stream.DynKeyFromValue(qt.Key.Field, row[keyCol], r)]; !ok {
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
// keys (dynamic-table encoding) that every side with a key column output
// from its closed run. A side without one, such as a packet-phase join
// side, has no say.
func (qt *QueryTraining) satisfying(r int, aug *query.Query, runs [][]stream.PipelineProfile) map[string]struct{} {
	set := make(map[string]struct{})
	for w := range runs[0] {
		seen, keyed := make(map[string]int), 0 // seen[k]: the keyed sides so far that output k
		for s, p := range sides(aug) {
			if col := keyColumnOf(p, qt.Key.Field); col >= 0 {
				keyed++
				for _, row := range runs[s][w].Outputs {
					if k := stream.DynKeyFromValue(qt.Key.Field, row[col], r); seen[k] == keyed-1 {
						seen[k] = keyed
					}
				}
			}
		}
		for k, n := range seen {
			if n == keyed {
				set[k] = struct{}{}
			}
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
	// emitted. With the gate applied this captures filter selectivity
	// exactly, which cut-level counts cannot. Stateful ops (reduce/distinct
	// key-value updates) cost several times a filter probe per record, so
	// they weigh more.
	sc.Work = median(func(run *stream.PipelineProfile, pkts uint64) uint64 {
		var work uint64
		for j := range ops {
			entering := pkts
			if j > 0 {
				entering = run.OutAfter[j-1]
			}
			if ops[j].Stateful() {
				entering *= 4
			}
			work += entering
		}
		return work
	})
	return sc
}

// prefixSet masks a key set to a coarser level. Keys are stored in dyn
// encoding, so they are decoded, re-masked, and re-encoded.
func prefixSet(key query.RefinementKey, keys map[string]struct{}, level int) map[string]struct{} {
	out := make(map[string]struct{}, len(keys))
	for k := range keys {
		vals, err := tuple.DecodeKey(k)
		if err != nil || len(vals) != 1 {
			continue
		}
		out[stream.DynKeyFromValue(key.Field, vals[0], level)] = struct{}{}
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
