package planner

import (
	"fmt"
	"slices"
	"sort"

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
	// NAtCut[i] is the tuples-per-window the stream processor would receive
	// if the pipeline were cut after ValidPartitionPoints()[i] tables.
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

// Train profiles the query set over the training windows and derives
// refinement levels, relaxed thresholds, satisfying-key sets, and edge
// costs. levels is the planner's level menu (coarse to fine, e.g.
// {8,16,24,32}); the finest level of each query's key is appended
// automatically when missing.
func Train(queries []*query.Query, levels []int, windows []Frames) (*TrainingResult, error) {
	if len(windows) == 0 {
		return nil, fmt.Errorf("planner: no training windows")
	}
	if len(queries) == 0 {
		return nil, fmt.Errorf("planner: no queries")
	}
	res := &TrainingResult{PerQuery: make(map[uint16]*QueryTraining)}

	// Parse every window once; packets retain their frames. DNS is
	// deep-decoded only when some query reads it.
	parsed := make([][]packet.Packet, len(windows))
	counts := make([]uint64, len(windows))
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
		parsed[w] = pkts
		counts[w] = uint64(len(frames))
	}
	res.WindowPackets = medianU64(counts)

	for _, q := range queries {
		qt, err := trainQuery(q, levels, parsed)
		if err != nil {
			return nil, fmt.Errorf("planner: training %q: %w", q.Name, err)
		}
		res.PerQuery[q.ID] = qt
	}
	return res, nil
}

func cloneDNS(d *packet.DNS) *packet.DNS {
	c := *d
	c.Questions = append([]packet.DNSQuestion(nil), d.Questions...)
	c.Answers = append([]packet.DNSRecord(nil), d.Answers...)
	return &c
}

func trainQuery(q *query.Query, menu []int, windows [][]packet.Packet) (*QueryTraining, error) {
	qt := &QueryTraining{Query: q, Th: make(map[int]Thresholds),
		Satisfy: make(map[int][]string), Edges: make(map[[2]int]*EdgeProfile)}
	key, ok := query.QueryRefinementKey(q)
	qt.Key, qt.Refinable = key, ok

	if !qt.Refinable {
		qt.Levels = []int{0}
		edge, err := profileEdge(qt, LevelStar, 0, nil, windows)
		if err != nil {
			return nil, err
		}
		qt.Edges[[2]int{LevelStar, 0}] = edge
		return qt, nil
	}

	// Build the level ladder: menu levels below the key's max, plus the
	// finest level itself.
	for _, l := range menu {
		if l > 0 && l < key.MaxLevel {
			qt.Levels = append(qt.Levels, l)
		}
	}
	qt.Levels = append(qt.Levels, key.MaxLevel)
	sort.Ints(qt.Levels)

	// Phase A: relaxed thresholds. The finest level keeps the original
	// thresholds; coarser levels relax to the minimum aggregate observed
	// (across windows) over prefixes of finest-satisfying keys.
	finest := key.MaxLevel
	qt.Th[finest] = Thresholds{}
	finestKeys := make(map[string]struct{})
	for _, pkts := range windows {
		lk, rk := satisfyingKeys(qt, finest, Thresholds{}, nil, pkts)
		for k := range intersectKeys(lk, rk) {
			finestKeys[k] = struct{}{}
		}
	}
	for _, r := range qt.Levels[:len(qt.Levels)-1] {
		prefixes := prefixSet(qt.Key, finestKeys, r)
		var thL, thR *uint64
		for _, pkts := range windows {
			l, rr := observeThresholds(qt, r, prefixes, pkts)
			thL = minPtr(thL, l)
			thR = minPtr(thR, rr)
		}
		qt.Th[r] = Thresholds{Left: thL, Right: thR}
	}

	// Phase B1: satisfying sets per level with trained thresholds.
	for _, r := range qt.Levels {
		set := make(map[string]struct{})
		for _, pkts := range windows {
			lk, rk := satisfyingKeys(qt, r, qt.Th[r], nil, pkts)
			for k := range intersectKeys(lk, rk) {
				set[k] = struct{}{}
			}
		}
		keys := make([]string, 0, len(set))
		for k := range set {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		qt.Satisfy[r] = keys
	}

	// Phase B2: edge costs. Edges run from * or any coarser level to every
	// finer level.
	for i, r := range qt.Levels {
		edge, err := profileEdge(qt, LevelStar, r, nil, windows)
		if err != nil {
			return nil, err
		}
		qt.Edges[[2]int{LevelStar, r}] = edge
		for j := 0; j < i; j++ {
			prev := qt.Levels[j]
			gate := qt.Satisfy[prev]
			edge, err := profileEdge(qt, prev, r, gate, windows)
			if err != nil {
				return nil, err
			}
			qt.Edges[[2]int{prev, r}] = edge
		}
	}
	return qt, nil
}

// satisfyingKeys runs both sides of the query at a level and returns the
// refinement-key sets (dyn-table encoding) passing each side's final
// filter. A nil set means "the side has no key column" (e.g. a packet-phase
// left pipeline) and should be ignored by the caller.
func satisfyingKeys(qt *QueryTraining, level int, th Thresholds, gate []string, pkts []packet.Packet) (left, right map[string]struct{}) {
	aug := AugmentQuery(qt.Query, qt.Key, LevelStar, level, th)
	left = runForKeys(qt, aug.Left, level, gate, pkts)
	if aug.HasJoin() {
		right = runForKeys(qt, aug.Right, level, gate, pkts)
	}
	return left, right
}

// runForKeys executes one pipeline over the window and collects the masked
// refinement keys of its outputs.
func runForKeys(qt *QueryTraining, p *query.Pipeline, level int, gate []string, pkts []packet.Packet) map[string]struct{} {
	col := keyColumnOf(p, qt.Key.Field)
	if col < 0 {
		return nil
	}
	prof := stream.NewProfiler(p.Ops, nil)
	if gate != nil {
		prof.Dyn().Publish(DynTableName(qt.Query.ID, level), query.NewDynSet(gate))
	}
	prof.Feed(pkts)
	out := prof.EndWindow()
	set := make(map[string]struct{}, len(out.Outputs))
	for _, t := range out.Outputs {
		set[stream.DynKeyFromValue(qt.Key.Field, t[col], level)] = struct{}{}
	}
	return set
}

// observeThresholds runs both sides at a level with final filters disabled
// and returns the minimum aggregate observed over satisfying prefixes.
func observeThresholds(qt *QueryTraining, level int, prefixes map[string]struct{}, pkts []packet.Packet) (left, right *uint64) {
	aug := AugmentQuery(qt.Query, qt.Key, LevelStar, level, Thresholds{})
	left = observeSide(qt, aug.Left, level, prefixes, pkts)
	if aug.HasJoin() {
		right = observeSide(qt, aug.Right, level, prefixes, pkts)
	}
	return left, right
}

func observeSide(qt *QueryTraining, p *query.Pipeline, level int, prefixes map[string]struct{}, pkts []packet.Packet) *uint64 {
	thCol := thresholdColumn(p)
	keyCol := keyColumnOf(p, qt.Key.Field)
	if thCol < 0 || keyCol < 0 {
		return nil
	}
	open := disableFinalFilter(p)
	prof := stream.NewProfiler(open.Ops, nil)
	prof.Feed(pkts)
	out := prof.EndWindow()
	var min *uint64
	for _, t := range out.Outputs {
		k := stream.DynKeyFromValue(qt.Key.Field, t[keyCol], level)
		if _, ok := prefixes[k]; !ok {
			continue
		}
		v := t[thCol].U
		if min == nil || v < *min {
			vv := v
			min = &vv
		}
	}
	return min
}

// profileEdge measures the per-cut N and per-table key counts for both
// sides of an edge, gated by the previous level's satisfying keys.
func profileEdge(qt *QueryTraining, prev, level int, gate []string, windows [][]packet.Packet) (*EdgeProfile, error) {
	var aug *query.Query
	if qt.Refinable {
		aug = AugmentQuery(qt.Query, qt.Key, prev, level, qt.Th[level])
	} else {
		aug = qt.Query.Clone()
	}
	edge := &EdgeProfile{Prev: prev, Level: level}
	var err error
	edge.Left, err = profileSide(qt, aug.Left, level, gate, windows)
	if err != nil {
		return nil, err
	}
	if aug.HasJoin() {
		edge.Right, err = profileSide(qt, aug.Right, level, gate, windows)
		if err != nil {
			return nil, err
		}
	}
	return edge, nil
}

func profileSide(qt *QueryTraining, p *query.Pipeline, level int, gate []string, windows [][]packet.Packet) (*SideCost, error) {
	pipe := compile.CompilePipeline(p.Ops)
	cuts := pipe.ValidPartitionPoints()
	perCut := make([][]uint64, len(cuts))
	keysPerTable := make(map[int][]uint64)
	var works []uint64

	for _, pkts := range windows {
		prof := stream.NewProfiler(p.Ops, nil)
		if gate != nil {
			prof.Dyn().Publish(DynTableName(qt.Query.ID, level), query.NewDynSet(gate))
		}
		prof.Feed(pkts)
		out := prof.EndWindow()
		for ci, cut := range cuts {
			perCut[ci] = append(perCut[ci], nForCut(&pipe, cut, &out, uint64(len(pkts))))
		}
		for ti := range pipe.Tables {
			if pipe.Tables[ti].Stateful {
				keysPerTable[ti] = append(keysPerTable[ti], out.Keys[pipe.Tables[ti].OpIdx])
			}
		}
		// Op-level work: op 0 sees the whole window, op j the records op
		// j-1 emitted. With the gate applied this captures filter
		// selectivity exactly, which cut-level counts cannot. Stateful ops
		// (reduce/distinct key-value updates) cost several times a filter
		// probe per record, so they weigh more.
		var work uint64
		for j := range p.Ops {
			entering := uint64(len(pkts))
			if j > 0 {
				entering = out.OutAfter[j-1]
			}
			if p.Ops[j].Stateful() {
				entering *= 4
			}
			work += entering
		}
		works = append(works, work)
	}

	sc := &SideCost{Pipe: pipe, NAtCut: make([]uint64, len(cuts)), KeysAt: make(map[int]uint64)}
	for ci := range cuts {
		sc.NAtCut[ci] = medianU64(perCut[ci])
	}
	for ti, ks := range keysPerTable {
		sc.KeysAt[ti] = medianU64(ks)
	}
	sc.Work = medianU64(works)
	return sc, nil
}

// nForCut maps a cut (table count) to the stream-processor tuple count: the
// whole window's packets for cut zero, otherwise the emission count of the
// last switch table's final op.
func nForCut(pipe *compile.Pipeline, cut int, prof *stream.PipelineProfile, windowPackets uint64) uint64 {
	if cut == 0 {
		return windowPackets
	}
	last := pipe.Tables[cut-1].LastOp()
	return prof.OutAfter[last]
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

// intersectKeys intersects two optional key sets: a nil set means "no
// signal from this side" and the other side wins.
func intersectKeys(a, b map[string]struct{}) map[string]struct{} {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := make(map[string]struct{})
	for k := range a {
		if _, ok := b[k]; ok {
			out[k] = struct{}{}
		}
	}
	return out
}

func minPtr(cur *uint64, v *uint64) *uint64 {
	if v == nil {
		return cur
	}
	if cur == nil || *v < *cur {
		return v
	}
	return cur
}

func medianU64(xs []uint64) uint64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]uint64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}
