package planner

// The reference trainer: the per-question implementation Train replaced,
// kept as the oracle TestTrainMatchesReference holds Train to. Every level,
// threshold observation and edge is its own run of a fresh Profiler over the
// whole window, with no field extracted, so each run re-reads every field
// from the packet. The functions from trainQuery down are the replaced code
// as it was; refTrain is its parse loop and feed stands in for the
// packet-slice Profiler.Feed, which went with it.

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

// refTrain is Train over the reference trainer.
func refTrain(queries []*query.Query, levels []int, windows []Frames) (*TrainingResult, error) {
	res := &TrainingResult{PerQuery: make(map[uint16]*QueryTraining)}
	parsed := make([][]packet.Packet, len(windows))
	counts := make([]uint64, len(windows))
	parser := packet.NewParser(packet.ParserOptions{DecodeDNS: slices.ContainsFunc(queries, query.ReadsDNS)})
	for w, frames := range windows {
		pkts := make([]packet.Packet, 0, len(frames))
		for _, f := range frames {
			var pkt packet.Packet
			if err := parser.Parse(f, &pkt); err == nil {
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

// feed pushes every packet of pkts into prof, no field extracted.
func feed(prof *stream.Profiler, pkts []packet.Packet) {
	b := query.PacketBatch{Pkts: make([]*packet.Packet, len(pkts))}
	for i := range pkts {
		b.Pkts[i] = &pkts[i]
	}
	prof.Feed(&b, tuple.SelAll(nil, len(pkts)))
}

func trainQuery(q *query.Query, menu []int, windows [][]packet.Packet) (*QueryTraining, error) {
	qt := &QueryTraining{Query: q, Th: make(map[int]Thresholds),
		Satisfy: make(map[int][]tuple.Value), Edges: make(map[[2]int]*EdgeProfile)}
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
	finestKeys := make(map[tuple.Value]struct{})
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
		set := make(map[tuple.Value]struct{})
		for _, pkts := range windows {
			lk, rk := satisfyingKeys(qt, r, qt.Th[r], nil, pkts)
			for k := range intersectKeys(lk, rk) {
				set[k] = struct{}{}
			}
		}
		keys := make([]tuple.Value, 0, len(set))
		for k := range set {
			keys = append(keys, k)
		}
		slices.SortFunc(keys, tuple.Value.Compare)
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
// refinement-key sets (masked to the level) passing each side's final
// filter. A nil set means "the side has no key column" (e.g. a packet-phase
// left pipeline) and should be ignored by the caller.
func satisfyingKeys(qt *QueryTraining, level int, th Thresholds, gate []tuple.Value, pkts []packet.Packet) (left, right map[tuple.Value]struct{}) {
	aug := AugmentQuery(qt.Query, qt.Key, LevelStar, level, th)
	left = runForKeys(qt, aug.Left, level, gate, pkts)
	if aug.HasJoin() {
		right = runForKeys(qt, aug.Right, level, gate, pkts)
	}
	return left, right
}

// runForKeys executes one pipeline over the window and collects the masked
// refinement keys of its outputs.
func runForKeys(qt *QueryTraining, p *query.Pipeline, level int, gate []tuple.Value, pkts []packet.Packet) map[tuple.Value]struct{} {
	col := keyColumnOf(p, qt.Key.Field)
	if col < 0 {
		return nil
	}
	prof := stream.NewProfiler(p.Ops, nil)
	if gate != nil {
		prof.Dyn().Publish(DynTableName(qt.Query.ID, level), query.NewDynSet(gate))
	}
	feed(prof, pkts)
	out := prof.EndWindow()
	set := make(map[tuple.Value]struct{}, len(out.Outputs))
	for _, t := range out.Outputs {
		set[query.MaskValue(qt.Key.Field, t[col], level)] = struct{}{}
	}
	return set
}

// observeThresholds runs both sides at a level with final filters disabled
// and returns the minimum aggregate observed over satisfying prefixes.
func observeThresholds(qt *QueryTraining, level int, prefixes map[tuple.Value]struct{}, pkts []packet.Packet) (left, right *uint64) {
	aug := AugmentQuery(qt.Query, qt.Key, LevelStar, level, Thresholds{})
	left = observeSide(qt, aug.Left, level, prefixes, pkts)
	if aug.HasJoin() {
		right = observeSide(qt, aug.Right, level, prefixes, pkts)
	}
	return left, right
}

func observeSide(qt *QueryTraining, p *query.Pipeline, level int, prefixes map[tuple.Value]struct{}, pkts []packet.Packet) *uint64 {
	thCol := thresholdColumn(p)
	keyCol := keyColumnOf(p, qt.Key.Field)
	if thCol < 0 || keyCol < 0 {
		return nil
	}
	open := disableFinalFilter(p)
	prof := stream.NewProfiler(open.Ops, nil)
	feed(prof, pkts)
	out := prof.EndWindow()
	var min *uint64
	for _, t := range out.Outputs {
		k := query.MaskValue(qt.Key.Field, t[keyCol], level)
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
func profileEdge(qt *QueryTraining, prev, level int, gate []tuple.Value, windows [][]packet.Packet) (*EdgeProfile, error) {
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

func profileSide(qt *QueryTraining, p *query.Pipeline, level int, gate []tuple.Value, windows [][]packet.Packet) (*SideCost, error) {
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
		feed(prof, pkts)
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

func minPtr(cur *uint64, v *uint64) *uint64 {
	if v == nil {
		return cur
	}
	if cur == nil || *v < *cur {
		return v
	}
	return cur
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

// intersectKeys intersects two optional key sets as HandDown does: a side
// without the key column (a nil set) or without rows this window (an empty
// one) has no say, and the other side's keys pass.
func intersectKeys(a, b map[tuple.Value]struct{}) map[tuple.Value]struct{} {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make(map[tuple.Value]struct{})
	for k := range a {
		if _, ok := b[k]; ok {
			out[k] = struct{}{}
		}
	}
	return out
}
