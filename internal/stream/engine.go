package stream

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/keytab"
	"repro/internal/query"
	"repro/internal/tuple"
)

// Side distinguishes the two pipelines of a join query.
type Side uint8

const (
	// SideLeft is the main pipeline.
	SideLeft Side = iota
	// SideRight is the joined sub-query.
	SideRight
)

// Partition records where the planner cut each pipeline: ops with index
// below the start ran on the switch; the stream processor resumes there.
type Partition struct {
	LeftStart  int
	RightStart int
}

// Result is one query's output for one window at one refinement level.
type Result struct {
	QID    uint16
	Level  uint8
	Schema tuple.Schema
	Tuples [][]tuple.Value
	// LeftOutputs / RightOutputs are the sub-pipeline outputs of a join
	// query before the join (nil for non-join queries). Dynamic refinement
	// gates on these: the paper's case study identifies the victim from the
	// telnet-volume sub-query before the payload condition ever fires.
	LeftOutputs  [][]tuple.Value
	RightOutputs [][]tuple.Value
	LeftSchema   tuple.Schema
	RightSchema  tuple.Schema
}

// QueryKey identifies one installed (query, refinement level) instance.
type QueryKey struct {
	QID   uint16
	Level uint8
}

// Metrics counts the load placed on the stream processor, the paper's
// headline comparison metric.
type Metrics struct {
	// TuplesIn is the number of tuples (or mirrored packets) the stream
	// processor ingested this window.
	TuplesIn uint64
	// Flushes and FlushRows count the batched executor's column-batch
	// flushes and the tuples they carried.
	Flushes   uint64
	FlushRows uint64
	// Instances breaks the window down per installed instance, in
	// installation order.
	Instances []InstanceStats
}

// InstanceStats is one installed instance's share of a window at the stream
// processor.
type InstanceStats struct {
	Key QueryKey
	// TuplesIn is the instance's share of Metrics.TuplesIn, WireBytes the
	// encoded monitoring-port volume its records arrived as (AddWireBytes).
	TuplesIn  uint64
	WireBytes uint64
	// Results, EvalStart and Eval are the window close: result tuples, and
	// when the evaluation started and how long it took.
	Results   uint64
	EvalStart time.Time
	Eval      time.Duration
	// OpIn and OpOut count the tuples entering and leaving each op at the
	// stream processor, indexed over the left ops, then the right ones, then
	// the post-join ones.
	OpIn  []uint64
	OpOut []uint64
}

// Instance is the executable state of one installed (query, level)
// instance. Engine.Instance hands it out as a handle, so a caller delivering
// many records to one instance — the emitter, a mirror batch at a time —
// resolves it once and ingests without further lookups.
type Instance struct {
	eng  *Engine
	q    *query.Query
	key  QueryKey
	part Partition
	// tuplesIn and wireBytes are the instance's window so far; EndWindow
	// hands them over in Metrics.Instances.
	tuplesIn  uint64
	wireBytes uint64

	left  *pipeExec
	right *pipeExec // nil without join
	post  *pipeExec // nil without join

	// A packet-phase left side (packetLeftOps) ends in a landing map: each
	// landed row is the join keys followed by the post-map tuple, which post
	// resumes with at op resume — the row from column valsFrom on (zero when
	// post has no map and the keys are that tuple).
	packetLeft  bool
	resume      int
	valsFrom    int
	joinKeyIdxL []int // join key columns in left output schema (tuple-left)
	rightKeyIdx []int // join key columns in right output schema
	// nonKeyL and nonKeyR are the other columns of each side's output schema
	// (tuple-left): the joined tuple is keys, nonKeyL, nonKeyR.
	nonKeyL, nonKeyR []int
	// schema is the query's FinalSchema, resolved once.
	schema tuple.Schema

	// The window close's join state, reused window after window. rightIdx
	// indexes the right side's outputs by their join-key columns, with the
	// output's row index as the entry's aggregate. joinRow is the joined row
	// handed to post (which copies what it keeps), zeroRight the left-outer
	// stand-in for an absent right output.
	rightIdx  *keytab.Table
	joinRow   []tuple.Value
	zeroRight []tuple.Value
}

// Engine hosts the installed query instances and processes one window at a
// time. It is not safe for concurrent use; the runtime serializes access
// (ingest happens on the emitter path, EndWindow on the window boundary).
type Engine struct {
	dyn     *DynTables
	queries map[QueryKey]*Instance
	order   []QueryKey
	// tuplesIn is the window's Metrics.TuplesIn so far.
	tuplesIn uint64
	// readsDNS is whether some installed instance reads a DNS field
	// (query.ReadsDNS), recomputed at Install.
	readsDNS bool
	// results and stats (parallel to order) are EndWindow's return values,
	// reused window after window.
	results []Result
	stats   []InstanceStats
}

// NewEngine returns an engine sharing the given dynamic filter tables with
// the runtime.
func NewEngine(dyn *DynTables) *Engine {
	if dyn == nil {
		dyn = NewDynTables()
	}
	return &Engine{dyn: dyn, queries: make(map[QueryKey]*Instance)}
}

// ReadsDNS reports whether some installed instance reads a field of the DNS
// layer, the only reason to deep-decode the packets delivered to the engine.
func (e *Engine) ReadsDNS() bool { return e.readsDNS }

// Dyn exposes the dynamic filter tables (the runtime installs refinement
// outputs through it).
func (e *Engine) Dyn() *DynTables { return e.dyn }

// Install registers a query instance at the given refinement level with the
// given partition. Installing the same (QID, Level) twice replaces the
// previous instance. Both pipelines must be ones the executor can run
// (query.CheckOps): building the executors reads each keyed op's key
// columns, and a query decoded from bytes guarantees nothing about them.
func (e *Engine) Install(q *query.Query, level uint8, part Partition) error {
	if err := query.Validate(q); err != nil {
		return err
	}
	if err := query.CheckOps(q.Left.Ops); err != nil {
		return fmt.Errorf("stream: q%d left: %w", q.ID, err)
	}
	if q.HasJoin() {
		if err := query.CheckOps(q.Right.Ops); err != nil {
			return fmt.Errorf("stream: q%d right: %w", q.ID, err)
		}
	}
	if part.LeftStart < 0 || part.LeftStart > len(q.Left.Ops) {
		return fmt.Errorf("stream: left partition %d out of range", part.LeftStart)
	}
	rq := &Instance{
		eng: e, q: q, key: QueryKey{q.ID, level}, part: part, schema: q.FinalSchema(),
		left: newPipeExec(q.Left.Ops, part.LeftStart, e.dyn, nil),
	}
	if q.HasJoin() {
		if part.RightStart < 0 || part.RightStart > len(q.Right.Ops) {
			return fmt.Errorf("stream: right partition %d out of range", part.RightStart)
		}
		rq.right = newPipeExec(q.Right.Ops, part.RightStart, e.dyn, nil)
		rs, rk := q.Right.OutSchema(), rq.right.kinds[len(q.Right.Ops)]
		rq.zeroRight = make([]tuple.Value, len(rs))
		for _, k := range q.JoinKeys {
			rq.rightKeyIdx = append(rq.rightKeyIdx, rs.Index(k))
		}
		rq.rightIdx = keytab.New(keyKinds(rk, rq.rightKeyIdx))
		if ls := q.Left.OutSchema(); ls != nil {
			for _, k := range q.JoinKeys {
				rq.joinKeyIdxL = append(rq.joinKeyIdxL, ls.Index(k))
			}
			rq.nonKeyL = nonKeyCols(ls, rq.joinKeyIdxL)
			rq.nonKeyR = nonKeyCols(rs, rq.rightKeyIdx)
			// The joined tuple: join keys, the left side's other columns, the
			// right side's.
			lk := rq.left.kinds[len(q.Left.Ops)]
			var joined []bool
			for _, i := range rq.joinKeyIdxL {
				joined = append(joined, lk[i])
			}
			for _, i := range rq.nonKeyL {
				joined = append(joined, lk[i])
			}
			for _, i := range rq.nonKeyR {
				joined = append(joined, rk[i])
			}
			rq.post = newPipeExec(q.Post.Ops, 0, e.dyn, joined)
		} else {
			ops, err := rq.packetLeftOps()
			if err != nil {
				return err
			}
			rq.packetLeft = true
			rq.left = newPipeExec(ops, part.LeftStart, e.dyn, nil)
			rq.post = newPipeExec(q.Post.Ops, 0, e.dyn, nil)
		}
	}
	st := InstanceStats{Key: rq.key, OpIn: make([]uint64, q.NumOps()), OpOut: make([]uint64, q.NumOps())}
	if i := slices.Index(e.order, rq.key); i >= 0 {
		e.stats[i] = st
	} else {
		e.order = append(e.order, rq.key)
		e.stats = append(e.stats, st)
	}
	e.queries[rq.key] = rq
	e.readsDNS = false
	for _, key := range e.order {
		e.readsDNS = e.readsDNS || query.ReadsDNS(e.queries[key].q)
	}
	return nil
}

// Instance resolves an installed instance, nil when (qid, level) is not
// installed — which a caller facing decoded bytes must check.
func (e *Engine) Instance(qid uint16, level uint8) *Instance {
	return e.queries[QueryKey{qid, level}]
}

// count books n tuples (or mirrored packets) delivered to rq.
func (e *Engine) count(rq *Instance, n uint64) {
	e.tuplesIn += n
	rq.tuplesIn += n
}

// AddWireBytes books n encoded monitoring-port bytes to the instance — the
// emitter's count of what its records took on the wire. A no-op on a nil
// instance, so a record naming no installed instance still needs no check.
func (rq *Instance) AddWireBytes(n uint64) {
	if rq != nil {
		rq.wireBytes += n
	}
}

// HasSide reports whether records of the given side have a pipeline to
// enter: every installed instance has a left one, join instances a right
// one. False on a nil instance.
func (rq *Instance) HasSide(side Side) bool {
	return rq != nil && (side == SideLeft || side == SideRight && rq.right != nil)
}

// packetLeftOps sets up the semi-join of a packet-phase left side and
// returns the ops its packets walk: the left ops, then post's packet-phase
// filters, which commute with the semi-join, then a landing map of one
// column per join key followed by post's map columns, if post has a map.
func (rq *Instance) packetLeftOps() ([]query.Op, error) {
	q := rq.q
	ops := slices.Clone(q.Left.Ops)
	var land []query.Column
	for _, k := range q.JoinKeys {
		land = append(land, query.F(k))
	}
	rq.resume = len(q.Post.Ops)
	for i := range q.Post.Ops {
		o := &q.Post.Ops[i]
		if o.Kind == query.OpMap {
			land = append(land, o.Cols...)
			rq.resume, rq.valsFrom = i+1, len(q.JoinKeys)
			break
		}
		if !o.PacketPhase() || o.Kind != query.OpFilter {
			return nil, fmt.Errorf("stream: unsupported post-join op %v before map", o.Kind)
		}
		ops = append(ops, *o)
	}
	ops = append(ops, query.NewPacketMap(land))
	if err := query.CheckOps(ops); err != nil {
		return nil, fmt.Errorf("stream: q%d left and post: %w", q.ID, err)
	}
	return ops, nil
}

// entry returns the executor records of the given side enter and the op index
// they enter at: the installed partition point. The caller has established
// HasSide.
func (rq *Instance) entry(side Side) (*pipeExec, int) {
	if side == SideRight {
		if rq.right == nil {
			panic(fmt.Sprintf("stream: q%d has no right pipeline", rq.key.QID))
		}
		return rq.right, rq.part.RightStart
	}
	return rq.left, rq.part.LeftStart
}

// TakesPackets reports whether the given side's pipeline is entered by
// packets — its partition point is still in packet phase — rather than by
// tuples. The caller has established HasSide.
func (rq *Instance) TakesPackets(side Side) bool {
	ex, at := rq.entry(side)
	return ex.takesPackets(at)
}

// IngestPackets delivers the selected packets of pkts — sel is an
// index-aligned selection bitmap, read-only — in ascending order to the
// given side's pipeline at its partition point, with the load counters
// advanced once. Nothing aliases the packets or their field columns past the
// call. The caller has established HasSide and TakesPackets.
func (rq *Instance) IngestPackets(side Side, pkts *query.PacketBatch, sel []uint64) {
	n := tuple.SelCount(sel)
	if n == 0 {
		return
	}
	rq.eng.count(rq, uint64(n))
	ex, at := rq.entry(side)
	ex.ingestPackets(at, pkts, sel)
}

// IngestTuple delivers a tuple entering at the installed partition point of
// the given side. It reports false, ingesting and counting nothing, when no
// tuple of that width can enter there — which a caller facing decoded bytes
// must treat as a malformed record. The caller has established HasSide.
func (rq *Instance) IngestTuple(side Side, vals []tuple.Value) bool {
	ex, at := rq.entry(side)
	if !ex.takesTuple(at, vals) {
		return false
	}
	rq.eng.count(rq, 1)
	ex.bufferTuple(at, vals)
	return true
}

// IngestTupleAt delivers a tuple entering at an explicit op index — the
// collision-overflow path, where the switch shunts the stateful operator's
// input tuple and the stream processor runs the operator itself. Like
// IngestTuple it reports false when opIdx is not a stateful operator of that
// side or vals is not a tuple it takes.
func (rq *Instance) IngestTupleAt(side Side, opIdx int, vals []tuple.Value) bool {
	ex, _ := rq.entry(side)
	if !ex.stateful(opIdx) || !ex.takesTuple(opIdx, vals) {
		return false
	}
	rq.eng.count(rq, 1)
	ex.bufferTuple(opIdx, vals)
	return true
}

// IngestAgg merges a pre-aggregated (key, value) record — a register dump
// from the switch — into the stateful operator at index opIdx of the given
// side, combining with any overflow packets the stream processor absorbed
// itself during the window. Like IngestTupleAt it reports false, merging and
// counting nothing, when the side is absent (or the instance nil), opIdx is
// not a stateful operator of that side, or keyVals is not a grouping key of
// that operator in width and column kinds — which a caller facing decoded
// bytes must treat as a malformed dump.
func (rq *Instance) IngestAgg(side Side, opIdx int, keyVals []tuple.Value, agg uint64) bool {
	if !rq.HasSide(side) {
		return false
	}
	ex, _ := rq.entry(side)
	if !ex.takesKey(opIdx, keyVals) {
		return false
	}
	rq.eng.count(rq, 1)
	ex.mergeAgg(opIdx, keyVals, agg)
	return true
}

// EndWindow closes the current window: drains all stateful state, performs
// joins, runs post-join pipelines, and returns per-instance results plus
// the window's load metrics. Results are ordered by installation and tuples
// sorted for determinism. The returned slice, Metrics.Instances and every
// tuple slice the results hold belong to the engine and stay valid until the
// next EndWindow; a caller keeping them longer copies them. In steady state
// the close allocates nothing.
func (e *Engine) EndWindow() ([]Result, Metrics) {
	results := e.results[:0]
	m := Metrics{TuplesIn: e.tuplesIn, Instances: e.stats}
	e.tuplesIn = 0
	for i, key := range e.order {
		rq, st := e.queries[key], &e.stats[i]
		t0 := time.Now()
		res := Result{QID: key.QID, Level: key.Level, Schema: rq.schema}
		if rq.q.HasJoin() {
			rq.endJoin(&res)
		} else {
			res.Tuples = rq.left.endWindow()
		}
		sortTuples(res.Tuples)
		st.TuplesIn, st.WireBytes = rq.tuplesIn, rq.wireBytes
		st.Results, st.EvalStart, st.Eval = uint64(len(res.Tuples)), t0, time.Since(t0)
		rq.tuplesIn, rq.wireBytes = 0, 0
		rq.takeOpCounts(st)
		for _, ex := range []*pipeExec{rq.left, rq.right, rq.post} {
			if ex != nil {
				m.Flushes += ex.flushes
				m.FlushRows += ex.flushRows
				ex.flushes, ex.flushRows = 0, 0
			}
		}
		results = append(results, res)
	}
	e.results = results
	return results, m
}

// takeOpCounts moves each executor's per-op window counters into st under
// the stage indexing of InstanceStats (left ops, then right, then post) and
// resets them. A packet-phase left side needs a remap: its executor holds
// the left ops followed by post's packet-filter prefix, so indices past the
// left pipeline belong to the post segment, and its landing map is no op of
// the query's and goes unreported.
func (rq *Instance) takeOpCounts(st *InstanceStats) {
	clear(st.OpIn)
	clear(st.OpOut)
	nLeft, nRight := len(rq.q.Left.Ops), 0
	if rq.right != nil {
		nRight = len(rq.right.ops)
	}
	reported := len(rq.left.ops)
	if rq.packetLeft {
		reported--
	}
	for i := range reported {
		stage := i
		if i >= nLeft {
			stage += nRight
		}
		st.OpIn[stage] += rq.left.inCounts[i]
		st.OpOut[stage] += rq.left.outCounts[i]
	}
	rq.left.resetCounts()
	if rq.right != nil {
		st.addOps(rq.right, nLeft)
		st.addOps(rq.post, nLeft+nRight)
	}
}

// addOps adds ex's per-op counters to the stages from base on and resets
// them.
func (st *InstanceStats) addOps(ex *pipeExec, base int) {
	for i := range ex.ops {
		st.OpIn[base+i] += ex.inCounts[i]
		st.OpOut[base+i] += ex.outCounts[i]
	}
	ex.resetCounts()
}

// endJoin performs the window-end join and post pipeline for the instance,
// filling the result's final tuples and both sides' pre-join outputs. The
// right outputs are indexed by join key (the first of equal keys wins) and
// each left output — or landed packet-phase left row — probes the index.
func (rq *Instance) endJoin(res *Result) {
	rightOuts := rq.right.endWindow()
	idx := rq.rightIdx
	idx.Reset()
	for r, out := range rightOuts {
		idx.GetOrInsert(out, rq.rightKeyIdx, uint64(r))
	}
	res.RightOutputs = rightOuts
	res.RightSchema = rq.q.Right.OutSchema()

	if rq.packetLeft {
		// Semi-join the landed rows on their key columns; post resumes after
		// its map with the rest.
		w := len(rq.q.JoinKeys)
		for _, row := range rq.left.endWindow() {
			if _, ok := idx.Lookup(row[:w], nil); ok {
				rq.post.bufferTuple(rq.resume, row[rq.valsFrom:])
			}
		}
		res.Tuples = rq.post.endWindow()
		return
	}

	leftOuts := rq.left.endWindow()
	res.LeftOutputs = leftOuts
	res.LeftSchema = rq.q.Left.OutSchema()
	for _, lo := range leftOuts {
		ro := rq.zeroRight // left-outer: absent aggregates read as zero
		if i, ok := idx.Lookup(lo, rq.joinKeyIdxL); ok {
			ro = rightOuts[idx.Agg(i)]
		} else if !rq.q.JoinOuter {
			continue
		}
		row := rq.joinRow[:0]
		for _, i := range rq.joinKeyIdxL {
			row = append(row, lo[i])
		}
		for _, i := range rq.nonKeyL {
			row = append(row, lo[i])
		}
		for _, i := range rq.nonKeyR {
			row = append(row, ro[i])
		}
		rq.joinRow = row
		// post copies the row into its column batch.
		rq.post.bufferTuple(0, row)
	}
	res.Tuples = rq.post.endWindow()
}

func nonKeyCols(s tuple.Schema, keyIdx []int) []int {
	var out []int
	for i := range s {
		if !intsHave(keyIdx, i) {
			out = append(out, i)
		}
	}
	return out
}

func intsHave(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

func sortTuples(ts [][]tuple.Value) {
	slices.SortFunc(ts, compareTuples)
}

// compareTuples orders tuples column by column (tuple.Value.Compare), a
// prefix before its extensions.
func compareTuples(a, b []tuple.Value) int {
	return slices.CompareFunc(a, b, tuple.Value.Compare)
}
