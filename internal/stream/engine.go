package stream

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"repro/internal/keytab"
	"repro/internal/query"
	"repro/internal/tracez"
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
	// Results and Eval are the window close: result tuples and evaluation
	// time.
	Results uint64
	Eval    time.Duration
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

	// Packet-phase-left join support: prePacketOps run at ingest (left ops
	// plus post's packet-phase filters); postMap is post's first map.
	packetLeft  bool
	prePacket   *pipeExec
	postMapIdx  int     // index of the map within Post.Ops; -1 if none
	rows        []int32 // IngestPackets' selected rows
	joinKeyIdxL []int   // join key columns in left output schema (tuple-left)
	rightKeyIdx []int   // join key columns in right output schema
	// nonKeyL and nonKeyR are the other columns of each side's output schema
	// (tuple-left): the joined tuple is keys, nonKeyL, nonKeyR.
	nonKeyL, nonKeyR []int
	// schema is the query's FinalSchema, resolved once.
	schema tuple.Schema

	// The window close's join state, reused window after window. rightIdx
	// indexes the right side's outputs by encoded join key: an entry holds
	// the key bytes alone, with the output's row index as its aggregate.
	// joinKey is the probe scratch, joinRow the joined row handed to post
	// (which copies what it keeps), zeroRight the left-outer stand-in for an
	// absent right output.
	rightIdx  *keytab.Table
	joinKey   []byte
	joinRow   []tuple.Value
	zeroRight []tuple.Value
	// The packet-phase-left join's buffer, a flat arena reset at close: per
	// surviving packet, its encoded join key (pendKeys up to pendKeyEnd[i])
	// and the tuple post resumes with (pendVals up to pendValEnd[i]).
	pendKeys   []byte
	pendKeyEnd []uint32
	pendVals   []tuple.Value
	pendValEnd []uint32
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
	// tring is the span lane EndWindow records per-instance op_eval spans
	// into (nil when tracing is off). The runtime assigns each shard engine
	// its own lane and sets the lane's parent before the window close.
	tring *tracez.Ring
	// scalar forces the per-tuple interpreter on every executor; the default
	// (false) is the columnar batched path. The two are bit-identical — scalar
	// mode exists as the differential-testing oracle and an escape hatch.
	scalar bool
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
// previous instance.
func (e *Engine) Install(q *query.Query, level uint8, part Partition) error {
	if err := query.Validate(q); err != nil {
		return err
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
		rq.rightIdx = keytab.New()
		rs := q.Right.OutSchema()
		rq.zeroRight = make([]tuple.Value, len(rs))
		for _, k := range q.JoinKeys {
			rq.rightKeyIdx = append(rq.rightKeyIdx, rs.Index(k))
		}
		if ls := q.Left.OutSchema(); ls != nil {
			for _, k := range q.JoinKeys {
				rq.joinKeyIdxL = append(rq.joinKeyIdxL, ls.Index(k))
			}
			rq.nonKeyL = nonKeyCols(ls, rq.joinKeyIdxL)
			rq.nonKeyR = nonKeyCols(rs, rq.rightKeyIdx)
			// The joined tuple: join keys, the left side's other columns, the
			// right side's.
			lk, rk := rq.left.kinds[len(q.Left.Ops)], rq.right.kinds[len(q.Right.Ops)]
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
			rq.post = newPipeExec(q.Post.Ops, 0, e.dyn, nil)
			rq.packetLeft = true
			rq.postMapIdx = -1
			// Build the pre-packet executor: left ops plus post's
			// packet-phase filter prefix (they commute with the semi-join).
			pre := append([]query.Op(nil), q.Left.Ops...)
			for i := range q.Post.Ops {
				o := &q.Post.Ops[i]
				if o.Kind == query.OpMap {
					rq.postMapIdx = i
					break
				}
				if !o.PacketPhase() || o.Kind != query.OpFilter {
					return fmt.Errorf("stream: unsupported post-join op %v before map", o.Kind)
				}
				pre = append(pre, *o)
			}
			rq.prePacket = newPipeExec(pre, part.LeftStart, e.dyn, nil)
		}
	}
	rq.left.scalar = e.scalar
	if rq.right != nil {
		rq.right.scalar = e.scalar
		rq.post.scalar = e.scalar
	}
	if rq.prePacket != nil {
		rq.prePacket.scalar = e.scalar
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

// SetScalar switches every installed (and future) executor between the
// columnar batched path (false, the default) and the per-tuple scalar
// interpreter (true). Safe only between windows: switching with rows
// buffered would strand them.
func (e *Engine) SetScalar(v bool) {
	e.scalar = v
	for _, key := range e.order {
		rq := e.queries[key]
		rq.left.scalar = v
		if rq.right != nil {
			rq.right.scalar = v
			rq.post.scalar = v
		}
		if rq.prePacket != nil {
			rq.prePacket.scalar = v
		}
	}
}

// AttachTracez assigns the span lane EndWindow records op_eval spans into.
// A nil ring detaches (recording becomes a no-op).
func (e *Engine) AttachTracez(r *tracez.Ring) { e.tring = r }

// Instance resolves an installed instance, nil when (qid, level) is not
// installed — which a caller facing decoded bytes must check.
func (e *Engine) Instance(qid uint16, level uint8) *Instance {
	return e.queries[QueryKey{qid, level}]
}

// instance is Instance for callers that name instances themselves: an
// unknown one is their bug.
func (e *Engine) instance(qid uint16, level uint8) *Instance {
	rq := e.Instance(qid, level)
	if rq == nil {
		panic(fmt.Sprintf("stream: no query instance q%d/r%d installed", qid, level))
	}
	return rq
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

// entry returns the executor records of the given side enter and the op index
// they enter at: the installed partition point. The caller has established
// HasSide.
func (rq *Instance) entry(side Side) (*pipeExec, int) {
	switch {
	case side == SideRight:
		if rq.right == nil {
			panic(fmt.Sprintf("stream: q%d has no right pipeline", rq.key.QID))
		}
		return rq.right, rq.part.RightStart
	case rq.packetLeft:
		return rq.prePacket, rq.part.LeftStart
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
	if ex.scalar {
		// The per-packet reference.
		rq.rows = tuple.SelRows(sel, rq.rows[:0])
		for _, r := range rq.rows {
			if ex.ingestPacket(at, pkts.Pkts[r]) && ex == rq.prePacket {
				rq.bufferJoinLeft(pkts, int(r))
			}
		}
		return
	}
	passed := ex.ingestPackets(at, pkts, sel)
	if ex == rq.prePacket {
		// The join's survivors are buffered row by row.
		rq.rows = tuple.SelRows(passed, rq.rows[:0])
		for _, r := range rq.rows {
			rq.bufferJoinLeft(pkts, int(r))
		}
	}
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
	ex.feedTuple(at, vals)
	return true
}

// IngestTupleAt delivers a tuple entering at an explicit op index — the
// collision-overflow path, where the switch shunts the stateful operator's
// input tuple and the stream processor runs the operator itself. Like
// IngestTuple it reports false when opIdx is not a stateful operator of that
// side or vals is not a tuple it takes.
func (rq *Instance) IngestTupleAt(side Side, opIdx int, vals []tuple.Value) bool {
	ex, _ := rq.entry(side)
	if opIdx < 0 || opIdx >= len(ex.ops) || !ex.ops[opIdx].Stateful() || !ex.takesTuple(opIdx, vals) {
		return false
	}
	rq.eng.count(rq, 1)
	ex.feedTuple(opIdx, vals)
	return true
}

// bufferJoinLeft is the packet-phase-left join path past its filters (left
// ops plus post's packet filters, run by prePacket): append row r's encoded
// join key and its post-map tuple — each field read from the batch's column
// where it has one — to the buffer the right side's window output is joined
// with at close. A row lacking a field leaves nothing behind.
func (rq *Instance) bufferJoinLeft(pkts *query.PacketBatch, r int) {
	keys, vals := len(rq.pendKeys), len(rq.pendVals)
	mapped := rq.postMapIdx >= 0
	for _, f := range rq.q.JoinKeys {
		v, ok := pkts.FieldAt(f, r)
		if !ok {
			rq.pendKeys, rq.pendVals = rq.pendKeys[:keys], rq.pendVals[:vals]
			return
		}
		rq.pendKeys = tuple.AppendKeyValue(rq.pendKeys, v)
		if !mapped {
			rq.pendVals = append(rq.pendVals, v)
		}
	}
	if mapped {
		mapOp := &rq.q.Post.Ops[rq.postMapIdx]
		for j := range mapOp.Cols {
			v, ok := mapOp.Cols[j].Expr.EvalPacketAt(pkts, r)
			if !ok {
				rq.pendKeys, rq.pendVals = rq.pendKeys[:keys], rq.pendVals[:vals]
				return
			}
			rq.pendVals = append(rq.pendVals, v)
		}
	}
	rq.pendKeyEnd = append(rq.pendKeyEnd, uint32(len(rq.pendKeys)))
	rq.pendValEnd = append(rq.pendValEnd, uint32(len(rq.pendVals)))
}

// IngestAgg merges a pre-aggregated (key, value) record — a register dump
// from the switch — into the stateful operator at index opIdx of the given
// side, combining with any overflow packets the stream processor absorbed
// itself during the window.
func (e *Engine) IngestAgg(qid uint16, level uint8, side Side, opIdx int, keyVals []tuple.Value, agg uint64) {
	rq := e.instance(qid, level)
	e.count(rq, 1)
	ex, _ := rq.entry(side)
	ex.mergeAgg(opIdx, keyVals, agg)
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
		sp := e.tring.Start(tracez.NameOpEval)
		sp.Instance(key.QID, key.Level)
		res := Result{QID: key.QID, Level: key.Level, Schema: rq.schema}
		if rq.q.HasJoin() {
			rq.endJoin(&res)
		} else {
			res.Tuples = rq.left.endWindow()
		}
		sortTuples(res.Tuples)
		sp.Attr(tracez.AttrTuplesIn, rq.tuplesIn)
		sp.Attr(tracez.AttrResults, uint64(len(res.Tuples)))
		st.TuplesIn, st.WireBytes = rq.tuplesIn, rq.wireBytes
		st.Results, st.Eval = uint64(len(res.Tuples)), sp.End()
		rq.tuplesIn, rq.wireBytes = 0, 0
		rq.takeOpCounts(st)
		for _, ex := range []*pipeExec{rq.left, rq.right, rq.post, rq.prePacket} {
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
// resets them. The packet-phase-left path needs a remap: its pre-packet
// executor holds the left ops followed by post's packet-filter prefix, so
// indices past the left pipeline belong to the post segment.
func (rq *Instance) takeOpCounts(st *InstanceStats) {
	clear(st.OpIn)
	clear(st.OpOut)
	nLeft, nRight := len(rq.q.Left.Ops), 0
	if rq.right != nil {
		nRight = len(rq.right.ops)
	}
	left := rq.left
	if rq.packetLeft {
		left = rq.prePacket
	}
	for i := range left.ops {
		stage := i
		if i >= nLeft {
			stage += nRight
		}
		st.OpIn[stage] += left.inCounts[i]
		st.OpOut[stage] += left.outCounts[i]
	}
	left.resetCounts()
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
// each left output — or buffered packet-phase left tuple — probes the index.
func (rq *Instance) endJoin(res *Result) {
	rightOuts := rq.right.endWindow()
	idx := rq.rightIdx
	idx.Reset()
	for r, out := range rightOuts {
		rq.joinKey = tuple.AppendKey(rq.joinKey[:0], out, rq.rightKeyIdx)
		idx.GetOrInsert(rq.joinKey, nil, nil, uint64(r))
	}
	res.RightOutputs = rightOuts
	res.RightSchema = rq.q.Right.OutSchema()

	if rq.packetLeft {
		// Semi-join the buffered packet-derived tuples, then resume the
		// post pipeline after its map.
		resume := rq.postMapIdx + 1
		if rq.postMapIdx < 0 {
			resume = len(rq.q.Post.Ops)
		}
		var key, val uint32
		for i, keyEnd := range rq.pendKeyEnd {
			valEnd := rq.pendValEnd[i]
			if _, ok := idx.Lookup(rq.pendKeys[key:keyEnd]); ok {
				rq.post.feedTuple(resume, rq.pendVals[val:valEnd])
			}
			key, val = keyEnd, valEnd
		}
		rq.pendKeys, rq.pendKeyEnd = rq.pendKeys[:0], rq.pendKeyEnd[:0]
		rq.pendVals, rq.pendValEnd = rq.pendVals[:0], rq.pendValEnd[:0]
		rq.prePacket.endWindow() // reset any state; outputs unused
		res.Tuples = rq.post.endWindow()
		return
	}

	leftOuts := rq.left.endWindow()
	res.LeftOutputs = leftOuts
	res.LeftSchema = rq.q.Left.OutSchema()
	for _, lo := range leftOuts {
		rq.joinKey = tuple.AppendKey(rq.joinKey[:0], lo, rq.joinKeyIdxL)
		ro := rq.zeroRight // left-outer: absent aggregates read as zero
		if i, ok := idx.Lookup(rq.joinKey); ok {
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
		// post copies what it keeps: bufferTuple copies the row into its
		// column batch, and the scalar interpreter's maps write per-op
		// scratch, its stateful ops and outputs copy into their arenas.
		rq.post.feedTuple(0, row)
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

// compareTuples orders tuples column by column (tuple.Value.Less), a prefix
// before its extensions.
func compareTuples(a, b []tuple.Value) int {
	for k := range min(len(a), len(b)) {
		if !a[k].Equal(b[k]) {
			if a[k].Less(b[k]) {
				return -1
			}
			return 1
		}
	}
	return cmp.Compare(len(a), len(b))
}
