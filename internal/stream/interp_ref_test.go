package stream

import (
	"fmt"
	"slices"

	"repro/internal/packet"
	"repro/internal/query"
	"repro/internal/tuple"
)

// The per-tuple interpreter: the stream executor's test oracle. It walks one
// packet or one tuple at a time through the op chain, with early returns
// where the batched executor clears selection bits and keytab GetOrInsert
// where it probes in bulk, and it closes a window by feeding each drained
// row, and each joined row, straight back through the chain. The
// differentials (TestBatchedMatchesScalarFuzz, TestJoinMatchesMapOracle,
// TestBatchedMatchesInterpreterFullPlan) run it beside the batched engine
// over identical input through the entry points below — the per-tuple
// counterparts of IngestPackets, IngestTuple, IngestTupleAt and EndWindow.
// They are methods of the package's own types, so the external tests of
// this package drive the oracle too. Register dumps share Instance.IngestAgg:
// on an engine the reference drives, the flush it starts with finds an empty
// batch.

// ingestPacket pushes a raw packet through packet-phase ops starting at op
// index at; when a map converts it to a tuple — each field read from the
// packet — the tuple continues through ingestTuple. It is the per-packet
// reference for ingestPackets.
func (e *pipeExec) ingestPacket(at int, pkt *packet.Packet) {
	for i := at; i < len(e.ops); i++ {
		e.inCounts[i]++
		o := &e.ops[i]
		switch {
		case !o.PacketPhase():
			panic(fmt.Sprintf("stream: op %d (%v) is tuple-phase but received a packet", i, o.Kind))
		case o.Kind == query.OpFilter && o.DynFilterTable != "":
			if !e.dyn.Set(o.DynFilterTable).MatchPacket(o, pkt) {
				return
			}
			e.outCounts[i]++
		case o.Kind == query.OpFilter:
			for j := range o.Clauses {
				if !o.Clauses[j].MatchPacket(pkt) {
					return
				}
			}
			e.outCounts[i]++
		case o.Kind == query.OpMap:
			// A packet lacking a required field leaves no row.
			vals := e.mapScratch(i, len(o.Cols))
			for j := range o.Cols {
				v, ok := o.Cols[j].Expr.EvalPacket(pkt)
				if !ok {
					return
				}
				vals[j] = v
			}
			e.outCounts[i]++
			e.ingestTuple(i+1, vals)
			return
		default:
			panic(fmt.Sprintf("stream: stateful op %v in packet phase", o.Kind))
		}
	}
	// Pipeline ended while still in packet phase: the result is the packet
	// itself; record its passage.
	e.outCounts[len(e.ops)]++
}

// ingestTuple pushes a tuple through ops starting at index at, stopping at
// the first stateful op (which absorbs it into window state).
func (e *pipeExec) ingestTuple(at int, vals []tuple.Value) {
	for i := at; i < len(e.ops); i++ {
		e.inCounts[i]++
		o := &e.ops[i]
		switch o.Kind {
		case query.OpFilter:
			for j := range o.Clauses {
				if !o.Clauses[j].MatchTuple(vals) {
					return
				}
			}
			e.outCounts[i]++
		case query.OpMap:
			// Per-op scratch instead of a per-tuple make: op i's buffer is
			// never the input of op i itself (walks visit each op once, with
			// strictly increasing indices), so reading vals while writing out
			// is alias-free, and everything downstream copies what it keeps.
			out := e.mapScratch(i, len(o.Cols))
			for j := range o.Cols {
				out[j] = o.Cols[j].Expr.EvalTuple(vals)
			}
			vals = out
			e.outCounts[i]++
		case query.OpReduce:
			st := e.states[i]
			idx, existed := st.GetOrInsert(vals, o.KeyCols, vals[o.ValCol].U)
			if existed {
				st.SetAgg(idx, o.Func.Apply(st.Agg(idx), vals[o.ValCol].U))
			}
			return
		case query.OpDistinct:
			st := e.states[i]
			st.GetOrInsert(vals, o.KeyCols, 1)
			return
		}
	}
	e.outCounts[len(e.ops)]++
	e.outVals = append(e.outArena(), vals...)
	e.outOffs = append(e.outOffs, len(e.outVals))
}

// endWindowRef is endWindow with the drain walked a row at a time: each
// stateful op's keys, in first-touch order, go through ingestTuple to the
// op after it before the op's state resets.
func (e *pipeExec) endWindowRef() [][]tuple.Value {
	if e.lastKeys == nil {
		e.lastKeys = make([]uint64, len(e.ops))
	}
	for i := range e.ops {
		st := e.states[i]
		if st == nil {
			continue
		}
		e.lastKeys[i] = uint64(st.Len())
		for k := range st.Len() {
			e.outCounts[i]++
			row := st.KeyVals(k)
			if e.ops[i].Kind == query.OpReduce {
				kv := row
				row = e.mapScratch(i, len(kv)+1)
				copy(row, kv)
				row[len(kv)] = tuple.U64(st.Agg(k))
			}
			e.ingestTuple(i+1, row)
		}
		st.Reset()
	}
	return e.sealOutputs()
}

// IngestPacketsRef is IngestPackets a packet at a time through ingestPacket.
func (rq *Instance) IngestPacketsRef(side Side, pkts *query.PacketBatch, sel []uint64) {
	rows := tuple.SelRows(sel, nil)
	if len(rows) == 0 {
		return
	}
	rq.eng.count(rq, uint64(len(rows)))
	ex, at := rq.entry(side)
	for _, r := range rows {
		ex.ingestPacket(at, pkts.Pkts[r])
	}
}

// IngestTupleRef is IngestTuple through ingestTuple.
func (rq *Instance) IngestTupleRef(side Side, vals []tuple.Value) bool {
	ex, at := rq.entry(side)
	if !ex.takesTuple(at, vals) {
		return false
	}
	rq.eng.count(rq, 1)
	ex.ingestTuple(at, vals)
	return true
}

// IngestTupleAtRef is IngestTupleAt through ingestTuple.
func (rq *Instance) IngestTupleAtRef(side Side, opIdx int, vals []tuple.Value) bool {
	ex, _ := rq.entry(side)
	if !ex.stateful(opIdx) || !ex.takesTuple(opIdx, vals) {
		return false
	}
	rq.eng.count(rq, 1)
	ex.ingestTuple(opIdx, vals)
	return true
}

// EndWindowRef is EndWindow over the per-tuple close: the same results, in
// the same order, and the same per-instance counts, with no span recorded
// (Eval is zero) and no batch flushed.
func (e *Engine) EndWindowRef() ([]Result, Metrics) {
	results := e.results[:0]
	m := Metrics{TuplesIn: e.tuplesIn, Instances: e.stats}
	e.tuplesIn = 0
	for i, key := range e.order {
		rq, st := e.queries[key], &e.stats[i]
		res := Result{QID: key.QID, Level: key.Level, Schema: rq.schema}
		if rq.q.HasJoin() {
			rq.endJoinRef(&res)
		} else {
			res.Tuples = rq.left.endWindowRef()
		}
		sortTuples(res.Tuples)
		st.TuplesIn, st.WireBytes = rq.tuplesIn, rq.wireBytes
		st.Results, st.Eval = uint64(len(res.Tuples)), 0
		rq.tuplesIn, rq.wireBytes = 0, 0
		rq.takeOpCounts(st)
		results = append(results, res)
	}
	e.results = results
	return results, m
}

// endJoinRef is endJoin with the right outputs indexed in a Go map (the
// first of equal keys wins) and every joined row — or, for a packet-phase
// left, the post-map tuple of every landed row whose keys a right output
// carries — fed to post through ingestTuple.
func (rq *Instance) endJoinRef(res *Result) {
	rightOuts := rq.right.endWindowRef()
	rightBy := make(map[string][]tuple.Value, len(rightOuts))
	for _, out := range rightOuts {
		if k := encodeKey(out, rq.rightKeyIdx); rightBy[k] == nil {
			rightBy[k] = out
		}
	}
	res.RightOutputs = rightOuts
	res.RightSchema = rq.q.Right.OutSchema()

	if rq.packetLeft {
		// Each landed row is the join keys, then the post-map tuple — the
		// keys themselves when post has no map.
		w := len(rq.q.JoinKeys)
		resume, vals := len(rq.q.Post.Ops), 0
		if m := slices.IndexFunc(rq.q.Post.Ops, func(o query.Op) bool { return o.Kind == query.OpMap }); m >= 0 {
			resume, vals = m+1, w
		}
		for _, row := range rq.left.endWindowRef() {
			if rightBy[encodeKey(row, allCols(w))] != nil {
				rq.post.ingestTuple(resume, row[vals:])
			}
		}
		res.Tuples = rq.post.endWindowRef()
		return
	}

	leftOuts := rq.left.endWindowRef()
	res.LeftOutputs = leftOuts
	res.LeftSchema = rq.q.Left.OutSchema()
	for _, lo := range leftOuts {
		ro, ok := rightBy[encodeKey(lo, rq.joinKeyIdxL)]
		if !ok {
			if !rq.q.JoinOuter {
				continue
			}
			ro = rq.zeroRight
		}
		var row []tuple.Value
		for _, i := range rq.joinKeyIdxL {
			row = append(row, lo[i])
		}
		for _, i := range rq.nonKeyL {
			row = append(row, lo[i])
		}
		for _, i := range rq.nonKeyR {
			row = append(row, ro[i])
		}
		rq.post.ingestTuple(0, row)
	}
	res.Tuples = rq.post.endWindowRef()
}
