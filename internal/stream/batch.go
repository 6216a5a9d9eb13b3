package stream

// Columnar batched execution (DESIGN.md "Column execution"), the stream
// processor's one executor.
//
// Tuples entering a pipeline suffix — ingested, landed by a packet-phase
// map, or drained from a stateful op at window close — are buffered into a
// column-major batch (one tuple.Column per field, recycled across windows)
// instead of being walked through the op chain one at a time. A flush runs
// the whole batch through the chain with op dispatch amortized per batch,
// starting from the all-ones selection: the stateless ops are
// internal/query's column kernels — the code the switch walk runs before
// the partition point — so filters clear bits in the selection bitmap
// instead of early-returning per tuple and maps evaluate column-at-a-time
// into pooled columns; reduce/distinct resolve the batch's key columns in
// their keytab in one pass.
//
// The batch flushes wherever a tuple-at-a-time walk would otherwise see a
// different state: at capacity, when the next tuple enters at a different
// op, before an out-of-band mergeAgg, and at window close before and between
// stateful drains. Because every flush preserves the arrival order of its
// rows, keytab first-touch (insertion) order — and with it every flush
// order, count, and report — is bit-identical to the per-tuple interpreter
// the package's tests keep as its oracle (interp_ref_test.go).

import (
	"fmt"

	"repro/internal/keytab"
	"repro/internal/query"
	"repro/internal/tuple"
)

// batchCap bounds the rows buffered between flushes. It matches the
// runtime's fan-out batch (DefaultBatchSize): big enough to amortize
// dispatch, small enough to stay in cache.
const batchCap = 256

// colBatch is the reusable column-major tuple buffer of one pipeExec: n rows
// of batchCap buffered in cols, whose kinds are those of the tuples entering
// op entry (all rows of a batch share one entry point by construction).
type colBatch struct {
	entry int
	n     int
	cols  []tuple.Column
	pool  tuple.ColumnPool
}

// bufferTuple appends one tuple (entering at op index at) to the batch,
// flushing first if the batch holds rows for a different entry point, and
// after if the batch reaches capacity. Values are copied; vals may live in
// caller scratch.
func (e *pipeExec) bufferTuple(at int, vals []tuple.Value) {
	if at >= len(e.ops) {
		// Fell off the end before any op: the row is an output.
		e.outCounts[len(e.ops)]++
		e.outVals = append(e.outArena(), vals...)
		e.outOffs = append(e.outOffs, len(e.outVals))
		return
	}
	b := e.openBatch(at)
	for j := range b.cols {
		b.cols[j].Set(b.n, vals[j])
	}
	e.closeRows(1)
}

// openBatch readies the batch for more rows entering at op index at,
// flushing first if it holds rows for a different entry point. The caller
// fills rows from b.n on and then calls closeRows.
func (e *pipeExec) openBatch(at int) *colBatch {
	b := &e.batch
	if b.n > 0 && b.entry != at {
		e.flushBatch()
	}
	if b.n == 0 {
		b.entry = at
		b.pool.Reset(batchCap)
		b.cols = b.pool.Take(e.kinds[at])
	}
	return b
}

// closeRows counts the k rows just filled in and flushes a full batch.
func (e *pipeExec) closeRows(k int) {
	e.batch.n += k
	if e.batch.n >= batchCap {
		e.flushBatch()
	}
}

// bufferCols appends the selected rows of cols — tuples entering at op index
// at, in columns of the kinds bufferTuple would keep them in — to the batch,
// in ascending order and flushing exactly where bufferTuple row by row
// would.
func (e *pipeExec) bufferCols(at int, cols []tuple.Column, sel []uint64) {
	rows := tuple.SelRows(sel, e.landRows[:0])
	e.landRows = rows
	if at >= len(e.ops) {
		// The rows are outputs, not batch rows.
		e.outCounts[len(e.ops)] += uint64(len(rows))
		for _, r := range rows {
			e.outVals = tuple.AppendRow(e.outArena(), cols, int(r))
			e.outOffs = append(e.outOffs, len(e.outVals))
		}
		return
	}
	for len(rows) > 0 {
		b := e.openBatch(at)
		run := rows[:min(len(rows), batchCap-b.n)]
		for j := range b.cols {
			if dst := b.cols[j].V; dst != nil {
				for k, r := range run {
					dst[b.n+k] = cols[j].V[r]
				}
			} else {
				dst, src := b.cols[j].U, cols[j].U
				for k, r := range run {
					dst[b.n+k] = src[r]
				}
			}
		}
		rows = rows[len(run):]
		e.closeRows(len(run))
	}
}

// ingestPackets walks the selected packets of pkts through the packet-phase
// ops from index at, op by op instead of packet by packet: the kernels clear
// selection bits — reading the header fields pkts carries as columns — the
// per-op counters move by popcount, and the landing map evaluates the
// surviving packets into columns that bufferCols copies into the batch.
// Packets are taken in ascending order and the batch flushes at capacity as
// it does for bufferTuple, so the downstream keytabs see the first-touch
// order of per-packet ingest. sel is not modified.
func (e *pipeExec) ingestPackets(at int, pkts *query.PacketBatch, sel []uint64) {
	e.pktSel = append(e.pktSel[:0], sel...)
	sel = e.pktSel
	live := uint64(tuple.SelCount(sel))
	for i := at; i < len(e.ops) && live > 0; i++ {
		o := &e.ops[i]
		e.inCounts[i] += live
		switch {
		case !o.PacketPhase():
			panic(fmt.Sprintf("stream: op %d (%v) is tuple-phase but received a packet", i, o.Kind))
		case o.Kind == query.OpFilter:
			if o.DynFilterTable != "" {
				e.dyn.Set(o.DynFilterTable).FilterPackets(sel, pkts, o)
			} else {
				query.FilterPackets(sel, pkts, o.Clauses)
			}
			live = uint64(tuple.SelCount(sel))
			e.outCounts[i] += live
		case o.Kind == query.OpMap:
			e.land.Reset(len(pkts.Pkts))
			out := e.land.Take(e.kinds[i+1])
			query.MapPackets(sel, pkts, o.Cols, out)
			e.outCounts[i] += uint64(tuple.SelCount(sel))
			e.bufferCols(i+1, out, sel)
			return
		default:
			panic(fmt.Sprintf("stream: stateful op %v in packet phase", o.Kind))
		}
	}
	// Survivors ended the pipeline still in packet phase: their passage is
	// the pipeline's output count.
	e.outCounts[len(e.ops)] += live
}

// flushBatch runs the buffered rows through the op chain column-wise. A
// no-op on an empty batch.
func (e *pipeExec) flushBatch() {
	b := &e.batch
	n := b.n
	if n == 0 {
		return
	}
	e.flushes++
	e.flushRows += uint64(n)
	cols := b.cols
	e.sel = tuple.SelAll(e.sel, n)
	e.pool.Reset(n)
	live := n
	for i := b.entry; i < len(e.ops) && live > 0; i++ {
		o := &e.ops[i]
		e.inCounts[i] += uint64(live)
		switch o.Kind {
		case query.OpFilter:
			query.FilterCols(e.sel, cols, o.Clauses)
			live = tuple.SelCount(e.sel)
			e.outCounts[i] += uint64(live)
		case query.OpMap:
			// Maps run branch-free over all n rows, deselected ones
			// included: tuple-phase expressions are total, so stale rows
			// just compute values nobody reads.
			out := e.pool.Take(e.kinds[i+1])
			query.MapCols(cols, n, o.Cols, out)
			cols = out
			e.outCounts[i] += uint64(live)
		case query.OpReduce:
			e.reduceCols(o, e.states[i], cols)
			b.n = 0
			return
		case query.OpDistinct:
			e.distinctCols(o, e.states[i], cols)
			b.n = 0
			return
		}
	}
	if live > 0 {
		// Surviving rows fell off the end: gather each into an owned copy,
		// in row (arrival) order.
		e.outCounts[len(e.ops)] += uint64(live)
		e.bulkRows = tuple.SelRows(e.sel, e.bulkRows[:0])
		arena := e.outArena()
		for _, r := range e.bulkRows {
			arena = tuple.AppendRow(arena, cols, int(r))
			e.outOffs = append(e.outOffs, len(arena))
		}
		e.outVals = arena
	}
	b.n = 0
}

// upsertRows resolves the grouping keys of the batch's selected rows in st
// in one UpsertRows pass, inserting the new ones in row order; it returns
// the rows and each one's entry index.
func (e *pipeExec) upsertRows(o *query.Op, st *keytab.Table, cols []tuple.Column) (rows, idxs []int32) {
	rows = tuple.SelRows(e.sel, e.bulkRows[:0])
	e.bulkRows = rows
	if cap(e.bulkIdxs) < len(rows) {
		e.bulkIdxs = make([]int32, len(rows))
	}
	idxs = e.bulkIdxs[:len(rows)]
	st.UpsertRows(cols, o.KeyCols, rows, idxs)
	return rows, idxs
}

// reduceCols folds the batch's selected rows into a reduce op's keytab:
// after upsertRows, a key's first row sets its aggregate and every later row
// folds into it. Insertion order equals first-touch row order and the
// aggregation functions are commutative and associative, so the resulting
// state is bit-identical to a per-tuple GetOrInsert.
func (e *pipeExec) reduceCols(o *query.Op, st *keytab.Table, cols []tuple.Column) {
	first := st.Len() // the entry index the next new key gets
	rows, idxs := e.upsertRows(o, st, cols)
	valCol := &cols[o.ValCol]
	for k, idx := range idxs {
		v := valCol.At(int(rows[k])).U
		if int(idx) == first {
			first++
		} else {
			v = o.Func.Apply(st.Agg(int(idx)), v)
		}
		st.SetAgg(int(idx), v)
	}
}

// distinctCols inserts the batch's selected rows into a distinct op's
// keytab; hits are ignored.
func (e *pipeExec) distinctCols(o *query.Op, st *keytab.Table, cols []tuple.Column) {
	e.upsertRows(o, st, cols)
}
