package stream

// Columnar batched execution (DESIGN.md "batch/bitmap invariants").
//
// Tuples entering a pipeline suffix are buffered into a column-major batch
// (one []tuple.Value per field, recycled across windows) instead of being
// walked through the op chain one at a time. A flush runs the whole batch
// through the chain with op dispatch amortized per batch: filters clear bits
// in a selection bitmap instead of early-returning per tuple, maps evaluate
// column-at-a-time into preallocated ping-pong output columns, and
// reduce/distinct probe their keytab arena in a fused bulk loop.
//
// The batch flushes whenever per-tuple semantics could otherwise diverge
// from the scalar interpreter: at capacity, when the next tuple enters at a
// different op (or with a different width), before an out-of-band mergeAgg,
// and at window close before and between stateful drains. Because every
// flush preserves the arrival order of its rows, keytab first-touch
// (insertion) order — and with it every flush order, count, and report — is
// bit-identical to the per-tuple interpreter's.

import (
	"fmt"
	"math/bits"

	"repro/internal/keytab"
	"repro/internal/packet"
	"repro/internal/query"
	"repro/internal/tuple"
)

// batchCap bounds the rows buffered between flushes. It matches the
// runtime's fan-out batch (DefaultBatchSize): big enough to amortize
// dispatch, small enough to stay in cache.
const batchCap = 256

// colBatch is the reusable column-major tuple buffer of one pipeExec. Only
// the first width columns are in use; entry is the op index its rows enter
// at (all rows of a batch share one entry point by construction).
type colBatch struct {
	entry int
	width int
	n     int
	cols  [][]tuple.Value
}

func (b *colBatch) reset() {
	for j := range b.cols {
		b.cols[j] = b.cols[j][:0]
	}
	b.n = 0
}

// bufferTuple appends one tuple (entering at op index at) to the batch,
// flushing first if the batch holds rows for a different entry point or
// width, and after if the batch reaches capacity. Values are copied; vals
// may live in caller scratch.
func (e *pipeExec) bufferTuple(at int, vals []tuple.Value) {
	if at >= len(e.ops) {
		// Fell off the end before any op: identical to the scalar tail.
		e.outCounts[len(e.ops)]++
		e.outVals = append(e.outArena(), vals...)
		e.outOffs = append(e.outOffs, len(e.outVals))
		return
	}
	b := e.openBatch(at, len(vals))
	for j, v := range vals {
		b.cols[j] = append(b.cols[j], v)
	}
	e.closeRow()
}

// openBatch readies the batch for one more row of the given width entering
// at op index at, flushing first if it holds rows for a different entry
// point or width. The caller appends one value to each of the first width
// columns and then calls closeRow.
func (e *pipeExec) openBatch(at, width int) *colBatch {
	b := &e.batch
	if b.n > 0 && (b.entry != at || b.width != width) {
		e.flushBatch()
	}
	if b.n == 0 {
		b.entry, b.width = at, width
		for len(b.cols) < width {
			b.cols = append(b.cols, nil)
		}
	}
	return b
}

// closeRow counts the row just appended and flushes a full batch.
func (e *pipeExec) closeRow() {
	e.batch.n++
	if e.batch.n >= batchCap {
		e.flushBatch()
	}
}

// bufferReduceRow buffers a drained reduce entry — its key columns plus the
// aggregate as the trailing column — entering at op index at. It is the
// batched form of the scalar drain's append(kv..., agg) row build, without
// the per-row allocation.
func (e *pipeExec) bufferReduceRow(at int, kv []tuple.Value, agg uint64) {
	if at >= len(e.ops) {
		e.outCounts[len(e.ops)]++
		arena := append(e.outArena(), kv...)
		e.outVals = append(arena, tuple.U64(agg))
		e.outOffs = append(e.outOffs, len(e.outVals))
		return
	}
	b := e.openBatch(at, len(kv)+1)
	for j, v := range kv {
		b.cols[j] = append(b.cols[j], v)
	}
	b.cols[len(kv)] = append(b.cols[len(kv)], tuple.U64(agg))
	e.closeRow()
}

// ingestPackets is ingestPacket over the selected packets of pkts, op by op
// instead of packet by packet: filters clear selection bits, the per-op
// counters move by popcount, and the landing map evaluates each surviving
// packet straight into the batch's columns. Packets are taken in ascending
// order and the batch flushes at capacity as it does for bufferTuple, so
// the downstream keytabs see the first-touch order of per-packet ingest.
// sel is not modified. It returns the selection of the packets that passed
// every op and ended the pipeline still packets (none once a map has landed
// them), valid until the next call.
func (e *pipeExec) ingestPackets(at int, pkts []packet.Packet, sel []uint64) []uint64 {
	e.pktSel = append(e.pktSel[:0], sel...)
	sel = e.pktSel
	if e.scalar {
		for w, word := range sel {
			for b := word; b != 0; b &= b - 1 {
				bit := bits.TrailingZeros64(b)
				if !e.ingestPacket(at, &pkts[w<<6|bit]) {
					sel[w] &^= 1 << uint(bit)
				}
			}
		}
		return sel
	}
	live := popcount(sel)
	for i := at; i < len(e.ops) && live > 0; i++ {
		o := &e.ops[i]
		e.inCounts[i] += live
		switch {
		case !o.PacketPhase():
			panic(fmt.Sprintf("stream: op %d (%v) is tuple-phase but received a packet", i, o.Kind))
		case o.Kind == query.OpFilter:
			e.filterPackets(o, pkts, sel)
			live = popcount(sel)
			e.outCounts[i] += live
		case o.Kind == query.OpMap:
			e.mapPackets(i, pkts, sel)
			clear(sel)
			return sel
		default:
			panic(fmt.Sprintf("stream: stateful op %v in packet phase", o.Kind))
		}
	}
	// Survivors ended the pipeline still in packet phase; record their
	// passage as ingestPacket does.
	e.outCounts[len(e.ops)] += live
	return sel
}

// filterPackets clears the selection bit of every packet a packet-phase
// filter rejects.
func (e *pipeExec) filterPackets(o *query.Op, pkts []packet.Packet, sel []uint64) {
	set := e.dynSet(o)
	for w, word := range sel {
		for b := word; b != 0; b &= b - 1 {
			bit := bits.TrailingZeros64(b)
			if !e.packetPasses(o, set, &pkts[w<<6|bit]) {
				sel[w] &^= 1 << uint(bit)
			}
		}
	}
}

// mapPackets is the landing map (op i) over the selected packets: each
// output expression evaluates into the column the tuple continues in, with
// no intermediate row. A packet lacking a required field leaves no row.
func (e *pipeExec) mapPackets(i int, pkts []packet.Packet, sel []uint64) {
	o := &e.ops[i]
	if i+1 >= len(e.ops) {
		// The map ends the pipeline: its rows are outputs, not batch rows.
		forEachSet(sel, func(r int) {
			if vals, ok := e.mapPacketRow(i, &pkts[r]); ok {
				e.outCounts[i]++
				e.bufferTuple(i+1, vals)
			}
		})
		return
	}
	for w, word := range sel {
		for rest := word; rest != 0; rest &= rest - 1 {
			pkt := &pkts[w<<6|bits.TrailingZeros64(rest)]
			b := e.openBatch(i+1, len(o.Cols))
			j := 0
			for ; j < len(o.Cols); j++ {
				v, ok := o.Cols[j].Expr.EvalPacket(pkt)
				if !ok {
					break
				}
				b.cols[j] = append(b.cols[j], v)
			}
			if j < len(o.Cols) {
				for j--; j >= 0; j-- { // take the partial row back
					b.cols[j] = b.cols[j][:b.n]
				}
				continue
			}
			e.outCounts[i]++
			e.closeRow()
		}
	}
}

func popcount(sel []uint64) uint64 {
	n := 0
	for _, w := range sel {
		n += bits.OnesCount64(w)
	}
	return uint64(n)
}

// forEachSet calls fn with the index of every set bit, ascending.
func forEachSet(sel []uint64, fn func(r int)) {
	for w, word := range sel {
		for b := word; b != 0; b &= b - 1 {
			fn(w<<6 | bits.TrailingZeros64(b))
		}
	}
}

// flushBatch runs the buffered rows through the op chain column-wise. A
// no-op on an empty batch (and therefore always in scalar mode, which never
// buffers).
func (e *pipeExec) flushBatch() {
	b := &e.batch
	n := b.n
	if n == 0 {
		return
	}
	e.flushes++
	e.flushRows += uint64(n)
	cols := b.cols[:b.width]
	width := b.width
	e.sel = selAll(e.sel, n)
	live := n
	for i := b.entry; i < len(e.ops) && live > 0; i++ {
		o := &e.ops[i]
		e.inCounts[i] += uint64(live)
		switch o.Kind {
		case query.OpFilter:
			if o.DynFilterTable != "" {
				live = e.dynFilterCols(o, cols, live)
			} else {
				for ci := range o.Clauses {
					cl := &o.Clauses[ci]
					live = filterColumn(e.sel, n, cols[cl.Col], cl)
					if live == 0 {
						break
					}
				}
			}
			e.outCounts[i] += uint64(live)
		case query.OpMap:
			// Maps run branch-free over all n rows, deselected ones
			// included: tuple-phase expressions are total, so stale rows
			// just compute values nobody reads.
			out := e.nextMapCols(len(o.Cols), n)
			for j := range o.Cols {
				o.Cols[j].Expr.EvalTupleCols(cols, n, out[j])
			}
			cols, width = out, len(o.Cols)
			e.outCounts[i] += uint64(live)
		case query.OpReduce:
			e.reduceCols(o, e.states[i], cols, n)
			b.reset()
			return
		case query.OpDistinct:
			e.distinctCols(o, e.states[i], cols, n)
			b.reset()
			return
		}
	}
	if live > 0 {
		// Surviving rows fell off the end: gather each into an owned copy,
		// in row (arrival) order, exactly as the scalar tail does.
		e.outCounts[len(e.ops)] += uint64(live)
		rows := selRows(e.sel, n, e.bulkRows)
		e.bulkRows = rows
		arena := e.outArena()
		for _, r := range rows {
			for j := 0; j < width; j++ {
				arena = append(arena, cols[j][r])
			}
			e.outOffs = append(e.outOffs, len(arena))
		}
		e.outVals = arena
	}
	b.reset()
}

// nextMapCols returns a column set (width w, n rows each) for a map op's
// output, alternating between two buffers so a map never writes the columns
// it is reading (its input is either the batch itself or the other buffer).
func (e *pipeExec) nextMapCols(w, n int) [][]tuple.Value {
	e.mapPing ^= 1
	buf := e.mapColBufs[e.mapPing]
	for len(buf) < w {
		buf = append(buf, nil)
	}
	for j := 0; j < w; j++ {
		if cap(buf[j]) < n {
			buf[j] = make([]tuple.Value, n)
		}
		buf[j] = buf[j][:n]
	}
	e.mapColBufs[e.mapPing] = buf
	return buf[:w]
}

// dynFilterCols applies a dynamic-refinement filter to the batch: the
// masked lookup keys of all selected rows are built into the bulk scratch
// and tested in one ContainsKeyBatch call, which loads the table snapshot
// once for the whole batch. Returns the surviving row count.
func (e *pipeExec) dynFilterCols(o *query.Op, cols [][]tuple.Value, live int) int {
	rows := selRows(e.sel, e.batch.n, e.bulkRows)
	keys := e.bulkKeys[:0]
	ends := e.bulkEnds[:0]
	for _, r := range rows {
		for _, c := range o.DynKeyCols {
			keys = tuple.AppendKeyValue(keys, query.MaskValue(o.DynKeyField, cols[c][r], o.DynLevel))
		}
		ends = append(ends, uint32(len(keys)))
	}
	e.bulkKeys, e.bulkEnds, e.bulkRows = keys, ends, rows
	return e.dyn.ContainsKeyBatch(o.DynFilterTable, keys, ends, rows, e.sel, live)
}

// reduceCols folds the batch's selected rows into a reduce op's keytab in a
// fused bulk loop: grouping keys are encoded back-to-back (AppendKeyCols),
// resolved in one LookupBulk pass, then hits fold and misses insert in row
// order. Insertion order equals first-touch row order and the aggregation
// functions are commutative and associative, so the resulting state is
// bit-identical to per-tuple GetOrInsert.
func (e *pipeExec) reduceCols(o *query.Op, st *keytab.Table, cols [][]tuple.Value, n int) {
	rows := selRows(e.sel, n, e.bulkRows)
	keys := e.bulkKeys[:0]
	ends := e.bulkEnds[:0]
	for _, r := range rows {
		keys = tuple.AppendKeyCols(keys, cols, o.KeyCols, int(r))
		ends = append(ends, uint32(len(keys)))
	}
	e.bulkKeys, e.bulkEnds, e.bulkRows = keys, ends, rows
	if cap(e.bulkIdxs) < len(ends) {
		e.bulkIdxs = make([]int32, len(ends))
	}
	idxs := e.bulkIdxs[:len(ends)]
	st.LookupBulk(keys, ends, idxs)
	valCol := cols[o.ValCol]
	start := uint32(0)
	for i, end := range ends {
		v := valCol[rows[i]].U
		if idx := int(idxs[i]); idx >= 0 {
			st.SetAgg(idx, o.Func.Apply(st.Agg(idx), v))
		} else {
			// Absent at lookup time — either genuinely new or first seen
			// earlier in this same batch; GetOrInsertCols re-probes and
			// handles both.
			idx, existed := st.GetOrInsertCols(keys[start:end], cols, o.KeyCols, int(rows[i]), v)
			if existed {
				st.SetAgg(idx, o.Func.Apply(st.Agg(idx), v))
			}
		}
		start = end
	}
}

// distinctCols inserts the batch's selected rows into a distinct op's
// keytab; like the scalar path, hits are ignored.
func (e *pipeExec) distinctCols(o *query.Op, st *keytab.Table, cols [][]tuple.Value, n int) {
	rows := selRows(e.sel, n, e.bulkRows)
	keys := e.bulkKeys[:0]
	ends := e.bulkEnds[:0]
	for _, r := range rows {
		keys = tuple.AppendKeyCols(keys, cols, o.KeyCols, int(r))
		ends = append(ends, uint32(len(keys)))
	}
	e.bulkKeys, e.bulkEnds, e.bulkRows = keys, ends, rows
	if cap(e.bulkIdxs) < len(ends) {
		e.bulkIdxs = make([]int32, len(ends))
	}
	idxs := e.bulkIdxs[:len(ends)]
	st.LookupBulk(keys, ends, idxs)
	start := uint32(0)
	for i, end := range ends {
		if idxs[i] < 0 {
			st.GetOrInsertCols(keys[start:end], cols, o.KeyCols, int(rows[i]), 1)
		}
		start = end
	}
}

// filterColumn tests one filter clause against a column, clearing the
// selection bit of every failing row, and returns the surviving count. Only
// rows still selected are tested (bitmap iteration skips cleared words).
func filterColumn(sel []uint64, n int, col []tuple.Value, cl *query.Clause) int {
	live := 0
	nw := (n + 63) >> 6
	for w := 0; w < nw; w++ {
		m := sel[w]
		for b := m; b != 0; b &= b - 1 {
			r := w<<6 | bits.TrailingZeros64(b)
			if cl.MatchValue(col[r]) {
				live++
			} else {
				m &^= 1 << uint(r&63)
			}
		}
		sel[w] = m
	}
	return live
}

// selAll returns sel resized for n rows with every bit [0, n) set.
func selAll(sel []uint64, n int) []uint64 {
	nw := (n + 63) >> 6
	if cap(sel) < nw {
		sel = make([]uint64, nw)
	}
	sel = sel[:nw]
	for w := range sel {
		sel[w] = ^uint64(0)
	}
	if r := n & 63; r != 0 {
		sel[nw-1] = (uint64(1) << uint(r)) - 1
	}
	return sel
}

// selRows collects the selected row indices in ascending order into the
// (reused) rows scratch.
func selRows(sel []uint64, n int, rows []int32) []int32 {
	rows = rows[:0]
	nw := (n + 63) >> 6
	for w := 0; w < nw; w++ {
		for b := sel[w]; b != 0; b &= b - 1 {
			rows = append(rows, int32(w<<6|bits.TrailingZeros64(b)))
		}
	}
	return rows
}

// ContainsKeyBatch tests a batch of encoded keys against table, clearing
// the selection bit of each row whose key is absent. keys holds the
// concatenated encodings, ends[i] the end offset of key i, rows[i] the
// selection row key i guards. The snapshot pointer is loaded once for the
// whole batch (ContainsKey loads it per call); like ContainsKey, the lookup
// itself allocates nothing. Returns the surviving count given live rows
// were selected on entry.
func (d *DynTables) ContainsKeyBatch(table string, keys []byte, ends []uint32, rows []int32, sel []uint64, live int) int {
	set := d.snap.Load().sets[table]
	start := uint32(0)
	for i, end := range ends {
		if _, ok := set[string(keys[start:end])]; !ok {
			r := rows[i]
			sel[r>>6] &^= 1 << uint(r&63)
			live--
		}
		start = end
	}
	return live
}
