package pisa

import (
	"math/bits"

	"repro/internal/compile"
	"repro/internal/fields"
	"repro/internal/query"
	"repro/internal/tuple"
)

// The batched walk runs one instance table-at-a-time over a batch of views.
// The frames still in the instance's pipeline are a selection bitmap over
// the batch, seeded with the runnable frames: a static packet-phase filter
// ANDs the prescreen's atom bitmaps into it, every other table clears the
// bits of the frames it rejects. Past the first map the batch's metadata
// tuples live column-major — one frame-indexed column per field — so a
// stateful table can hash every surviving key first and then probe its
// register bank in a tight frame-order loop. Each stage's flight-recorder
// entering count is the popcount of the selection entering it, whether or
// not a probe is attached. Collision shunts are set aside as they happen and
// handed to the sink together with the tail selection as one MirrorBatch per
// instance, whose frame order is the frame-at-a-time walk's mirror sequence;
// an instance with nothing to report makes no sink call.

// column is one field of the batch's metadata tuples, indexed by frame:
// numeric values in u, or string values in v — exactly one is non-nil.
type column struct {
	u []uint64
	v []tuple.Value
}

func (c *column) at(i int) tuple.Value {
	if c.v != nil {
		return c.v[i]
	}
	return tuple.U64(c.u[i])
}

func (c *column) set(i int, val tuple.Value) {
	if c.v != nil {
		c.v[i] = val
	} else {
		c.u[i] = val.U
	}
}

// exprIsStr reports whether a map expression yields strings, given which
// input columns do (nil in packet phase). A field's value kind is static, so
// a column's kind is too.
func exprIsStr(e *query.Expr, in []bool) bool {
	switch e.Kind {
	case query.ExprField:
		return fields.Lookup(e.Field).Kind == fields.Bytes
	case query.ExprCol:
		return in[e.Col]
	case query.ExprMask:
		return exprIsStr(e.Sub, in)
	}
	return false
}

// shuntRec remembers a collision shunt until the emit pass: the stateful op
// that overflowed and where in shuntVals the tuple it saw is kept.
type shuntRec struct {
	mergeOp  int
	off, end int
}

// walkScratch is the batched walk's working storage, owned by the switch
// and reused across instances and batches: it grows to the largest batch and
// the widest pipeline seen and then allocates nothing.
type walkScratch struct {
	n   int      // frames in the batch
	sel []uint64 // the instance's current selection
	// us and vs are the column buffers (n values each) and cols the tuple
	// headers handed out during one instance's walk; nu, nv and nc count the
	// ones in use. A buffer is never rewritten within a walk, so a table may
	// pass an input column through by aliasing it.
	us         [][]uint64
	vs         [][]tuple.Value
	cols       []column
	nu, nv, nc int
	rows       []int32 // selected frames entering a stateful table
	keys       keyCols // their hashed and packed keys
	row        []tuple.Value
	shuntMask  []uint64
	shuntAt    []shuntRec // by frame; valid where shuntMask is set
	shuntVals  []tuple.Value
	shunts     int    // bits set in shuntMask
	handed     bool   // the sink has seen this view batch
	touched    uint32 // sink for RegisterBank.touch
}

// begin sizes the per-frame scratch for a batch of n frames.
func (ws *walkScratch) begin(n int) {
	ws.n, ws.handed = n, false
	words := (n + 63) >> 6
	if cap(ws.sel) < words {
		ws.sel = make([]uint64, words)
		ws.shuntMask = make([]uint64, words)
	}
	ws.sel, ws.shuntMask = ws.sel[:words], ws.shuntMask[:words]
	if cap(ws.shuntAt) < n {
		ws.shuntAt = make([]shuntRec, n)
	}
	ws.shuntAt = ws.shuntAt[:n]
}

func (ws *walkScratch) takeU() []uint64 {
	if ws.nu == len(ws.us) {
		ws.us = append(ws.us, nil)
	}
	if cap(ws.us[ws.nu]) < ws.n {
		ws.us[ws.nu] = make([]uint64, ws.n)
	}
	ws.nu++
	return ws.us[ws.nu-1][:ws.n]
}

func (ws *walkScratch) takeV() []tuple.Value {
	if ws.nv == len(ws.vs) {
		ws.vs = append(ws.vs, nil)
	}
	if cap(ws.vs[ws.nv]) < ws.n {
		ws.vs[ws.nv] = make([]tuple.Value, ws.n)
	}
	ws.nv++
	return ws.vs[ws.nv-1][:ws.n]
}

// takeCols returns w zeroed column headers.
func (ws *walkScratch) takeCols(w int) []column {
	if ws.nc+w > len(ws.cols) {
		// Earlier headers stay valid in the array they were cut from.
		ws.cols = make([]column, max(2*len(ws.cols), ws.nc+w, 16))
		ws.nc = 0
	}
	ws.nc += w
	out := ws.cols[ws.nc-w : ws.nc : ws.nc]
	clear(out)
	return out
}

// appendRow appends frame i's tuple to dst.
func appendRow(dst []tuple.Value, cols []column, i int) []tuple.Value {
	for c := range cols {
		dst = append(dst, cols[c].at(i))
	}
	return dst
}

// rowOf gathers frame i's tuple into the row scratch.
func (ws *walkScratch) rowOf(cols []column, i int) []tuple.Value {
	ws.row = appendRow(ws.row[:0], cols, i)
	return ws.row
}

func popcount(sel []uint64) uint64 {
	n := 0
	for _, w := range sel {
		n += bits.OnesCount64(w)
	}
	return uint64(n)
}

func (sw *Switch) processViews(vs []View, m *PrescreenMasks) int {
	if len(vs) == 0 {
		return 0
	}
	sw.walk.begin(len(vs))
	runnable := popcount(m.runnable)
	var reports, offered, entered uint64
	for _, st := range sw.insts {
		r, e := sw.walkInstance(st, vs, m)
		reports += r
		if st.screenTables > 0 {
			offered += runnable
			entered += e
		}
	}
	sw.m.screenFrames.Add(offered)
	sw.m.screenEntered.Add(entered)
	return int(reports)
}

// walkInstance runs the batch through one instance's switch-side tables. It
// returns the number of mirror reports emitted and the number of frames that
// entered the instance's first table past its leading filters.
func (sw *Switch) walkInstance(st *instState, vs []View, m *PrescreenMasks) (reports, entered uint64) {
	spec := st.spec
	ws := &sw.walk
	ws.nu, ws.nv, ws.nc = 0, 0, 0
	ws.shuntVals = ws.shuntVals[:0]
	// Unconditionally, and over the current batch's words: begin re-slices the
	// mask, so bits a longer batch left above a shorter one's length are
	// cleared here before any instance of the next long batch can see them.
	clear(ws.shuntMask)
	ws.shunts = 0
	sel := ws.sel
	copy(sel, m.runnable)

	var cols []column // the metadata tuples once past the first map
	inTuplePhase := false
	for t := 0; t < spec.CutAt; t++ {
		n := popcount(sel)
		if t == st.screenTables {
			entered = n
		}
		if n == 0 {
			break
		}
		tab := &spec.Tables[t]
		o := &spec.Ops[tab.OpIdx]
		if s := st.frStage[t]; s >= 0 {
			st.fr.OpSwitchN(st.frBase+s, n)
		}
		switch tab.Kind {
		case compile.TableFilter:
			if inTuplePhase {
				filterCols(sel, cols, o.Clauses)
				break
			}
			for _, a := range st.atoms[t] {
				am := m.atoms[a]
				for w := range sel {
					sel[w] &= am[w]
				}
			}
		case compile.TableDynFilter:
			sw.dynFilter(st, t, vs, sel)
		case compile.TableMap:
			out := ws.takeCols(len(o.Cols))
			for c, str := range st.mapStr[t] {
				if str {
					out[c].v = ws.takeV()
				} else {
					out[c].u = ws.takeU()
				}
			}
			if inTuplePhase {
				ws.mapCols(sel, cols, o.Cols, out)
			} else {
				mapPackets(sel, vs, o.Cols, out)
			}
			cols, inTuplePhase = out, true
		case compile.TableHashIndex:
			// Index computation is folded into the bank update below.
		case compile.TableStateUpdate:
			last := t == spec.CutAt-1
			cols = sw.stateUpdate(st, t, sel, cols, last)
			if mf := tab.MergedFilterOp; mf >= 0 && !last {
				st.fr.OpSwitchN(st.frBase+mf, popcount(sel))
				filterCols(sel, cols, spec.Ops[mf].Clauses)
			}
		}
	}
	if spec.CutAt == st.screenTables {
		entered = popcount(sel) // every table is a leading filter: the tail is what they guard
	}

	// Emit: a frame either was shunted at a stateful table or survived every
	// table (a stateless tail, or nothing on the switch at all — the All-SP
	// plan) and reports. The sink gets both sets at once.
	reports = popcount(sel) + uint64(ws.shunts)
	if reports == 0 {
		return 0, entered
	}
	sw.stats.Mirrored += reports
	sw.m.mirrored.Add(reports)
	st.fr.MirrorN(reports)
	b := &st.out
	b.n = int(reports)
	b.Views, b.NewViews, ws.handed = vs, !ws.handed, true
	b.Tail, b.Shunt, b.TuplePhase = sel, ws.shuntMask, inTuplePhase
	b.cols, b.shuntAt, b.shuntVals = cols, ws.shuntAt, ws.shuntVals
	sw.sink.HandleMirrorBatch(b)
	return reports, entered
}

// dynFilter narrows sel to the frames whose masked key is in table t's
// dynamic rule set, loading the copy-on-write snapshot once for the whole
// batch (rule updates happen between batches — at window close — so one
// snapshot per batch observes every update a per-packet load would). An
// empty or unpublished set rejects the whole batch: the finer level is idle.
func (sw *Switch) dynFilter(st *instState, t int, vs []View, sel []uint64) {
	rp := st.dynRules[t].Load()
	if rp == nil || rp.empty() {
		clear(sel)
		return
	}
	o := &st.spec.Ops[st.spec.Tables[t].OpIdx]
	for w, word := range sel {
		for b := word; b != 0; b &= b - 1 {
			bit := bits.TrailingZeros64(b)
			if !st.dynMatch(rp, o, &vs[w<<6|bit].Pkt) {
				sel[w] &^= 1 << uint(bit)
			}
		}
	}
}

// filterCols clears the selection bit of every frame whose tuple fails a
// clause.
func filterCols(sel []uint64, cols []column, clauses []query.Clause) {
	for c := range clauses {
		cl := &clauses[c]
		col := &cols[cl.Col]
		for w, word := range sel {
			for b := word; b != 0; b &= b - 1 {
				bit := bits.TrailingZeros64(b)
				if !cl.MatchValue(col.at(w<<6 | bit)) {
					sel[w] &^= 1 << uint(bit)
				}
			}
		}
	}
}

// mapPackets is the packet-phase map: it evaluates each output expression on
// every selected frame's headers, dropping the frames that lack a field.
func mapPackets(sel []uint64, vs []View, exprs []query.Column, out []column) {
	for w, word := range sel {
		for b := word; b != 0; b &= b - 1 {
			bit := bits.TrailingZeros64(b)
			i := w<<6 | bit
			for c := range exprs {
				val, ok := exprs[c].Expr.EvalPacket(&vs[i].Pkt)
				if !ok {
					sel[w] &^= 1 << uint(bit)
					break
				}
				out[c].set(i, val)
			}
		}
	}
}

// mapCols is the tuple-phase map. On the switch it runs on what a stateful
// table let through, so it evaluates a gathered row at a time.
func (ws *walkScratch) mapCols(sel []uint64, in []column, exprs []query.Column, out []column) {
	for w, word := range sel {
		for b := word; b != 0; b &= b - 1 {
			i := w<<6 | bits.TrailingZeros64(b)
			row := ws.rowOf(in, i)
			for c := range exprs {
				out[c].set(i, exprs[c].Expr.EvalTuple(row))
			}
		}
	}
}

// stateUpdate runs stateful table t over the selected frames: it hashes and
// packs every key into columns first, then probes the register bank in frame
// order — iterations whose slot loads do not depend on one another, so the
// cache misses of a batch overlap. A frame whose key collides in all d
// chains is set aside as a shunt; the last table on the switch lets nothing
// through (its keys report via the end-of-window dump); a mid-pipeline
// distinct passes first occurrences and a reduce the running aggregate. It
// returns the tuples the table emits: the key columns, plus the aggregate
// for a reduce.
func (sw *Switch) stateUpdate(st *instState, t int, sel []uint64, cols []column, last bool) []column {
	ws := &sw.walk
	tab := &st.spec.Tables[t]
	o := &st.spec.Ops[tab.OpIdx]
	bank := st.banks[t]
	distinct := o.Kind == query.OpDistinct
	fn := statefulFunc(o)

	rows := ws.rows[:0]
	for w, word := range sel {
		for b := word; b != 0; b &= b - 1 {
			rows = append(rows, int32(w<<6|bits.TrailingZeros64(b)))
		}
	}
	ws.rows = rows
	bank.hashRows(&ws.keys, cols, o.KeyCols, rows)
	ws.touched += bank.touch(&ws.keys)

	out := ws.takeCols(len(o.KeyCols) + 1)[:len(o.KeyCols)]
	for j, k := range o.KeyCols {
		out[j] = cols[k]
	}
	var val *column // the reduce's input value
	var agg []uint64
	if !distinct {
		val = &cols[o.ValCol]
		if !last {
			agg = ws.takeU()
			out = append(out, column{u: agg})
		}
	}
	for k, r := range rows {
		i := int(r)
		var inc uint64 = 1
		if val != nil {
			inc = val.at(i).U
		}
		newVal, newKey, ok := bank.foldRow(&ws.keys, k, cols, o.KeyCols, i, inc, fn)
		switch {
		case !ok:
			// Collision overflow: shunt to the stream processor, which
			// executes the stateful op itself for this packet.
			sw.shunted(st)
			off := len(ws.shuntVals)
			for c := range cols {
				ws.shuntVals = append(ws.shuntVals, cols[c].at(i))
			}
			ws.shuntAt[i] = shuntRec{mergeOp: tab.OpIdx, off: off, end: len(ws.shuntVals)}
			ws.shuntMask[i>>6] |= 1 << uint(i&63)
			ws.shunts++
			sel[i>>6] &^= 1 << uint(i&63)
		case last || distinct && !newKey:
			sel[i>>6] &^= 1 << uint(i&63)
		case !distinct:
			agg[i] = newVal
		}
	}
	return out
}
