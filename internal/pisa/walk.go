package pisa

import (
	"repro/internal/compile"
	"repro/internal/fields"
	"repro/internal/query"
	"repro/internal/tuple"
)

// The batched walk runs one instance table-at-a-time over a batch of views.
// The frames still in the instance's pipeline are a selection bitmap over
// the batch, seeded with the runnable frames: a static packet-phase filter
// ANDs the prescreen's atom bitmaps into it, every other stateless table is
// one of internal/query's column kernels — the code the stream processor
// runs past the partition point — clearing the bits of the frames it
// rejects; the packet-phase ones read the header-field columns the dispatch
// side extracted with the masks. A dynamic filter table's match bitmap over
// the batch depends only on (rule set, key field, level), so it is computed
// once per batch and ANDed in by every table that shares the three — the two
// sides of a join instance, by construction. Past the first map the batch's
// metadata tuples live column-major — one frame-indexed tuple.Column per
// field — so a stateful table can hash every surviving key first and then
// probe its register bank in a tight frame-order loop. Each stage's
// flight-recorder entering count is the popcount of the selection entering
// it, whether or not a probe is attached. Collision shunts are set aside as
// they happen and handed to the sink together with the tail selection as one
// MirrorBatch per instance, whose frame order is the frame-at-a-time walk's
// mirror sequence; an instance with nothing to report makes no sink call.

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
	n         int              // frames in the batch
	sel       []uint64         // the instance's current selection
	pool      tuple.ColumnPool // the columns of one instance's walk
	rows      []int32          // selected frames entering a stateful table
	keys      keyCols          // their hashed and packed keys
	shuntMask []uint64
	shuntAt   []shuntRec // by frame; valid where shuntMask is set
	shuntVals []tuple.Value
	shunts    int    // bits set in shuntMask
	handed    bool   // the sink has seen this view batch
	touched   uint32 // sink for RegisterBank.touch
	// dyn memoises this batch's dynamic-filter match bitmaps; the first nDyn
	// are valid. begin forgets them: a bitmap is over one batch's frames.
	dyn  []dynMatch
	nDyn int
}

// dynMatch is the frames of the current batch a rule set admits when probed
// with a key field at a level.
type dynMatch struct {
	set   *query.DynSet
	field fields.ID
	level int
	match []uint64
}

// begin sizes the per-frame scratch for a batch of n frames.
func (ws *walkScratch) begin(n int) {
	ws.n, ws.handed, ws.nDyn = n, false, 0
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

// dynMatch returns the runnable frames of the batch that set admits under
// dynamic filter o, probing on the first call of a batch for (set, key field,
// level) and answering from the memo afterwards.
func (ws *walkScratch) dynMatch(set *query.DynSet, o *query.Op, m *PrescreenMasks) []uint64 {
	for i := range ws.dyn[:ws.nDyn] {
		if d := &ws.dyn[i]; d.set == set && d.field == o.DynKeyField && d.level == o.DynLevel {
			return d.match
		}
	}
	if ws.nDyn == len(ws.dyn) {
		ws.dyn = append(ws.dyn, dynMatch{})
	}
	d := &ws.dyn[ws.nDyn]
	ws.nDyn++
	d.set, d.field, d.level = set, o.DynKeyField, o.DynLevel
	d.match = append(d.match[:0], m.runnable...)
	set.FilterPackets(d.match, &m.batch, o)
	return d.match
}

// ProcessViewsPre is ProcessViews with the prescreen bitmaps already
// computed by the dispatch side (Prescreen.Eval over the same batch, using
// the shared atom space this switch was built with via NewSwitchShared).
// The masks are consulted read-only, so any number of shards can consume
// the same PrescreenMasks concurrently; each shard only ANDs the masks its
// own instances reference instead of re-evaluating every clause over every
// frame.
func (sw *Switch) ProcessViewsPre(vs []View, m *PrescreenMasks) int {
	if len(vs) == 0 {
		return 0
	}
	sw.walk.begin(len(vs))
	runnable := uint64(tuple.SelCount(m.runnable))
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
	ws.pool.Reset(ws.n)
	ws.shuntVals = ws.shuntVals[:0]
	// Unconditionally, and over the current batch's words: begin re-slices the
	// mask, so bits a longer batch left above a shorter one's length are
	// cleared here before any instance of the next long batch can see them.
	clear(ws.shuntMask)
	ws.shunts = 0
	sel := ws.sel
	copy(sel, m.runnable)

	var cols []tuple.Column // the metadata tuples once past the first map
	inTuplePhase := false
	for t := 0; t < spec.CutAt; t++ {
		n := uint64(tuple.SelCount(sel))
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
				query.FilterCols(sel, cols, o.Clauses)
				break
			}
			for _, a := range st.atoms[t] {
				tuple.SelAnd(sel, m.atoms[a])
			}
		case compile.TableDynFilter:
			// One rule snapshot per batch observes every update a per-packet
			// load would: rules change between batches, at window close. A
			// table not yet populated admits nothing: the finer level idles.
			set := st.dynRules[t].Load()
			if set.Len() == 0 {
				clear(sel)
				break
			}
			tuple.SelAnd(sel, ws.dynMatch(set, o, m))
		case compile.TableMap:
			out := ws.pool.Take(st.kinds[tab.OpIdx+1])
			if inTuplePhase {
				query.MapCols(cols, ws.n, o.Cols, out)
			} else {
				query.MapPackets(sel, &m.batch, o.Cols, out)
			}
			cols, inTuplePhase = out, true
		case compile.TableHashIndex:
			// Index computation is folded into the bank update below.
		case compile.TableStateUpdate:
			last := t == spec.CutAt-1
			cols = sw.stateUpdate(st, t, sel, cols, last)
			if mf := tab.MergedFilterOp; mf >= 0 && !last {
				st.fr.OpSwitchN(st.frBase+mf, uint64(tuple.SelCount(sel)))
				query.FilterCols(sel, cols, spec.Ops[mf].Clauses)
			}
		}
	}
	if spec.CutAt == st.screenTables {
		entered = uint64(tuple.SelCount(sel)) // every table is a leading filter: the tail is what they guard
	}

	// Emit: a frame either was shunted at a stateful table or survived every
	// table (a stateless tail, or nothing on the switch at all — the All-SP
	// plan) and reports. The sink gets both sets at once.
	reports = uint64(tuple.SelCount(sel)) + uint64(ws.shunts)
	if reports == 0 {
		return 0, entered
	}
	sw.stats.Mirrored += reports
	sw.m.mirrored.Add(reports)
	st.fr.MirrorN(reports)
	b := &st.out
	b.n = int(reports)
	b.Views, b.Packets, b.NewViews, ws.handed = vs, &m.batch, !ws.handed, true
	b.Tail, b.Shunt, b.TuplePhase = sel, ws.shuntMask, inTuplePhase
	b.cols, b.shuntAt, b.shuntVals = cols, ws.shuntAt, ws.shuntVals
	sw.sink.HandleMirrorBatch(b)
	return reports, entered
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
func (sw *Switch) stateUpdate(st *instState, t int, sel []uint64, cols []tuple.Column, last bool) []tuple.Column {
	ws := &sw.walk
	tab := &st.spec.Tables[t]
	o := &st.spec.Ops[tab.OpIdx]
	bank := st.banks[t]
	distinct := o.Kind == query.OpDistinct
	fn := statefulFunc(o)

	rows := tuple.SelRows(sel, ws.rows[:0])
	ws.rows = rows
	bank.hashRows(&ws.keys, cols, o.KeyCols, rows)
	ws.touched += bank.touch(&ws.keys)

	// The table's output columns: the keys pass through by aliasing, a
	// reduce's running aggregate is the one column written here.
	out := st.outCols[t]
	for j, k := range o.KeyCols {
		out[j] = cols[k]
	}
	var val *tuple.Column // the reduce's input value
	var agg []uint64
	if !distinct {
		nk := len(o.KeyCols)
		out[nk] = ws.pool.Take(st.kinds[tab.OpIdx+1][nk:])[0]
		val, agg = &cols[o.ValCol], out[nk].U
	}
	for k, r := range rows {
		i := int(r)
		var inc uint64 = 1
		if val != nil {
			inc = val.At(i).U
		}
		newVal, newKey, ok := bank.foldRow(&ws.keys, k, cols, o.KeyCols, i, inc, fn)
		switch {
		case !ok:
			// Collision overflow: shunt to the stream processor, which
			// executes the stateful op itself for this packet.
			sw.shunted(st)
			off := len(ws.shuntVals)
			ws.shuntVals = tuple.AppendRow(ws.shuntVals, cols, i)
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
