// Package stream implements Sonata's stream processor: a micro-batch
// dataflow engine executing the portions of each query that the planner
// leaves off the switch (the Spark Streaming role in the paper).
//
// Tuples enter mid-pipeline at the partition point chosen by the planner;
// stateful operators accumulate per-window state that is flushed when the
// window closes; join queries combine their sub-pipelines at flush time; and
// register dumps from the switch merge into the same aggregation state that
// collision-overflow packets were folded into, reproducing the paper's
// end-of-window reconciliation (Section 3.1.3).
package stream

import (
	"fmt"
	"sync/atomic"

	"repro/internal/fields"
	"repro/internal/keytab"
	"repro/internal/packet"
	"repro/internal/query"
	"repro/internal/tuple"
)

// DynTables holds the dynamic-refinement filter sets, updated by the
// runtime at window boundaries and consulted by filter operators that carry
// a DynFilterTable tag. Readers see copy-on-write snapshots swapped through
// an atomic pointer, so the per-tuple Contains path takes no lock; writers
// (Replace) must be serialized by the caller, which the runtime does by
// updating tables only at window boundaries with the workers joined.
type DynTables struct {
	snap atomic.Pointer[dynSnapshot]
}

// dynSnapshot is one immutable generation of all tables. The inner sets are
// never mutated after publication.
type dynSnapshot struct {
	sets map[string]map[string]struct{}
}

// NewDynTables returns an empty table store.
func NewDynTables() *DynTables {
	d := &DynTables{}
	d.snap.Store(&dynSnapshot{sets: make(map[string]map[string]struct{})})
	return d
}

// Replace installs the allowed key set for a table, replacing any previous
// contents (the per-window refresh of Figure 4's red filters). It publishes
// a new snapshot; in-flight readers keep the old one.
func (d *DynTables) Replace(table string, keys []string) {
	cur := d.snap.Load()
	next := &dynSnapshot{sets: make(map[string]map[string]struct{}, len(cur.sets)+1)}
	for name, set := range cur.sets {
		next.sets[name] = set
	}
	set := make(map[string]struct{}, len(keys))
	for _, k := range keys {
		set[k] = struct{}{}
	}
	next.sets[table] = set
	d.snap.Store(next)
}

// Contains reports whether key is currently allowed by table. A table that
// was never installed admits nothing: finer refinement levels stay idle
// until the coarser level reports.
func (d *DynTables) Contains(table, key string) bool {
	_, ok := d.set(table)[key]
	return ok
}

// set returns the current generation of a table (nil if never installed).
// It is immutable, so a run of lookups may load it once.
func (d *DynTables) set(table string) map[string]struct{} {
	return d.snap.Load().sets[table]
}

// ContainsKey is the hot-path form of Contains: the key arrives as encoded
// bytes (typically a reused scratch buffer) and the lookup allocates
// nothing — the string conversion in the map index does not escape.
func (d *DynTables) ContainsKey(table string, key []byte) bool {
	_, ok := d.set(table)[string(key)]
	return ok
}

// Size returns the number of keys installed for a table.
func (d *DynTables) Size(table string) int {
	return len(d.set(table))
}

// pipeExec executes the suffix of one pipeline, from op index start to the
// end. Inputs may be raw packets (when ops[start] is packet-phase) or
// tuples. Stateful operators hold per-window state; EndWindow drains them in
// order and returns the pipeline's outputs.
type pipeExec struct {
	ops   []query.Op
	start int
	dyn   *DynTables

	// states holds each stateful op's window state (nil for stateless ops):
	// an arena-backed table keyed by the encoded grouping key, holding the
	// running aggregate and the decoded key columns. Tables are reset, not
	// reallocated, at window end, so a steady-state window touches no
	// allocator.
	states []*keytab.Table
	// outCounts[i] counts emissions of op i this window (used by the
	// profiler to estimate the paper's N_{q,t}).
	outCounts []uint64
	// inCounts[i] counts tuples (or packets, or merged aggregates) entering
	// op i — the flight recorder's per-stage load signal. Reset together
	// with outCounts.
	inCounts []uint64
	// The output arena collects tuples that fell off the end of the
	// pipeline. Each row is an owned copy (inputs may live in caller
	// scratch, and flush-path tuples alias keytab storage), but instead of
	// one allocation per row, values append into outVals with outOffs
	// marking row ends; endWindow materializes the row headers into outRows.
	// All three recycle at the first output of the *next* window (outSealed
	// flips at endWindow), so a window's returned rows remain valid until
	// the next window closes — the retention contract WindowReport documents
	// for sinks, now load-bearing for the runtime's close path too.
	outVals   []tuple.Value
	outOffs   []int
	outRows   [][]tuple.Value
	outSealed bool
	// keyScratch avoids re-allocating key buffers on the hot path.
	keyScratch []byte
	// dynKeyScratch/dynValScratch back the dynamic-filter key build; separate
	// from keyScratch because a tuple can pass a dyn filter and then reach a
	// stateful op in the same walk.
	dynKeyScratch []byte
	dynValScratch []tuple.Value
	// inputCount tracks packets fed this window (profiling only).
	inputCount uint64
	// lastKeys[i] is the key count of stateful op i at the moment the last
	// endWindow drained it. Downstream stateful ops are only populated by
	// upstream flushes, so counts must be captured during the drain, not
	// before it.
	lastKeys []uint64

	// scalar selects the per-tuple interpreter over the batched executor —
	// the differential oracle mode. In scalar mode the batch is never
	// populated, so every flush is a no-op.
	scalar bool
	// batch buffers tuples entering the tuple-phase op chain until a flush
	// point (capacity, entry/width change, out-of-band merge, window close);
	// flushBatch in batch.go runs the columnar walk. All batch scratch below
	// is recycled across flushes and windows.
	batch colBatch
	// sel is the flush's selection bitmap: bit r live means row r has passed
	// every filter so far. pktSel is the same for a run of packets entering
	// through ingestPackets (the caller's selection is read-only).
	sel    []uint64
	pktSel []uint64
	// mapColBufs are the ping-pong column sets map ops evaluate into; a map
	// writes the buffer its input does not occupy, so chained maps never
	// alias. mapPing is the buffer the *previous* map wrote.
	mapColBufs [2][][]tuple.Value
	mapPing    int
	// mapOut[i] is op i's output-row scratch for the per-tuple walk (scalar
	// mode and the packet-phase map landing). Distinct ops get distinct
	// buffers so a downstream map can read its input while writing its own.
	mapOut [][]tuple.Value
	// bulkKeys/bulkEnds/bulkRows/bulkIdxs back the fused bulk probe: keys
	// holds the batch's concatenated grouping keys, ends their end offsets,
	// rows the selection row each key came from, idxs the LookupBulk results.
	bulkKeys []byte
	bulkEnds []uint32
	bulkRows []int32
	bulkIdxs []int32
	// flushes/flushRows count flushBatch invocations and the rows they
	// carried; the engine harvests them into telemetry at window close.
	flushes   uint64
	flushRows uint64
}

func newPipeExec(ops []query.Op, start int, dyn *DynTables) *pipeExec {
	e := &pipeExec{ops: ops, start: start, dyn: dyn,
		states: make([]*keytab.Table, len(ops)), outCounts: make([]uint64, len(ops)+1),
		inCounts: make([]uint64, len(ops))}
	// State exists for every stateful op, including those before the
	// partition point: register dumps from the switch merge into the state
	// of an op that nominally ran on the switch (see mergeAgg).
	for i := range ops {
		if ops[i].Stateful() {
			e.states[i] = keytab.New()
		}
	}
	return e
}

// ingestPacket pushes a raw packet through packet-phase ops starting at op
// index at; when a map converts it to a tuple the tuple continues through
// ingestTuple. It is the per-packet reference for ingestPackets, which runs
// it in scalar mode, and reports what ingestPackets selects: whether the
// packet passed every op and ended the pipeline still a packet.
func (e *pipeExec) ingestPacket(at int, pkt *packet.Packet) bool {
	for i := at; i < len(e.ops); i++ {
		e.inCounts[i]++
		o := &e.ops[i]
		if !o.PacketPhase() {
			panic(fmt.Sprintf("stream: op %d (%v) is tuple-phase but received a packet", i, o.Kind))
		}
		switch o.Kind {
		case query.OpFilter:
			if !e.packetPasses(o, e.dynSet(o), pkt) {
				return false
			}
			e.outCounts[i]++
		case query.OpMap:
			if vals, ok := e.mapPacketRow(i, pkt); ok {
				e.outCounts[i]++
				e.feedTuple(i+1, vals)
			}
			return false
		default:
			panic(fmt.Sprintf("stream: stateful op %v in packet phase", o.Kind))
		}
	}
	// Pipeline ended while still in packet phase: the result is the packet
	// itself; record its passage (the packet-phase join path picks the
	// packets up from the returned selection).
	e.outCounts[len(e.ops)]++
	return true
}

// mapPacketRow evaluates the landing map (op i) on pkt into the op's row
// scratch. It reports false when the packet lacks a required field.
func (e *pipeExec) mapPacketRow(i int, pkt *packet.Packet) ([]tuple.Value, bool) {
	cols := e.ops[i].Cols
	vals := e.mapScratch(i, len(cols))
	for j := range cols {
		v, ok := cols[j].Expr.EvalPacket(pkt)
		if !ok {
			return nil, false
		}
		vals[j] = v
	}
	return vals, true
}

// dynSet returns the table a dynamic packet filter probes, loaded once per
// packet or per run of packets (tables change only between windows); nil
// for a static filter.
func (e *pipeExec) dynSet(o *query.Op) map[string]struct{} {
	if o.DynFilterTable == "" {
		return nil
	}
	return e.dyn.set(o.DynFilterTable)
}

// packetPasses reports whether pkt passes packet-phase filter o, whose
// dynamic table (dynSet) the caller has loaded.
func (e *pipeExec) packetPasses(o *query.Op, set map[string]struct{}, pkt *packet.Packet) bool {
	if o.DynFilterTable != "" {
		v, ok := pkt.Field(o.DynKeyField)
		if !ok {
			return false
		}
		e.dynKeyScratch = AppendDynKey(e.dynKeyScratch[:0], o.DynKeyField, v, o.DynLevel)
		_, ok = set[string(e.dynKeyScratch)]
		return ok
	}
	for j := range o.Clauses {
		if !o.Clauses[j].MatchPacket(pkt) {
			return false
		}
	}
	return true
}

// AppendDynKey appends the dynamic-filter lookup key for a single value
// masked to the filter's level, reusing dst's storage. The control path that
// installs table keys uses DynKeyFromValue (same encoding), so lookups
// always agree.
func AppendDynKey(dst []byte, f fields.ID, v tuple.Value, level int) []byte {
	return tuple.AppendKeyValue(dst, query.MaskValue(f, v, level))
}

// DynKeyFromValue builds the dynamic-filter lookup key for a single value
// masked to the filter's level — the allocating form used on the install
// side (runtime, planner training) where keys are retained.
func DynKeyFromValue(f fields.ID, v tuple.Value, level int) string {
	return string(AppendDynKey(nil, f, v, level))
}

// ingestTuple pushes a tuple through ops starting at index at, stopping at
// the first stateful op (which absorbs it into window state).
func (e *pipeExec) ingestTuple(at int, vals []tuple.Value) {
	for i := at; i < len(e.ops); i++ {
		e.inCounts[i]++
		o := &e.ops[i]
		switch o.Kind {
		case query.OpFilter:
			if o.DynFilterTable != "" {
				key := e.dynTupleKey(o, vals)
				if !e.dyn.ContainsKey(o.DynFilterTable, key) {
					return
				}
			} else {
				for j := range o.Clauses {
					if !o.Clauses[j].MatchTuple(vals) {
						return
					}
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
			e.keyScratch = tuple.AppendKey(e.keyScratch[:0], vals, o.KeyCols)
			idx, existed := st.GetOrInsert(e.keyScratch, vals, o.KeyCols, vals[o.ValCol].U)
			if existed {
				st.SetAgg(idx, o.Func.Apply(st.Agg(idx), vals[o.ValCol].U))
			}
			return
		case query.OpDistinct:
			st := e.states[i]
			e.keyScratch = tuple.AppendKey(e.keyScratch[:0], vals, o.KeyCols)
			st.GetOrInsert(e.keyScratch, vals, o.KeyCols, 1)
			return
		}
	}
	e.outCounts[len(e.ops)]++
	e.outVals = append(e.outArena(), vals...)
	e.outOffs = append(e.outOffs, len(e.outVals))
}

// outArena returns the output value arena ready for one more row's values,
// recycling the previous window's storage on the first output after a
// seal. Callers append the row's values and then its end offset.
func (e *pipeExec) outArena() []tuple.Value {
	if e.outSealed {
		e.outVals = e.outVals[:0]
		e.outOffs = e.outOffs[:0]
		e.outSealed = false
	}
	return e.outVals
}

// mergeAgg folds a pre-aggregated (key, value) produced by the switch into
// the stateful op at index at, using the op's own aggregation function so
// switch-side and overflow-side contributions combine correctly.
func (e *pipeExec) mergeAgg(at int, keyVals []tuple.Value, agg uint64) {
	// Folding out of band: flush buffered tuples first so the op's keytab
	// sees them in arrival order (first-touch order is the flush order).
	e.flushBatch()
	e.inCounts[at]++
	o := &e.ops[at]
	if !o.Stateful() {
		panic(fmt.Sprintf("stream: mergeAgg into stateless op %v", o.Kind))
	}
	st := e.states[at]
	e.keyScratch = tuple.AppendKey(e.keyScratch[:0], keyVals, identityCols(len(keyVals)))
	idx, existed := st.GetOrInsert(e.keyScratch, keyVals, nil, agg)
	if existed {
		st.SetAgg(idx, o.Func.Apply(st.Agg(idx), agg))
	}
}

// endWindow drains stateful state in pipeline order, cascading through
// downstream operators, and returns the final outputs. Keys flush in
// insertion (first-touch) order — deterministic, unlike the Go map's
// randomized iteration — and state is reset in place for the next window.
func (e *pipeExec) endWindow() [][]tuple.Value {
	// In-window traffic still sitting in the batch must reach the stateful
	// ops before any of them drains.
	e.flushBatch()
	if e.lastKeys == nil {
		e.lastKeys = make([]uint64, len(e.ops))
	}
	for i := 0; i < len(e.ops); i++ {
		st := e.states[i]
		if st == nil {
			continue
		}
		// Capture the key count now: every upstream stateful op has already
		// flushed into this one.
		e.lastKeys[i] = uint64(st.Len())
		o := &e.ops[i]
		n := st.Len()
		if !e.scalar {
			// Batched drain: buffer each flushed key row (entry i+1) and let
			// flushBatch walk the suffix columnar. The KeyVals slices alias
			// keytab storage, but bufferTuple copies the values immediately,
			// and the explicit flush below lands everything in the downstream
			// states before st resets.
			for k := 0; k < n; k++ {
				e.outCounts[i]++
				if o.Kind == query.OpReduce {
					e.bufferReduceRow(i+1, st.KeyVals(k), st.Agg(k))
				} else {
					e.bufferTuple(i+1, st.KeyVals(k))
				}
			}
			e.flushBatch()
			st.Reset()
			continue
		}
		for k := 0; k < n; k++ {
			kv := st.KeyVals(k)
			var out []tuple.Value
			switch o.Kind {
			case query.OpReduce:
				out = make([]tuple.Value, 0, len(kv)+1)
				out = append(out, kv...)
				out = append(out, tuple.U64(st.Agg(k)))
			case query.OpDistinct:
				out = kv
			}
			e.outCounts[i]++
			e.ingestTuple(i+1, out)
		}
		st.Reset()
	}
	return e.sealOutputs()
}

// sealOutputs materializes the window's output rows from the arena and
// seals it for recycling. Row headers are capacity-clamped so a consumer
// appending to a row cannot scribble into its neighbor. Returns nil (not
// an empty slice) for a window with no outputs — callers distinguish a
// side with no outputs from one with an empty output set.
func (e *pipeExec) sealOutputs() [][]tuple.Value {
	if e.outSealed {
		// Still sealed from the previous window: nothing was output since,
		// and the stale offsets must not be re-materialized.
		return nil
	}
	e.outSealed = true
	if len(e.outOffs) == 0 {
		return nil
	}
	rows := e.outRows[:0]
	start := 0
	for _, end := range e.outOffs {
		rows = append(rows, e.outVals[start:end:end])
		start = end
	}
	e.outRows = rows
	return rows
}

// tupleWidth returns the width of the tuples that enter the op chain at
// index at (at most len(ops)) — the op's input schema, or the pipeline's
// output schema when every op ran on the switch — and -1 where packets enter
// instead.
func (e *pipeExec) tupleWidth(at int) int {
	switch {
	case e.takesPackets(at):
		return -1
	case at < len(e.ops):
		return len(e.ops[at].InSchema())
	}
	return len(e.ops[at-1].OutSchema())
}

// takesPackets reports whether what enters at op index at is still a packet:
// the op there is packet-phase, or the pipeline ended without a map.
func (e *pipeExec) takesPackets(at int) bool {
	if at < len(e.ops) {
		return e.ops[at].PacketPhase()
	}
	return at == 0 || e.ops[at-1].OutSchema() == nil
}

// feedTuple is the mode dispatch for tuples entering the op chain at index
// at: the per-tuple interpreter in scalar (oracle) mode, the column batch
// otherwise.
func (e *pipeExec) feedTuple(at int, vals []tuple.Value) {
	if e.scalar {
		e.ingestTuple(at, vals)
		return
	}
	e.bufferTuple(at, vals)
}

// mapScratch returns op i's map-output buffer, sized to n values. Buffers
// are per op index so no walk ever reads and writes the same one.
func (e *pipeExec) mapScratch(i, n int) []tuple.Value {
	if e.mapOut == nil {
		e.mapOut = make([][]tuple.Value, len(e.ops))
	}
	if cap(e.mapOut[i]) < n {
		e.mapOut[i] = make([]tuple.Value, n)
	}
	return e.mapOut[i][:n]
}

// resetCounts zeroes the per-op counters (profiling and flight-recorder
// granularity is one window).
func (e *pipeExec) resetCounts() {
	for i := range e.outCounts {
		e.outCounts[i] = 0
	}
	for i := range e.inCounts {
		e.inCounts[i] = 0
	}
}

// dynTupleKey builds the masked dynamic-filter key for a tuple-phase filter
// into the exec's scratch buffers; the result is valid until the next call.
func (e *pipeExec) dynTupleKey(o *query.Op, vals []tuple.Value) []byte {
	if cap(e.dynValScratch) < len(o.DynKeyCols) {
		e.dynValScratch = make([]tuple.Value, len(o.DynKeyCols))
	}
	masked := e.dynValScratch[:len(o.DynKeyCols)]
	for i, c := range o.DynKeyCols {
		masked[i] = query.MaskValue(o.DynKeyField, vals[c], o.DynLevel)
	}
	e.dynKeyScratch = tuple.AppendKey(e.dynKeyScratch[:0], masked, identityCols(len(masked)))
	return e.dynKeyScratch
}

var identityColCache = func() [][]int {
	c := make([][]int, 9)
	for n := range c {
		c[n] = make([]int, n)
		for i := 0; i < n; i++ {
			c[n][i] = i
		}
	}
	return c
}()

func identityCols(n int) []int {
	if n < len(identityColCache) {
		return identityColCache[n]
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}
