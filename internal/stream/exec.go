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

// DynTables holds the dynamic-refinement rule sets by table name, published
// by the runtime at window boundaries and consulted by filter operators that
// carry a DynFilterTable tag. Readers see copy-on-write snapshots swapped
// through an atomic pointer, so a probe takes no lock; writers (Publish) must
// be serialized by the caller, which the runtime does by updating tables
// only at window boundaries with the workers joined.
type DynTables struct {
	snap atomic.Pointer[map[string]*query.DynSet]
}

// NewDynTables returns an empty table store.
func NewDynTables() *DynTables {
	d := &DynTables{}
	d.snap.Store(&map[string]*query.DynSet{})
	return d
}

// Publish installs set as the table's rule set, replacing any previous one
// (the per-window refresh of Figure 4's red filters). It publishes a new
// snapshot; in-flight readers keep the old one.
func (d *DynTables) Publish(table string, set *query.DynSet) {
	cur := *d.snap.Load()
	next := make(map[string]*query.DynSet, len(cur)+1)
	for name, s := range cur {
		next[name] = s
	}
	next[table] = set
	d.snap.Store(&next)
}

// Set returns the table's current rule set: nil — which admits nothing — if
// none was ever published, so finer refinement levels stay idle until the
// coarser level reports. A set is immutable, so a run of probes may load it
// once.
func (d *DynTables) Set(table string) *query.DynSet {
	return (*d.snap.Load())[table]
}

// pipeExec executes the suffix of one pipeline, from op index start to the
// end. Inputs may be raw packets (when ops[start] is packet-phase) or
// tuples. Stateful operators hold per-window state; EndWindow drains them in
// order and returns the pipeline's outputs.
type pipeExec struct {
	ops   []query.Op
	start int
	dyn   *DynTables
	// kinds[i] says which columns of the tuple entering op i are
	// string-valued (query.ColumnKinds): the batch keeps those as
	// tuple.Value columns and every other one as uint64s.
	kinds [][]bool

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
	// point (capacity, entry change, out-of-band merge, window close);
	// flushBatch in batch.go runs the columnar walk. All batch scratch below
	// is recycled across flushes and windows.
	batch colBatch
	// sel is the flush's selection bitmap: bit r live means row r has passed
	// every filter so far. pktSel is the same for a run of packets entering
	// through ingestPackets (the caller's selection is read-only).
	sel    []uint64
	pktSel []uint64
	// pool holds the columns map ops evaluate into during one flush, land the
	// packet-indexed columns a landing map evaluates into on its way to the
	// batch (a separate pool: the batch may flush while they are copied in),
	// landRows the rows being copied.
	pool     tuple.ColumnPool
	land     tuple.ColumnPool
	landRows []int32
	// mapOut[i] is op i's output-row scratch: a map's in the per-tuple walk
	// (scalar mode), a reduce's drained row. Distinct ops get distinct
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

// newPipeExec builds the executor of one pipeline; in says which columns of
// the tuples entering op 0 are string-valued (nil when packets enter).
func newPipeExec(ops []query.Op, start int, dyn *DynTables, in []bool) *pipeExec {
	e := &pipeExec{ops: ops, start: start, dyn: dyn, kinds: query.ColumnKinds(ops, in),
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
// ingestTuple. It is the per-packet reference for ingestPackets, run in its
// place in scalar mode, and reports what ingestPackets selects: whether the
// packet passed every op and ended the pipeline still a packet.
func (e *pipeExec) ingestPacket(at int, pkt *packet.Packet) bool {
	for i := at; i < len(e.ops); i++ {
		e.inCounts[i]++
		o := &e.ops[i]
		switch {
		case !o.PacketPhase():
			panic(fmt.Sprintf("stream: op %d (%v) is tuple-phase but received a packet", i, o.Kind))
		case o.Kind == query.OpFilter && o.DynFilterTable != "":
			if !e.dyn.Set(o.DynFilterTable).MatchPacket(o, pkt) {
				return false
			}
			e.outCounts[i]++
		case o.Kind == query.OpFilter:
			for j := range o.Clauses {
				if !o.Clauses[j].MatchPacket(pkt) {
					return false
				}
			}
			e.outCounts[i]++
		case o.Kind == query.OpMap:
			// A packet lacking a required field leaves no row.
			vals := e.mapScratch(i, len(o.Cols))
			for j := range o.Cols {
				v, ok := o.Cols[j].Expr.EvalPacket(pkt)
				if !ok {
					return false
				}
				vals[j] = v
			}
			e.outCounts[i]++
			e.ingestTuple(i+1, vals)
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

// DynKeyFromValue builds the dynamic-filter key for a single value masked to
// the filter's level, in the encoding query.NewDynSet takes — the install
// side (runtime, planner training), where keys are retained.
func DynKeyFromValue(f fields.ID, v tuple.Value, level int) string {
	return string(tuple.AppendKeyValue(nil, query.MaskValue(f, v, level)))
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
				if !e.dyn.Set(o.DynFilterTable).MatchTuple(o, vals) {
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
		// Feed each flushed key row — a reduce's with its aggregate as the
		// trailing column, built in the op's own scratch — to op i+1. The
		// KeyVals slices alias keytab storage, but bufferTuple copies the
		// values immediately and the scalar walk copies what it keeps, and the
		// explicit flush below lands everything in the downstream states
		// before st resets.
		for k := range st.Len() {
			e.outCounts[i]++
			row := st.KeyVals(k)
			if o.Kind == query.OpReduce {
				kv := row
				row = e.mapScratch(i, len(kv)+1)
				copy(row, kv)
				row[len(kv)] = tuple.U64(st.Agg(k))
			}
			e.feedTuple(i+1, row)
		}
		e.flushBatch()
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

// takesTuple reports whether vals can enter the op chain at index at (at
// most len(ops)): packets do not enter there, vals has the width of the op's
// input schema — or the pipeline's output schema when every op ran on the
// switch — and every value is of the kind its column is kept in.
func (e *pipeExec) takesTuple(at int, vals []tuple.Value) bool {
	kinds := e.kinds[at]
	if e.takesPackets(at) || len(kinds) != len(vals) {
		return false
	}
	for j := range vals {
		if vals[j].Str != kinds[j] {
			return false
		}
	}
	return true
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

// mapScratch returns op i's output-row buffer, sized to n values. Buffers
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
