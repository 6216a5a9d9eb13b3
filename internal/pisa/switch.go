package pisa

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/compile"
	"repro/internal/flightrec"
	"repro/internal/packet"
	"repro/internal/query"
	"repro/internal/tuple"
)

// Mirror is one record sent from the switch's monitoring port toward the
// emitter: either a per-packet report (a metadata tuple and/or the original
// frame) or a collision-overflow shunt.
type Mirror struct {
	QID   uint16
	Level uint8
	Side  Side
	// Overflow marks a packet shunted because its key collided in all d
	// registers; the stream processor folds it into the stateful operator
	// at MergeOp.
	Overflow bool
	MergeOp  int
	// EntryOp is the dataflow op index where the stream processor resumes
	// for non-overflow reports.
	EntryOp int
	// Vals is the metadata tuple at the partition point (nil when the
	// pipeline was still packet-phase).
	Vals []tuple.Value
	// Packet is the original frame, present when the instance requested it
	// or the pipeline was packet-phase.
	Packet []byte
	// Parsed is the switch's header parse of Packet, attached only when the
	// frame decoded fully. It is a process-local sidecar — never serialized
	// by the emitter's wire format — that lets the stream side skip the
	// re-parse. Receivers must treat it as read-only: in sharded mode it is
	// shared across workers.
	Parsed *packet.Packet
}

// RegDump is one aggregated (key, value) pair reported at window end.
type RegDump struct {
	QID     uint16
	Level   uint8
	Side    Side
	MergeOp int
	KeyVals []tuple.Value
	Val     uint64
}

// WindowStats summarizes one window of switch activity.
type WindowStats struct {
	PacketsIn  uint64
	Mirrored   uint64
	Collisions uint64
	DumpTuples uint64
}

// Merge folds another shard's stats into s. The merge is associative and
// commutative (plain addition per column), which is what makes the sharded
// pipeline's window close order-independent. Note that shards driven via
// ProcessView report PacketsIn = 0 — the parse side owns that count, since
// every shard sees every frame.
func (s *WindowStats) Merge(o WindowStats) {
	s.PacketsIn += o.PacketsIn
	s.Mirrored += o.Mirrored
	s.Collisions += o.Collisions
	s.DumpTuples += o.DumpTuples
}

// instState is the runtime state of one installed instance.
type instState struct {
	spec  *InstanceSpec
	banks []*RegisterBank // by table index; nil for stateless tables
	// outCols[t] holds the column headers stateful table t emits in the
	// batched walk: its key columns aliased, a reduce's aggregate after them.
	outCols [][]tuple.Column
	// dynRules holds the dynamic filter rule set per table index (parallel to
	// spec.Tables up to CutAt; nil until first published). A set is immutable
	// and swapped whole, so a probe takes no lock.
	dynRules []atomic.Pointer[query.DynSet]
	// out carries the instance's static mirror identity; the batched walk
	// fills in the rest per batch and hands it to the sink.
	out MirrorBatch
	// valsBufs are per-packet buffers so the frame-at-a-time walk does not
	// allocate; mirrors may alias them (documented: callers must not retain
	// Vals past the callback). They are a ping-pong pair: every table that
	// produces a metadata tuple writes the buffer vals does not currently
	// occupy, so a producer never overwrites the tuple it is reading.
	valsBufs [2][]tuple.Value
	valsCur  int
	// fr is the instance's flight-recorder probe (nil when detached; nil
	// probes no-op). frStage[t] is the op whose entering packets table t
	// counts, or -1 when an earlier table already counted that op (stateful
	// ops lower to a hash-index + state-update table pair). frBase offsets
	// right-side instances into the probe's combined stage space.
	fr      *flightrec.Probe
	frStage []int
	frBase  int
	// screenTables is the number of leading filter tables (static and
	// dynamic), which see the packet: the prescreen. atoms[t] indexes the
	// shared static-clause bitmaps whose AND is packet-phase filter table t.
	screenTables int
	atoms        [][]int
	// kinds[i] says which columns of the tuple entering op i are
	// string-valued (query.ColumnKinds); the batched walk keeps those as
	// tuple.Value columns and every other one as uint64s.
	kinds [][]bool
}

// nextVals returns an n-wide tuple buffer from the instance's ping-pong
// pair, toggling so the returned buffer is never the one vals currently
// aliases. Buffers grow monotonically; the steady state allocates nothing.
func (st *instState) nextVals(n int) []tuple.Value {
	st.valsCur ^= 1
	buf := st.valsBufs[st.valsCur]
	if cap(buf) < n {
		buf = make([]tuple.Value, n)
		st.valsBufs[st.valsCur] = buf
	}
	return buf[:n]
}

// View is one frame parsed once for fan-out to switch shards. The embedded
// Packet owns its own scratch storage, so a batch of Views can be pooled
// and re-Prepared without allocation; after Prepare the view is read-only
// and safe to share across shard goroutines.
type View struct {
	Pkt   packet.Packet
	Frame []byte
	// Runnable reports whether the telemetry pipeline should see the frame:
	// the parse succeeded, or failed with ErrUnsupportedLayer (the decoded
	// prefix is valid and the frame is forwarded like any other traffic).
	Runnable bool
	// clean marks a fully decoded frame whose parse mirrors may re-use
	// (ErrUnsupportedLayer frames still run the pipeline but the emitter
	// treats their embedded packets as malformed, so their parse must not be
	// forwarded).
	clean bool
}

// Prepare parses frame into the view using p.
func (v *View) Prepare(p *packet.Parser, frame []byte) {
	v.Frame = frame
	err := p.Parse(frame, &v.Pkt)
	v.clean = err == nil
	v.Runnable = v.clean || errors.Is(err, packet.ErrUnsupportedLayer)
}

// Switch simulates the data plane: packets stream through every installed
// instance's tables; reports leave via the mirror sink; registers dump at
// window boundaries.
type Switch struct {
	cfg    Config
	insts  []*instState
	sink   MirrorSink
	stats  WindowStats
	parser *packet.Parser
	view   View // Process's parse scratch
	// dumpBuf is EndWindow's reusable RegDump slice (the returned dumps are
	// valid until the next EndWindow), pollBuf the aggregates of the bank it
	// is dumping.
	dumpBuf []RegDump
	pollBuf []uint64
	// tableUpdates counts dynamic filter entry updates (the refinement
	// overhead micro-benchmark).
	tableUpdates uint64
	// Leading-filter prescreen. pre holds the distinct static packet-phase
	// filter clauses ("atoms") that gate instance entry — program-wide, and
	// possibly shared with other switches (worker shards) via
	// NewSwitchShared. ProcessViews evaluates each atom once per batch into
	// its bitmap (in ownMasks), and every instance ANDs its atoms' masks into
	// its selection. A frame thus pays each distinct predicate once per batch
	// instead of once per instance that shares it; with ProcessViewsPre the
	// dispatch side pays it once per batch instead of once per shard.
	pre      *Prescreen
	ownMasks PrescreenMasks
	// walk is the batched walk's reusable column and selection scratch.
	walk walkScratch
	// m holds pre-registered telemetry handles; the zero value is the
	// uninstrumented (free) mode.
	m switchMetrics
}

// NewSwitch validates and installs a program. The mirror callback receives
// per-packet reports, whichever walk produced them (the batched walk's
// batches are expanded into records first); it must not retain Vals or
// Packet beyond the call unless it copies them. A nil callback discards.
func NewSwitch(cfg Config, prog *Program, mirror func(Mirror)) (*Switch, error) {
	var sink MirrorSink
	if mirror != nil {
		sink = recordSink(mirror)
	}
	return NewSwitchShared(cfg, prog, sink, nil)
}

// NewSwitchShared is NewSwitch taking the batch-capable sink, with an
// externally owned prescreen atom space. Worker shards built over slices of
// one program pass the same Prescreen so their leading-filter clauses dedup
// program-wide; the dispatch side then evaluates the atoms once per batch
// (Prescreen.Eval) and each shard consumes the bitmaps via ProcessViewsPre.
// A nil ps gives the switch a private atom space; a nil sink discards.
func NewSwitchShared(cfg Config, prog *Program, sink MirrorSink, ps *Prescreen) (*Switch, error) {
	if err := prog.Validate(cfg); err != nil {
		return nil, err
	}
	if sink == nil {
		sink = nullSink{}
	}
	// The switch parser extracts headers only; deep (DNS/payload) parsing
	// happens at the emitter/stream processor, as in the paper.
	sw := &Switch{cfg: cfg, sink: sink, parser: packet.NewParser(packet.ParserOptions{})}
	if ps == nil {
		ps = NewPrescreen()
	}
	sw.pre = ps
	for _, spec := range prog.Instances {
		st := &instState{spec: spec, banks: make([]*RegisterBank, spec.CutAt),
			outCols:  make([][]tuple.Column, spec.CutAt),
			dynRules: make([]atomic.Pointer[query.DynSet], spec.CutAt),
			frStage:  make([]int, spec.CutAt), atoms: make([][]int, spec.CutAt),
			kinds: query.ColumnKinds(spec.Ops, nil)}
		// Whichever side of the cut reads a header field reads it from the
		// batch's columns: the stream processor resumes over the same frames.
		ps.fields.AddOps(spec.Ops)
		// Until the first map runs, tables see the packet: that is the
		// leading run of filter tables. Their static clauses become shared
		// atoms, deduplicated across every switch sharing the prescreen —
		// instances installed at several refinement levels (or partitioned
		// across shards) share their entry filters, so the dedup is what buys
		// the win.
		counted := -1 // last op a table counted entering packets for
		for t := 0; t < spec.CutAt; t++ {
			tab := &spec.Tables[t]
			o := &spec.Ops[tab.OpIdx]
			// A stateful op lowers to two tables (hash-index + state-update);
			// count its entering packets at the first table only.
			st.frStage[t] = -1
			if tab.OpIdx != counted {
				st.frStage[t], counted = tab.OpIdx, tab.OpIdx
			}
			if st.screenTables == t && (tab.Kind == compile.TableFilter || tab.Kind == compile.TableDynFilter) {
				st.screenTables = t + 1
			}
			switch {
			case tab.Kind == compile.TableFilter && st.kinds[tab.OpIdx] == nil:
				for _, cl := range o.Clauses {
					st.atoms[t] = append(st.atoms[t], ps.intern(cl))
				}
			case tab.Stateful:
				n := spec.RegEntries[t]
				if n <= 0 {
					return nil, fmt.Errorf("pisa: %s table %d: no register entries", spec.Name(), t)
				}
				// One register slot holds the key at the column widths the
				// compiler charges for it (their sum is tab.KeyBits).
				in := o.InSchema()
				keyBits := make([]int, len(o.KeyCols))
				for j, k := range o.KeyCols {
					keyBits[j] = in[k].Bits()
				}
				st.banks[t] = NewRegisterBank(n, cfg.RegisterChains, keyBits)
				st.outCols[t] = make([]tuple.Column, len(st.kinds[tab.OpIdx+1]))
			}
		}
		cp := compile.Pipeline{Ops: spec.Ops, Tables: spec.Tables}
		st.out = MirrorBatch{QID: spec.QID, Level: spec.Level, Side: spec.Side,
			EntryOp: cp.EntryFor(spec.CutAt).StartOp, NeedsPacket: spec.NeedsPacket}
		sw.insts = append(sw.insts, st)
	}
	return sw, nil
}

// Config returns the switch's resource configuration.
func (sw *Switch) Config() Config { return sw.cfg }

// DynTable is a handle on one dynamic filter table of an installed instance,
// resolved once so a window close publishes without searching.
type DynTable struct {
	sw    *Switch
	rules *atomic.Pointer[query.DynSet]
}

// DynTable resolves the table implementing dataflow op opIdx of the given
// instance: nil when the instance's cut leaves that filter at the stream
// processor, an error when the switch has no such instance.
func (sw *Switch) DynTable(qid uint16, level uint8, side Side, opIdx int) (*DynTable, error) {
	for _, st := range sw.insts {
		s := st.spec
		if s.QID != qid || s.Level != level || s.Side != side {
			continue
		}
		for t := 0; t < s.CutAt; t++ {
			if s.Tables[t].Kind == compile.TableDynFilter && s.Tables[t].OpIdx == opIdx {
				return &DynTable{sw: sw, rules: &st.dynRules[t]}, nil
			}
		}
		return nil, nil
	}
	return nil, fmt.Errorf("pisa: no instance q%d/r%d/s%d", qid, level, side)
}

// Publish replaces the table's entries with set, which may be shared with
// other tables, and returns the number of entries written (for the
// update-overhead accounting).
func (t *DynTable) Publish(set *query.DynSet) int {
	t.rules.Store(set)
	t.sw.tableUpdates += uint64(set.Len())
	t.sw.m.dynUpdates.Add(uint64(set.Len()))
	return set.Len()
}

// UpdateDynTable is DynTable and Publish in one call, for a control plane
// that names the table each time (the drivers' wire protocol). Entry keys
// use the masked encoding of stream.DynKeyFromValue.
func (sw *Switch) UpdateDynTable(qid uint16, level uint8, side Side, opIdx int, keys []string) (int, error) {
	t, err := sw.DynTable(qid, level, side, opIdx)
	if err != nil {
		return 0, err
	}
	if t == nil {
		return 0, fmt.Errorf("pisa: q%d/r%d/s%d has no dyn filter for op %d on the switch", qid, level, side, opIdx)
	}
	return t.Publish(query.NewDynSet(keys)), nil
}

// TableUpdates returns the cumulative count of dynamic filter entries
// written.
func (sw *Switch) TableUpdates() uint64 { return sw.tableUpdates }

// AttachFlightRec wires flight-recorder probes into every installed
// instance: per-table entering-packet counts, collision shunts, mirror
// reports, and register occupancy feed the probe of the instance's
// (qid, level). A nil lookup (or a lookup returning nil) detaches.
func (sw *Switch) AttachFlightRec(lookup func(qid uint16, level uint8) *flightrec.Probe) {
	for _, st := range sw.insts {
		spec := st.spec
		st.fr, st.frBase = nil, 0
		if lookup == nil {
			continue
		}
		p := lookup(spec.QID, spec.Level)
		if p == nil {
			continue
		}
		st.fr = p
		if spec.Side == SideRight {
			st.frBase = p.RightBase()
		}
		for _, bank := range st.banks {
			if bank != nil {
				p.AddRegCapacity(uint64(bank.Capacity()))
			}
		}
	}
}

// Process parses one frame and runs it through every installed instance.
// The packet is forwarded unmodified (Sonata only touches metadata); the
// return value is the number of mirror reports generated. Malformed frames
// are forwarded without telemetry processing, like any non-matching
// traffic.
func (sw *Switch) Process(frame []byte) int {
	sw.stats.PacketsIn++
	sw.m.packets.Inc()
	sw.view.Prepare(sw.parser, frame)
	return sw.ProcessView(&sw.view)
}

// ProcessView runs an already-parsed frame through every installed
// instance, one table after the other: the frame-at-a-time reference walk
// the batched walk is tested against. It does not count PacketsIn (a view
// may be shared by several switches; the parse side owns that count) and
// skips non-Runnable views: hard parse errors see no telemetry processing.
func (sw *Switch) ProcessView(v *View) int {
	if !v.Runnable {
		return 0
	}
	reports := 0
	for _, st := range sw.insts {
		if sw.processInstance(st, v) {
			reports++
		}
	}
	return reports
}

// ProcessViews runs a batch of already-parsed frames through every installed
// instance, instance-major and table-at-a-time (walk.go): one instance's
// tables, register banks, and dynamic rule snapshots stay hot in cache
// across the whole batch. Each distinct leading filter clause ("atom") is
// evaluated once over the batch into a selection bitmap first; an instance
// narrows the batch's runnable frames table by table, and emits its mirrors
// in frame order at the end. Per-instance frame order is unchanged from
// view-at-a-time processing — only the interleaving across instances and
// across one instance's tables differs, which no per-instance state
// observes — so window results are bit-identical to calling ProcessView per
// view. Like ProcessView it does not count PacketsIn and skips non-Runnable
// views.
func (sw *Switch) ProcessViews(vs []View) int {
	sw.pre.Eval(vs, &sw.ownMasks)
	return sw.ProcessViewsPre(vs, &sw.ownMasks)
}

// processInstance walks one packet through one instance's switch-side
// tables. It returns true if a mirror report was emitted.
func (sw *Switch) processInstance(st *instState, pv *View) bool {
	spec := st.spec
	var vals []tuple.Value // metadata tuple once past the first map
	inTuplePhase := false

	for t := 0; t < spec.CutAt; t++ {
		tab := &spec.Tables[t]
		o := &spec.Ops[tab.OpIdx]
		if s := st.frStage[t]; s >= 0 {
			st.fr.OpSwitch(st.frBase + s)
		}
		switch tab.Kind {
		case compile.TableFilter:
			if inTuplePhase {
				for i := range o.Clauses {
					if !o.Clauses[i].MatchTuple(vals) {
						return false
					}
				}
			} else {
				for i := range o.Clauses {
					if !o.Clauses[i].MatchPacket(&pv.Pkt) {
						return false
					}
				}
			}
		case compile.TableDynFilter:
			// A table not yet populated admits nothing: the finer level idles.
			if !st.dynRules[t].Load().MatchPacket(o, &pv.Pkt) {
				return false
			}
		case compile.TableMap:
			// Toggled buffer: vals (if set) occupies the other one, so a
			// tuple-phase map never writes the tuple it is reading.
			out := st.nextVals(len(o.Cols))
			if inTuplePhase {
				for i := range o.Cols {
					out[i] = o.Cols[i].Expr.EvalTuple(vals)
				}
			} else {
				for i := range o.Cols {
					v, ok := o.Cols[i].Expr.EvalPacket(&pv.Pkt)
					if !ok {
						return false
					}
					out[i] = v
				}
			}
			vals = out
			inTuplePhase = true
		case compile.TableHashIndex:
			// Index computation is folded into the bank update below.
		case compile.TableStateUpdate:
			var inc uint64 = 1
			if o.Kind == query.OpReduce {
				inc = vals[o.ValCol].U
			}
			newVal, newKey, ok := st.banks[t].Update(vals, o.KeyCols, inc, statefulFunc(o))
			if !ok {
				// Collision overflow: shunt to the stream processor, which
				// executes the stateful op itself for this packet.
				sw.shunted(st)
				sw.emit(st, st.out.shuntMirror(pv, tab.OpIdx, vals))
				return true
			}
			if t == spec.CutAt-1 {
				// One report per key via the end-of-window register dump;
				// nothing per packet.
				return false
			}
			// Mid-pipeline stateful table: distinct passes first
			// occurrences through; reduce carries the running aggregate.
			if o.Kind == query.OpDistinct && !newKey {
				return false
			}
			next := st.nextVals(len(o.KeyCols) + 1)[:len(o.KeyCols)]
			for i, j := range o.KeyCols {
				next[i] = vals[j]
			}
			if o.Kind != query.OpDistinct {
				next = append(next, tuple.U64(newVal))
			}
			vals = next
			if m := tab.MergedFilterOp; m >= 0 {
				st.fr.OpSwitch(st.frBase + m)
				mo := &spec.Ops[m]
				for i := range mo.Clauses {
					if !mo.Clauses[i].MatchTuple(vals) {
						return false
					}
				}
			}
		}
	}

	// Survived every switch table with a stateless tail (or nothing runs on
	// the switch — the All-SP plan — and every packet mirrors): report.
	sw.emit(st, st.out.tailMirror(pv, vals, inTuplePhase))
	return true
}

// shunted counts one collision overflow.
func (sw *Switch) shunted(st *instState) {
	sw.stats.Collisions++
	sw.m.collisions.Inc()
	st.fr.Collision()
}

// emit sends one record of the frame-at-a-time walk out the monitoring
// port.
func (sw *Switch) emit(st *instState, m Mirror) {
	sw.stats.Mirrored++
	sw.m.mirrored.Inc()
	st.fr.Mirror()
	sw.sink.HandleMirror(m)
}

// statefulFunc returns the aggregation a stateful op applies on the switch.
func statefulFunc(o *query.Op) query.AggFunc {
	if o.Kind == query.OpDistinct {
		return query.AggBitOr
	}
	return o.Func
}

// EndWindow dumps and resets every register bank, returning the aggregated
// tuples (filtered by any merged threshold) and the closing window's stats.
// The returned slice (and the KeyVals its entries alias) is reused: it is
// valid until the next EndWindow, and its key columns are overwritten once
// the next window's first keys arrive — callers consume or copy before
// feeding new traffic, exactly the runtime's window-close sequence.
func (sw *Switch) EndWindow() ([]RegDump, WindowStats) {
	// Occupancy peaks at the window boundary; sample it before the reset.
	sw.m.regUsed.Set(sw.registerOccupancy())
	dumps := sw.dumpBuf[:0]
	for _, st := range sw.insts {
		spec := st.spec
		for t := 0; t < spec.CutAt; t++ {
			bank := st.banks[t]
			if bank == nil {
				continue
			}
			tab := &spec.Tables[t]
			stored := bank.Stored()
			if t == spec.CutAt-1 {
				var clauses []query.Clause
				if m := tab.MergedFilterOp; m >= 0 {
					st.fr.OpSwitchN(st.frBase+m, uint64(stored))
					clauses = spec.Ops[m].Clauses
				}
				sw.pollBuf = bank.poll(sw.pollBuf[:0])
				for i, val := range sw.pollBuf {
					keys := bank.store.KeyVals(i)
					if !dumpPasses(clauses, keys, val) {
						continue
					}
					st.fr.DumpTuple()
					dumps = append(dumps, RegDump{QID: spec.QID, Level: spec.Level,
						Side: spec.Side, MergeOp: tab.OpIdx, KeyVals: keys, Val: val})
				}
			}
			st.fr.RegOccupied(uint64(stored))
			bank.Reset()
		}
	}
	sw.dumpBuf = dumps
	sw.stats.DumpTuples = uint64(len(dumps))
	sw.m.dumpTuples.Add(sw.stats.DumpTuples)
	stats := sw.stats
	sw.stats = WindowStats{}
	return dumps, stats
}

// dumpPasses applies a merged threshold filter to a dump entry: a row of
// the key columns followed by the aggregate, which is the column the filter
// usually compares.
func dumpPasses(clauses []query.Clause, keys []tuple.Value, val uint64) bool {
	for i := range clauses {
		cl := &clauses[i]
		v := tuple.U64(val)
		if cl.Col < len(keys) {
			v = keys[cl.Col]
		}
		if !cl.MatchValue(v) {
			return false
		}
	}
	return true
}
