package pisa

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/compile"
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
	// Screened and Entered are the two ends of the batched walk's
	// leading-filter prescreen, summed over the instances that have one:
	// runnable frames offered to them, and frames that got past their
	// leading filters into the first table behind them.
	Screened uint64
	Entered  uint64
	// RegUsed is the keys the register banks held at the window boundary,
	// RegCapacity their slots.
	RegUsed     uint64
	RegCapacity uint64
	// Instances breaks the window down per installed instance, in
	// installation order. EndWindow's slice belongs to the switch and is
	// valid until the next EndWindow; Merge does not fold it.
	Instances []InstanceStats
}

// InstanceStats is one installed instance's share of a window on the
// switch.
type InstanceStats struct {
	QID   uint16
	Level uint8
	Side  Side
	// Mirrored, Collisions and DumpTuples are the instance's share of the
	// switch's WindowStats.
	Mirrored   uint64
	Collisions uint64
	DumpTuples uint64
	// RegUsed is the keys the instance's register banks held at the window
	// boundary, RegCapacity their slots.
	RegUsed     uint64
	RegCapacity uint64
	// OpIn[i] counts the packets entering dataflow op i of the instance's
	// pipeline on the switch (0 past the cut): the popcount of the selection
	// entering the op's first table.
	OpIn []uint64
}

// reset zeroes the window's counts, keeping the instance's identity and
// capacity.
func (is *InstanceStats) reset() {
	is.Mirrored, is.Collisions, is.DumpTuples, is.RegUsed = 0, 0, 0, 0
	clear(is.OpIn)
}

// Merge folds another shard's stats into s. The merge is associative and
// commutative (plain addition per column), which is what makes the sharded
// pipeline's window close order-independent. A switch reports PacketsIn = 0:
// the side that parses the frames into views owns that count, since every
// shard sees every frame.
func (s *WindowStats) Merge(o WindowStats) {
	s.PacketsIn += o.PacketsIn
	s.Mirrored += o.Mirrored
	s.Collisions += o.Collisions
	s.DumpTuples += o.DumpTuples
	s.Screened += o.Screened
	s.Entered += o.Entered
	s.RegUsed += o.RegUsed
	s.RegCapacity += o.RegCapacity
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
	// stats is the instance's window so far. opAt[t] is the op whose
	// entering packets table t counts, or -1 when an earlier table already
	// counted that op (stateful ops lower to a hash-index + state-update
	// table pair).
	stats InstanceStats
	opAt  []int
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
	cfg   Config
	insts []*instState
	sink  MirrorSink
	stats WindowStats
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
	// closed holds each instance's stats of the window EndWindow closed
	// last; EndWindow swaps them with the instances' live ones.
	closed []InstanceStats
}

// NewSwitch validates and installs a program whose reports reach a
// per-record callback: each mirror batch of the walk is expanded into its
// records, in frame order per instance. The callback must not retain Vals or
// Packet beyond the call unless it copies them. A nil callback discards.
func NewSwitch(cfg Config, prog *Program, mirror func(Mirror)) (*Switch, error) {
	var sink MirrorSink
	if mirror != nil {
		sink = recordSink(mirror)
	}
	return NewSwitchShared(cfg, prog, sink, nil)
}

// NewSwitchShared is NewSwitch taking a batch sink, with an externally
// owned prescreen atom space. Worker shards built over slices of
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
	sw := &Switch{cfg: cfg, sink: sink}
	if ps == nil {
		ps = NewPrescreen()
	}
	sw.pre = ps
	for _, spec := range prog.Instances {
		st := &instState{spec: spec, banks: make([]*RegisterBank, spec.CutAt),
			outCols:  make([][]tuple.Column, spec.CutAt),
			dynRules: make([]atomic.Pointer[query.DynSet], spec.CutAt),
			opAt:     make([]int, spec.CutAt), atoms: make([][]int, spec.CutAt),
			kinds: query.ColumnKinds(spec.Ops, nil)}
		st.stats = InstanceStats{QID: spec.QID, Level: spec.Level, Side: spec.Side,
			OpIn: make([]uint64, len(spec.Ops))}
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
			st.opAt[t] = -1
			if tab.OpIdx != counted {
				st.opAt[t], counted = tab.OpIdx, tab.OpIdx
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
				// One register slot holds the key at the column widths the
				// compiler charges for it (their sum is tab.KeyBits).
				in := o.InSchema()
				keyBits := make([]int, len(o.KeyCols))
				for j, k := range o.KeyCols {
					keyBits[j] = in[k].Bits()
				}
				st.banks[t] = NewRegisterBank(spec.RegEntries[t], cfg.RegisterChains, keyBits)
				st.stats.RegCapacity += uint64(st.banks[t].Capacity())
				st.outCols[t] = make([]tuple.Column, len(st.kinds[tab.OpIdx+1]))
			}
		}
		cp := compile.Pipeline{Ops: spec.Ops, Tables: spec.Tables}
		st.out = MirrorBatch{QID: spec.QID, Level: spec.Level, Side: spec.Side,
			EntryOp: cp.EntryFor(spec.CutAt).StartOp, NeedsPacket: spec.NeedsPacket}
		sw.insts = append(sw.insts, st)
		closed := st.stats
		closed.OpIn = make([]uint64, len(spec.Ops))
		sw.closed = append(sw.closed, closed)
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
	return set.Len()
}

// UpdateDynTable is DynTable and Publish in one call, for a control plane
// that names the table each time (the drivers' wire protocol). Entry keys
// are values masked to the table's level (query.MaskValue).
func (sw *Switch) UpdateDynTable(qid uint16, level uint8, side Side, opIdx int, keys []tuple.Value) (int, error) {
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

// ProcessViews runs a batch of already-parsed frames through every installed
// instance, instance-major and table-at-a-time (walk.go): one instance's
// tables, register banks, and dynamic rule snapshots stay hot in cache
// across the whole batch. Each distinct leading filter clause ("atom") is
// evaluated once over the batch into a selection bitmap first; an instance
// narrows the batch's runnable frames table by table, and emits its mirrors
// in frame order at the end. Per-instance frame order is unchanged from
// walking one frame at a time — only the interleaving across instances and
// across one instance's tables differs, which no per-instance state
// observes — so window results are bit-identical to the frame-at-a-time
// reference walk the tests keep. It does not count PacketsIn (the caller
// that parsed the views owns that count) and skips non-Runnable views: hard
// parse errors see no telemetry processing.
func (sw *Switch) ProcessViews(vs []View) int {
	sw.pre.Eval(vs, &sw.ownMasks)
	return sw.ProcessViewsPre(vs, &sw.ownMasks)
}

// shunted counts one collision overflow.
func (sw *Switch) shunted(st *instState) {
	sw.stats.Collisions++
	st.stats.Collisions++
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
// Only a dumped entry's key is unpacked from its slot, into its bank's dump
// arena. The returned slices and the KeyVals the dumps alias are reused:
// they are valid until the next EndWindow, whatever traffic arrives in
// between.
func (sw *Switch) EndWindow() ([]RegDump, WindowStats) {
	dumps := sw.dumpBuf[:0]
	for k, st := range sw.insts {
		n := len(dumps)
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
					st.stats.OpIn[m] += uint64(stored)
					clauses = spec.Ops[m].Clauses
				}
				nk := len(spec.Ops[tab.OpIdx].KeyCols)
				sw.pollBuf = bank.poll(sw.pollBuf[:0])
				for i, val := range sw.pollBuf {
					if !dumpPasses(clauses, nk, nil, val) {
						continue // the aggregate fails: the key stays packed
					}
					if keys := bank.dumpKey(i); dumpPasses(clauses, nk, keys, val) {
						dumps = append(dumps, RegDump{QID: spec.QID, Level: spec.Level,
							Side: spec.Side, MergeOp: tab.OpIdx, KeyVals: keys, Val: val})
					}
				}
			}
			// Occupancy peaks at the window boundary: sample it before the
			// reset.
			st.stats.RegUsed += uint64(stored)
			bank.Reset()
		}
		st.stats.DumpTuples = uint64(len(dumps) - n)
		sw.stats.RegUsed += st.stats.RegUsed
		sw.stats.RegCapacity += st.stats.RegCapacity
		st.stats, sw.closed[k] = sw.closed[k], st.stats
		st.stats.reset()
	}
	sw.dumpBuf = dumps
	sw.stats.DumpTuples = uint64(len(dumps))
	stats := sw.stats
	stats.Instances = sw.closed
	sw.stats = WindowStats{}
	return dumps, stats
}

// dumpPasses applies a merged threshold filter to a dump entry: a row of
// the nk key columns followed by the aggregate, which is the column the
// filter usually compares. With keys nil, a clause on a key column passes.
func dumpPasses(clauses []query.Clause, nk int, keys []tuple.Value, val uint64) bool {
	for i := range clauses {
		cl := &clauses[i]
		v := tuple.U64(val)
		if cl.Col < nk {
			if keys == nil {
				continue
			}
			v = keys[cl.Col]
		}
		if !cl.MatchValue(v) {
			return false
		}
	}
	return true
}
