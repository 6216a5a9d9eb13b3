package pisa

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sync/atomic"

	"repro/internal/compile"
	"repro/internal/fields"
	"repro/internal/flightrec"
	"repro/internal/packet"
	"repro/internal/query"
	"repro/internal/stream"
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

// dynRuleSet is one immutable generation of a dynamic filter table's
// entries; UpdateDynTable publishes a fresh set through an atomic pointer
// (copy-on-write), so the per-packet lookup takes no lock and never sees a
// half-written table. Numeric keys (tag 'u' + 8 big-endian bytes, the
// encoding stream.DynKeyFromValue produces for non-string fields) are
// decoded into nums at publish time so the per-packet lookup skips both the
// key encoding and the string hash.
type dynRuleSet struct {
	strs map[string]struct{}
	nums map[uint64]struct{}
}

func (s *dynRuleSet) empty() bool { return len(s.strs) == 0 && len(s.nums) == 0 }

// instState is the runtime state of one installed instance.
type instState struct {
	spec  *InstanceSpec
	banks []*RegisterBank // by table index; nil for stateless tables
	// dynRules holds the dynamic filter entry snapshot per table index
	// (parallel to spec.Tables up to CutAt; nil until first populated).
	dynRules []atomic.Pointer[dynRuleSet]
	entry    compile.SPEntry
	// valsBufs and dynScratch are per-packet buffers so the hot path does
	// not allocate; mirrors may alias them (documented: callers must not
	// retain Vals past the callback). valsBufs is a ping-pong pair: every
	// table that produces a metadata tuple writes the buffer vals does not
	// currently occupy, so a producer never overwrites the tuple it is
	// reading.
	valsBufs   [2][]tuple.Value
	valsCur    int
	dynScratch []byte
	// fr is the instance's flight-recorder probe (nil when detached; nil
	// probes no-op). frStage[t] is the probe's global stage index for table
	// t's op, or -1 when an earlier table already counted that op (stateful
	// ops lower to a hash-index + state-update table pair). frBase offsets
	// right-side instances into the probe's combined stage space.
	fr      *flightrec.Probe
	frStage []int
	frBase  int
	// screenTables is the number of leading packet-phase filter tables
	// (static and dynamic) covered by the batch prescreen. screenAtoms
	// indexes the shared static-clause bitmaps whose AND gates this
	// instance's entry; screenDyn lists the leading dynamic filter tables,
	// applied per batch against one rule-set snapshot. Zero when the
	// instance's first table is not a filter (prescreen not applicable).
	screenTables int
	screenAtoms  []int
	screenDyn    []int
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
// instance's tables; reports leave via the mirror callback; registers dump
// at window boundaries.
type Switch struct {
	cfg    Config
	insts  []*instState
	mirror func(Mirror)
	stats  WindowStats
	parser *packet.Parser
	view   View // Process's parse scratch
	// dumpScratch is EndWindow's reusable (keys + aggregate) row buffer for
	// merged threshold filters; dumpBuf is its reusable RegDump slice (the
	// returned dumps are valid until the next EndWindow).
	dumpScratch []tuple.Value
	dumpBuf     []RegDump
	// tableUpdates counts dynamic filter entry updates (the refinement
	// overhead micro-benchmark).
	tableUpdates uint64
	// Leading-filter prescreen. pre holds the distinct static packet-phase
	// filter clauses ("atoms") that gate instance entry — program-wide, and
	// possibly shared with other switches (worker shards) via
	// NewSwitchShared. ProcessViews evaluates each atom once per batch into
	// its bitmap (in ownMasks), and every instance ANDs its atoms' masks
	// (into screenComb) to select the frames that enter its pipeline. A
	// frame thus pays each distinct predicate once per batch instead of once
	// per instance that shares it; with ProcessViewsPre the dispatch side
	// pays it once per batch instead of once per shard.
	// Dynamic filters in the leading run are screened per instance: one
	// rule-set snapshot per batch, probed only for frames still selected.
	// screenActive reports whether any of this switch's instances has a
	// screenable prefix; the masks' runnable bitmap seeds the combined mask
	// when an instance's prefix has dynamic filters but no static clauses.
	pre          *Prescreen
	ownMasks     PrescreenMasks
	screenComb   []uint64
	screenActive bool
	// m holds pre-registered telemetry handles; the zero value is the
	// uninstrumented (free) mode.
	m switchMetrics
}

// NewSwitch validates and installs a program. The mirror callback receives
// per-packet reports; it must not retain Vals or Packet beyond the call
// unless it copies them.
func NewSwitch(cfg Config, prog *Program, mirror func(Mirror)) (*Switch, error) {
	return NewSwitchShared(cfg, prog, mirror, nil)
}

// NewSwitchShared is NewSwitch with an externally owned prescreen atom
// space. Worker shards built over slices of one program pass the same
// Prescreen so their leading-filter clauses dedup program-wide; the
// dispatch side then evaluates the atoms once per batch (Prescreen.Eval)
// and each shard consumes the bitmaps via ProcessViewsPre. A nil ps gives
// the switch a private atom space (identical to NewSwitch).
func NewSwitchShared(cfg Config, prog *Program, mirror func(Mirror), ps *Prescreen) (*Switch, error) {
	if err := prog.Validate(cfg); err != nil {
		return nil, err
	}
	if mirror == nil {
		mirror = func(Mirror) {}
	}
	// The switch parser extracts headers only; deep (DNS/payload) parsing
	// happens at the emitter/stream processor, as in the paper.
	sw := &Switch{cfg: cfg, mirror: mirror, parser: packet.NewParser(packet.ParserOptions{})}
	for _, spec := range prog.Instances {
		st := &instState{spec: spec, banks: make([]*RegisterBank, spec.CutAt),
			dynRules: make([]atomic.Pointer[dynRuleSet], spec.CutAt)}
		for t := 0; t < spec.CutAt; t++ {
			tab := &spec.Tables[t]
			if tab.Stateful {
				n := spec.RegEntries[t]
				if n <= 0 {
					return nil, fmt.Errorf("pisa: %s table %d: no register entries", spec.Name(), t)
				}
				st.banks[t] = NewRegisterBank(n, cfg.RegisterChains)
			}
		}
		cp := compile.Pipeline{Ops: spec.Ops, Tables: spec.Tables}
		st.entry = cp.EntryFor(spec.CutAt)
		sw.insts = append(sw.insts, st)
	}
	// Collect the prescreen: each instance's leading run of packet-phase
	// filter tables (no map has run yet, so all are packet-phase). Static
	// clauses become shared atoms, deduplicated across every switch sharing
	// the prescreen — instances installed at several refinement levels (or
	// partitioned across shards) share their entry filters, so the dedup is
	// what buys the win. Dynamic filter tables in the run are recorded per
	// instance for the snapshot-per-batch screen.
	if ps == nil {
		ps = NewPrescreen()
	}
	sw.pre = ps
	for _, st := range sw.insts {
		spec := st.spec
		t := 0
	scan:
		for t < spec.CutAt {
			switch spec.Tables[t].Kind {
			case compile.TableFilter:
				o := &spec.Ops[spec.Tables[t].OpIdx]
				for _, cl := range o.Clauses {
					st.screenAtoms = append(st.screenAtoms, ps.intern(cl))
				}
			case compile.TableDynFilter:
				st.screenDyn = append(st.screenDyn, t)
			default:
				break scan
			}
			t++
		}
		st.screenTables = t
		if t > 0 {
			sw.screenActive = true
			ps.active = true
		}
	}
	return sw, nil
}

// Config returns the switch's resource configuration.
func (sw *Switch) Config() Config { return sw.cfg }

// UpdateDynTable replaces the dynamic filter entries of the instance's
// table implementing the given dataflow op. Entry keys use the same masked
// encoding as stream.DynKeyFromValue. Returns the number of entries
// written (for the update-overhead accounting).
func (sw *Switch) UpdateDynTable(qid uint16, level uint8, side Side, opIdx int, keys []string) (int, error) {
	for _, st := range sw.insts {
		s := st.spec
		if s.QID != qid || s.Level != level || s.Side != side {
			continue
		}
		for t := 0; t < s.CutAt; t++ {
			if s.Tables[t].Kind == compile.TableDynFilter && s.Tables[t].OpIdx == opIdx {
				set := &dynRuleSet{}
				for _, k := range keys {
					if len(k) == 9 && k[0] == 'u' {
						if set.nums == nil {
							set.nums = make(map[uint64]struct{}, len(keys))
						}
						set.nums[binary.BigEndian.Uint64([]byte(k[1:9]))] = struct{}{}
					} else {
						if set.strs == nil {
							set.strs = make(map[string]struct{}, len(keys))
						}
						set.strs[k] = struct{}{}
					}
				}
				st.dynRules[t].Store(set)
				sw.tableUpdates += uint64(len(keys))
				sw.m.dynUpdates.Add(uint64(len(keys)))
				return len(keys), nil
			}
		}
		return 0, fmt.Errorf("pisa: %s has no dyn filter for op %d on the switch", s.Name(), opIdx)
	}
	return 0, fmt.Errorf("pisa: no instance q%d/r%d/s%d", qid, level, side)
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
		st.fr, st.frStage, st.frBase = nil, nil, 0
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
		// A stateful op lowers to two tables (hash-index + state-update);
		// count its entering packets at the first table only.
		st.frStage = make([]int, spec.CutAt)
		seen := make(map[int]bool, spec.CutAt)
		for t := 0; t < spec.CutAt; t++ {
			op := spec.Tables[t].OpIdx
			if seen[op] {
				st.frStage[t] = -1
				continue
			}
			seen[op] = true
			st.frStage[t] = st.frBase + op
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
// instance, unscreened and from table 0: the frame-at-a-time reference walk
// the batched paths are tested against. It does not count PacketsIn (a view
// may be shared by several switches; the parse side owns that count) and
// skips non-Runnable views: hard parse errors see no telemetry processing.
func (sw *Switch) ProcessView(v *View) int {
	if !v.Runnable {
		return 0
	}
	reports := 0
	for _, st := range sw.insts {
		if sw.processInstance(st, v, 0) {
			reports++
		}
	}
	return reports
}

// ProcessViews runs a batch of already-parsed frames through every installed
// instance, instance-major: the outer loop walks instances, the inner one
// frames, so one instance's tables, register banks, and dynamic rule
// snapshots stay hot in cache across the whole batch. Before the instance
// loop, each distinct leading filter clause ("atom") is evaluated once over
// the batch into a selection bitmap; an instance whose entry is guarded by
// such filters ANDs its atoms' bitmaps and walks only the surviving frames,
// entering its pipeline past the prescreened tables. Per-instance frame
// order is unchanged from view-at-a-time processing, and prescreened
// rejection has exactly the side effects of a scalar first-filter
// rejection (none) — only the interleaving across instances differs, which
// no per-instance state observes — so window results are bit-identical to
// calling ProcessView per view. Like ProcessView it does not count
// PacketsIn and skips non-Runnable views. Instances with a flight-recorder
// probe attached take the unscreened walk so per-stage funnel counts keep
// their exact per-packet semantics.
func (sw *Switch) ProcessViews(vs []View) int {
	if sw.screenActive && len(vs) > 0 {
		sw.pre.Eval(vs, &sw.ownMasks)
		return sw.processViewsScreened(vs, &sw.ownMasks)
	}
	return sw.processViewsScreened(vs, nil)
}

// ProcessViewsPre is ProcessViews with the prescreen bitmaps already
// computed by the dispatch side (Prescreen.Eval over the same batch, using
// the shared atom space this switch was built with via NewSwitchShared).
// The masks are consulted read-only, so any number of shards can consume
// the same PrescreenMasks concurrently; each shard only ANDs the masks its
// own instances reference instead of re-evaluating every clause over every
// frame. A nil m falls back to evaluating locally.
func (sw *Switch) ProcessViewsPre(vs []View, m *PrescreenMasks) int {
	if m == nil {
		return sw.ProcessViews(vs)
	}
	return sw.processViewsScreened(vs, m)
}

func (sw *Switch) processViewsScreened(vs []View, m *PrescreenMasks) int {
	reports := 0
	screened := sw.screenActive && len(vs) > 0 && m != nil
	if screened {
		words := (len(vs) + 63) >> 6
		if cap(sw.screenComb) < words {
			sw.screenComb = make([]uint64, words)
		}
		sw.screenComb = sw.screenComb[:words]
	}
	for _, st := range sw.insts {
		if screened && st.screenTables > 0 && st.fr == nil {
			comb := sw.screenComb
			if len(st.screenAtoms) > 0 {
				copy(comb, m.atoms[st.screenAtoms[0]])
				for _, a := range st.screenAtoms[1:] {
					am := m.atoms[a]
					for w := range comb {
						comb[w] &= am[w]
					}
				}
			} else {
				copy(comb, m.runnable)
			}
			idle := false
			for _, t := range st.screenDyn {
				if !sw.applyDynScreen(st, t, vs, comb) {
					idle = true
					break
				}
			}
			if idle {
				continue // unpopulated dynamic filter: no frame enters
			}
			for w, word := range comb {
				for b := word; b != 0; b &= b - 1 {
					if sw.processInstance(st, &vs[w<<6|bits.TrailingZeros64(b)], st.screenTables) {
						reports++
					}
				}
			}
			continue
		}
		for i := range vs {
			v := &vs[i]
			if !v.Runnable {
				continue
			}
			if sw.processInstance(st, v, 0) {
				reports++
			}
		}
	}
	return reports
}

// applyDynScreen narrows comb to the frames whose masked key is in table
// t's dynamic rule set, loading the copy-on-write snapshot once for the
// whole batch (rule updates happen between batches — at window close — so
// one snapshot per batch observes every update a per-packet load would).
// Returns false when the set is empty or unpublished, meaning the instance
// is idle and the whole batch is rejected.
func (sw *Switch) applyDynScreen(st *instState, t int, vs []View, comb []uint64) bool {
	rp := st.dynRules[t].Load()
	if rp == nil || rp.empty() {
		return false
	}
	o := &st.spec.Ops[st.spec.Tables[t].OpIdx]
	for w, word := range comb {
		for b := word; b != 0; b &= b - 1 {
			i := w<<6 | bits.TrailingZeros64(b)
			v, ok := vs[i].Pkt.Field(o.DynKeyField)
			if ok {
				if !v.Str {
					_, ok = rp.nums[fields.TruncateU64(o.DynKeyField, v.U, o.DynLevel)]
				} else {
					st.dynScratch = stream.AppendDynKey(st.dynScratch[:0], o.DynKeyField, v, o.DynLevel)
					_, ok = rp.strs[string(st.dynScratch)]
				}
			}
			if !ok {
				comb[w] &^= 1 << uint(i&63)
			}
		}
	}
	return true
}

// processInstance walks one instance's switch-side tables starting at table
// index from (non-zero only on the prescreened batch path, where the
// leading filter tables already passed). It returns true if a mirror report
// was emitted.
func (sw *Switch) processInstance(st *instState, pv *View, from int) bool {
	spec := st.spec
	if spec.CutAt == 0 {
		// Nothing on the switch: mirror every packet (the All-SP plan).
		m := Mirror{QID: spec.QID, Level: spec.Level, Side: spec.Side,
			EntryOp: 0, Packet: pv.Frame}
		if pv.clean {
			m.Parsed = &pv.Pkt
		}
		sw.emit(st, m)
		return true
	}

	var vals []tuple.Value // metadata tuple once past the first map
	inTuplePhase := false

	for t := from; t < spec.CutAt; t++ {
		tab := &spec.Tables[t]
		o := &spec.Ops[tab.OpIdx]
		if st.fr != nil && st.frStage[t] >= 0 {
			st.fr.OpSwitch(st.frStage[t])
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
			rp := st.dynRules[t].Load()
			if rp == nil || rp.empty() {
				return false // not yet populated: finer level idle
			}
			v, ok := pv.Pkt.Field(o.DynKeyField)
			if !ok {
				return false
			}
			if !v.Str {
				// Numeric fast path: mask in registers and probe the decoded
				// set directly, skipping the key encoding and string hash.
				masked := fields.TruncateU64(o.DynKeyField, v.U, o.DynLevel)
				if _, ok := rp.nums[masked]; !ok {
					return false
				}
				break
			}
			// Build the masked key into the per-instance scratch; the map
			// index's string conversion does not escape, so the lookup is
			// allocation-free.
			st.dynScratch = stream.AppendDynKey(st.dynScratch[:0], o.DynKeyField, v, o.DynLevel)
			if _, ok := rp.strs[string(st.dynScratch)]; !ok {
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
			bank := st.banks[t]
			var inc uint64 = 1
			if o.Kind == query.OpReduce {
				inc = vals[o.ValCol].U
			}
			newVal, newKey, ok := bank.Update(vals, o.KeyCols, inc, statefulFunc(o))
			if !ok {
				// Collision overflow: shunt to the stream processor, which
				// executes the stateful op itself for this packet.
				sw.stats.Collisions++
				sw.m.collisions.Inc()
				st.fr.Collision()
				m := Mirror{QID: spec.QID, Level: spec.Level, Side: spec.Side,
					Overflow: true, MergeOp: tab.OpIdx, Vals: vals}
				if spec.NeedsPacket {
					m.Packet = pv.Frame
					if pv.clean {
						m.Parsed = &pv.Pkt
					}
				}
				sw.emit(st, m)
				return true
			}
			last := t == spec.CutAt-1
			if last {
				// One report per key via the end-of-window register dump;
				// nothing per packet.
				return false
			}
			// Mid-pipeline stateful table: distinct passes first
			// occurrences through; reduce carries the running aggregate.
			if o.Kind == query.OpDistinct {
				if !newKey {
					return false
				}
				next := st.nextVals(len(o.KeyCols))
				for i, j := range o.KeyCols {
					next[i] = vals[j]
				}
				vals = next
			} else {
				next := st.nextVals(len(o.KeyCols) + 1)
				for i, j := range o.KeyCols {
					next[i] = vals[j]
				}
				next[len(o.KeyCols)] = tuple.U64(newVal)
				vals = next
			}
			if m := tab.MergedFilterOp; m >= 0 {
				if st.fr != nil {
					st.fr.OpSwitch(st.frBase + m)
				}
				mo := &spec.Ops[m]
				for i := range mo.Clauses {
					if !mo.Clauses[i].MatchTuple(vals) {
						return false
					}
				}
			}
		}
	}

	// Survived every switch table with a stateless tail: report.
	m := Mirror{QID: spec.QID, Level: spec.Level, Side: spec.Side,
		EntryOp: st.entry.StartOp}
	if inTuplePhase {
		m.Vals = vals
	}
	if !inTuplePhase || spec.NeedsPacket {
		m.Packet = pv.Frame
		if pv.clean {
			m.Parsed = &pv.Pkt
		}
	}
	sw.emit(st, m)
	return true
}

func (sw *Switch) emit(st *instState, m Mirror) {
	sw.stats.Mirrored++
	sw.m.mirrored.Inc()
	st.fr.Mirror()
	sw.mirror(m)
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
			last := t == spec.CutAt-1
			if last {
				for i, n := 0, bank.Stored(); i < n; i++ {
					e := bank.Entry(i)
					if m := tab.MergedFilterOp; m >= 0 {
						if st.fr != nil {
							st.fr.OpSwitch(st.frBase + m)
						}
						if !sw.dumpPasses(&spec.Ops[m], e) {
							continue
						}
					}
					st.fr.DumpTuple()
					dumps = append(dumps, RegDump{QID: spec.QID, Level: spec.Level,
						Side: spec.Side, MergeOp: tab.OpIdx, KeyVals: e.KeyVals, Val: e.Val})
				}
			}
			st.fr.RegOccupied(uint64(bank.Stored()))
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

// dumpPasses applies a merged threshold filter to a dump entry. The filter
// compares the aggregate column, which sits after the keys; the row is
// assembled in a switch-level scratch so a full-register dump does not
// allocate per entry.
func (sw *Switch) dumpPasses(o *query.Op, e DumpEntry) bool {
	vals := append(sw.dumpScratch[:0], e.KeyVals...)
	vals = append(vals, tuple.U64(e.Val))
	sw.dumpScratch = vals[:0]
	for i := range o.Clauses {
		if !o.Clauses[i].MatchTuple(vals) {
			return false
		}
	}
	return true
}
