// Package flightrec is the per-query flight recorder: a fixed-capacity,
// allocation-bounded ring buffer of per-(query, refinement-level) window
// records. Each record carries the tuples entering and leaving every
// pipeline op, switch register occupancy and collision counts, the
// mirrored-tuple and bytes-to-SP volume, the refinement transition applied
// at the window's close, the shard busy time attributed back to the
// instance, and the planner's trained work estimate next to the observed
// op-level work with a rolling drift ratio — the continuous estimate-vs-
// actual signal that tells an operator when a plan has gone stale.
//
// The recorder is fed by the same increments that build the runtime's
// WindowReport (the switch, engine, and emitter bump a Probe exactly where
// they bump their WindowStats/Metrics counters), so the recorder can never
// disagree with the printed reports. Probes follow the telemetry package's
// handle discipline: a nil *Probe (or nil *Recorder) is a no-op on every
// method, so an unattached deployment pays only a nil check.
//
// Concurrency contract: a probe's window accumulators are written only by
// the goroutine that owns its instance (the sharded runtime's single-owner
// invariant); the runtime calls Commit from the main goroutine after the
// window-end join, and Snapshot readers only ever see committed ring slots
// under the recorder's lock.
package flightrec

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// DefaultCapacity is the ring size (windows retained) when the caller does
// not choose one.
const DefaultCapacity = 64

// StageInfo statically describes one pipeline op of a tracked instance.
type StageInfo struct {
	// Label is the rendered stage name, e.g. "L0 dynfilter@sw".
	Label string
	// Kind is the op kind ("filter", "map", "reduce", "distinct").
	Kind string
	// Stateful marks reduce/distinct ops (they weigh 4x in observed work,
	// matching the planner's training cost model).
	Stateful bool
	// OnSwitch marks ops compiled into the data plane (before the cut).
	OnSwitch bool
	// Seg is the pipeline segment: 0 left, 1 right, 2 post-join. Out counts
	// for switch-resident stateless ops are derived from the next stage's
	// In, which is only valid within one segment.
	Seg int
}

// TrackConfig registers one (query, level) instance with the recorder.
type TrackConfig struct {
	QID   uint16
	Level uint8
	// Shard is the shard owning the instance.
	Shard int
	// EstWork is the planner's trained per-window work estimate for the
	// instance (InstancePlan.EstWork summed over sides, floor 1).
	EstWork uint64
	// RefFrom is the coarser refinement level gating this instance, -1 when
	// the instance is not the target of a refinement link.
	RefFrom int
	// NumLeft / NumRight size the stage index bases: right-side ops map to
	// stage NumLeft+i, post-join ops to NumLeft+NumRight+i.
	NumLeft  int
	NumRight int
	// Stages lists every op: left, then right, then post, concatenated.
	Stages []StageInfo
}

// Probe is the per-instance window accumulator handed to the switch, the
// stream engine, and the emitter. All mutating methods are nil-safe no-ops.
type Probe struct {
	cfg TrackConfig

	// Window accumulators (reset by Commit). Written by the instance's
	// owner goroutine during the window; regUsed/dumpTuples/refinement by
	// the main goroutine at window close, after the worker join.
	tuplesToSP  uint64
	mirrored    uint64
	mirrorBytes uint64
	delivBytes  uint64
	collisions  uint64
	dumpTuples  uint64
	regUsed     uint64
	results     uint64
	evalNS      int64
	freshNS     int64
	opInSw      []uint64 // tuples entering each stage on the switch
	opInSP      []uint64 // tuples entering each stage at the stream processor
	opOut       []uint64 // emissions of each stage at the stream processor
	refKeys     uint64
	refChanged  bool

	// Static after attach.
	regCapacity uint64

	// Cumulative, updated by Commit.
	cumTuples uint64
	cumBytes  uint64
	drift     float64
	driftSet  bool
}

// RightBase returns the stage index of the right pipeline's first op.
func (p *Probe) RightBase() int { return p.cfg.NumLeft }

// PostBase returns the stage index of the post-join pipeline's first op.
func (p *Probe) PostBase() int { return p.cfg.NumLeft + p.cfg.NumRight }

// Tuple counts one tuple (or mirrored packet) delivered to the stream
// processor — the same increment that builds WindowReport.PerQuery.
func (p *Probe) Tuple() {
	if p != nil {
		p.tuplesToSP++
	}
}

// TupleN is Tuple for n tuples delivered in one hand-off.
func (p *Probe) TupleN(n uint64) {
	if p != nil {
		p.tuplesToSP += n
	}
}

// Mirror counts one mirror report leaving the switch.
func (p *Probe) Mirror() {
	if p != nil {
		p.mirrored++
	}
}

// MirrorN is Mirror for the n reports of one mirror batch.
func (p *Probe) MirrorN(n uint64) {
	if p != nil {
		p.mirrored += n
	}
}

// Bytes counts encoded telemetry bytes crossing the monitoring port.
func (p *Probe) Bytes(n uint64) {
	if p != nil {
		p.mirrorBytes += n
	}
}

// Delivered counts encoded result bytes queued for subscribers on behalf of
// this instance — the subscription server's per-(query, level) attribution
// of the delivery path. Called from the publish step of window close (main
// goroutine), like the other boundary accumulators.
func (p *Probe) Delivered(n uint64) {
	if p != nil {
		p.delivBytes += n
	}
}

// Collision counts one register overflow shunted to the stream processor.
func (p *Probe) Collision() {
	if p != nil {
		p.collisions++
	}
}

// DumpTuple counts one register dump entry reported at the window boundary.
func (p *Probe) DumpTuple() {
	if p != nil {
		p.dumpTuples++
	}
}

// RegOccupied adds one bank's stored-key count to the window's occupancy
// sample (taken at the window boundary, before the reset).
func (p *Probe) RegOccupied(n uint64) {
	if p != nil {
		p.regUsed += n
	}
}

// AddRegCapacity accumulates the instance's total register slots (static;
// called once per bank at attach).
func (p *Probe) AddRegCapacity(n uint64) {
	if p != nil {
		p.regCapacity += n
	}
}

// Eval records the instance's window-close evaluation: result tuples and
// evaluation wall time.
func (p *Probe) Eval(results uint64, d time.Duration) {
	if p != nil {
		p.results += results
		p.evalNS += d.Nanoseconds()
	}
}

// Fresh records the window's freshness watermark: nanoseconds from the
// window's first frame to publish completion. Called once per window from
// the close path (main goroutine), like the other boundary accumulators.
func (p *Probe) Fresh(ns int64) {
	if p != nil {
		p.freshNS = ns
	}
}

// OpSwitch counts one packet entering the given stage in the data plane.
func (p *Probe) OpSwitch(stage int) {
	if p != nil {
		p.opInSw[stage]++
	}
}

// OpSwitchN counts n packets entering the given stage in the data plane: the
// batched switch walk adds each stage's count once per batch, as the
// popcount of the selection entering it.
func (p *Probe) OpSwitchN(stage int, n uint64) {
	if p != nil {
		p.opInSw[stage] += n
	}
}

// OpSP adds one stage's stream-processor entering/emission counts (the
// engine flushes its per-op counters here at window end).
func (p *Probe) OpSP(stage int, in, out uint64) {
	if p != nil {
		p.opInSP[stage] += in
		p.opOut[stage] += out
	}
}

// Refined records the refinement update applied at this window's close:
// the number of keys the coarser level reported (gating the next window)
// and whether the key set changed from the previous window.
func (p *Probe) Refined(keys uint64, changed bool) {
	if p != nil {
		p.refKeys = keys
		p.refChanged = changed
	}
}

// OpRecord is one pipeline stage of a committed record.
type OpRecord struct {
	Label string `json:"label"`
	// In is the tuples entering the op this window (switch- plus SP-side).
	In uint64 `json:"in"`
	// Out is the tuples the op emitted. For switch-resident stateless ops
	// it is derived as the next stage's In within the same segment (0 when
	// the op is the last of its segment).
	Out uint64 `json:"out"`
}

// Record is one (query, level) instance's committed window.
type Record struct {
	Window int    `json:"window"`
	QID    uint16 `json:"qid"`
	Level  uint8  `json:"level"`
	Shard  int    `json:"shard"`
	// PacketsIn is the window's total frame count (shared by every record;
	// Reduction = PacketsIn / max(TuplesToSP, 1) is the paper's headline
	// per-query tuple-reduction factor).
	PacketsIn   uint64  `json:"packets_in"`
	TuplesToSP  uint64  `json:"tuples_to_sp"`
	Reduction   float64 `json:"reduction"`
	Results     uint64  `json:"result_tuples"`
	Mirrored    uint64  `json:"mirrored"`
	MirrorBytes uint64  `json:"mirror_bytes"`
	// DeliveredBytes is the encoded update volume queued to subscribers for
	// this instance this window (0 when no subscription server is attached).
	DeliveredBytes uint64 `json:"delivered_bytes"`
	Collisions     uint64 `json:"collisions"`
	DumpTuples     uint64 `json:"dump_tuples"`
	RegUsed        uint64 `json:"reg_used"`
	RegCapacity    uint64 `json:"reg_capacity"`
	EvalNS         int64  `json:"eval_ns"`
	// FreshNS is the freshness watermark: nanoseconds from the window's
	// first frame to publish completion (0 when the runtime saw no frames).
	FreshNS int64 `json:"fresh_ns"`
	// BusyNS is the shard busy time attributed to this instance: the owner
	// shard's window busy time scaled by the instance's share of the
	// shard's observed work.
	BusyNS int64 `json:"busy_ns"`
	// EstWork is the planner's trained estimate; ObsWork the same cost
	// model evaluated on this window's observed per-op tuple counts
	// (stateful ops x4, collisions x8); Drift the rolling EWMA of
	// ObsWork/EstWork. Drift near 1.0 means the plan still matches
	// traffic; drift far from 1.0 flags a stale plan.
	EstWork uint64  `json:"est_work"`
	ObsWork uint64  `json:"obs_work"`
	Drift   float64 `json:"drift"`
	// RefFrom / RefKeys / RefChanged describe the refinement transition
	// applied at this window's close: the coarser level feeding the gate,
	// how many keys it reported, and whether the key set changed.
	RefFrom    int        `json:"ref_from"`
	RefKeys    uint64     `json:"ref_keys"`
	RefChanged bool       `json:"ref_changed"`
	CumTuples  uint64     `json:"cum_tuples"`
	CumBytes   uint64     `json:"cum_bytes"`
	Ops        []OpRecord `json:"ops"`
}

// Snapshot is the recorder state handed to /debug/queries consumers.
type Snapshot struct {
	// Window is the most recently committed window index (-1 before the
	// first commit).
	Window int `json:"window"`
	// Committed counts windows committed since the last Reset; Capacity is
	// the ring size and Evicted how many unread windows were overwritten.
	Committed uint64 `json:"committed"`
	Capacity  int    `json:"capacity"`
	Evicted   uint64 `json:"evicted"`
	// WindowP50NS/WindowP99NS and FreshP50NS/FreshP99NS are approximate
	// quantiles of the runtime's window-duration and freshness histograms
	// (0 when the deployment is uninstrumented or has no samples yet).
	WindowP50NS int64 `json:"window_p50_ns,omitempty"`
	WindowP99NS int64 `json:"window_p99_ns,omitempty"`
	FreshP50NS  int64 `json:"fresh_p50_ns,omitempty"`
	FreshP99NS  int64 `json:"fresh_p99_ns,omitempty"`
	// TraceURL points at the latest window's retained trace tree when the
	// tracer kept one (empty otherwise).
	TraceURL string `json:"trace_url,omitempty"`
	// Queries holds the latest window's records in installation order.
	Queries []Record `json:"queries"`
	// History holds up to the requested number of older windows, newest
	// first.
	History [][]Record `json:"history,omitempty"`
}

// slot is one ring entry: the records of one committed window.
type slot struct {
	seq     uint64 // 1-based commit number, 0 = never written
	window  int
	records []Record
}

// Recorder owns the probes and the ring. A nil *Recorder is a no-op.
type Recorder struct {
	mu       sync.Mutex
	onEvict  func(window int)
	capacity int
	probes   []*Probe
	slots    []slot
	commits  uint64
	served   uint64 // highest commit sequence a Snapshot has returned
	evicted  uint64
	// shardWork is commit scratch: per-shard observed-work sums for busy
	// attribution. Sized at ring allocation so Commit never allocates.
	shardWork []uint64
	mWindows  *telemetry.Counter
	mEvicts   *telemetry.Counter
	// windowNS/freshNS are read-side handles to the runtime's histograms
	// (same registry families; registration returns the existing metric),
	// powering the snapshot's latency quantiles.
	windowNS *telemetry.Histogram
	freshNS  *telemetry.Histogram
	// traceHas reports whether the trace buffer retained a given window,
	// wired by AttachTraceIndex; Snapshot cross-links /debug/trace from it.
	traceHas func(window int) bool
}

// New returns a recorder retaining capacity windows (DefaultCapacity when
// capacity <= 0). onEvict, which may be nil, is called with the lost
// window's number whenever the ring overwrites a window no Snapshot ever
// served — the signal that the recorder is underprovisioned for its poll
// rate. It runs inside Commit, so it must not call back into the recorder.
func New(capacity int, onEvict func(window int)) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{capacity: capacity, onEvict: onEvict}
}

// Instrument registers the recorder's own metrics against reg (nil
// disables).
func (rec *Recorder) Instrument(reg *telemetry.Registry) {
	if rec == nil {
		return
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.mWindows = reg.Counter("sonata_flightrec_windows_total",
		"Windows committed to the flight recorder.")
	rec.mEvicts = reg.Counter("sonata_flightrec_evictions_total",
		"Ring slots overwritten before any snapshot served them.")
	// Help strings must match the runtime's registrations byte-for-byte:
	// the registry hands back the existing series either way around, and
	// the lint's duplicate-help rule sees each family once.
	rec.windowNS = reg.Histogram("sonata_runtime_window_ns",
		"End-to-end wall time per window in nanoseconds.",
		telemetry.DurationBuckets)
	rec.freshNS = reg.Histogram("sonata_freshness_ns",
		"Result freshness per window in nanoseconds: first frame to publish completion.",
		telemetry.DurationBuckets)
}

// AttachTraceIndex wires the trace buffer's retention index (typically
// tracez.Tracer.Has) so snapshots can cross-link /debug/trace for windows
// whose span tree was kept. Nil detaches.
func (rec *Recorder) AttachTraceIndex(has func(window int) bool) {
	if rec == nil {
		return
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.traceHas = has
}

// Reset drops all probes and committed windows. The runtime calls it when
// the recorder is attached, and attaches it again at every re-plan
// (runtime.Replan), so the recorder always reflects the live plan.
func (rec *Recorder) Reset() {
	if rec == nil {
		return
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.probes = nil
	rec.slots = nil
	rec.commits, rec.served, rec.evicted = 0, 0, 0
}

// Track registers one instance and returns its probe. All Track calls must
// precede the first Commit (the runtime tracks at attach time).
func (rec *Recorder) Track(cfg TrackConfig) *Probe {
	if rec == nil {
		return nil
	}
	n := len(cfg.Stages)
	p := &Probe{cfg: cfg,
		opInSw: make([]uint64, n),
		opInSP: make([]uint64, n),
		opOut:  make([]uint64, n),
	}
	rec.mu.Lock()
	rec.probes = append(rec.probes, p)
	rec.slots = nil // ring is sized per probe set; reallocate on next commit
	rec.mu.Unlock()
	return p
}

// alloc builds the ring: every slot holds one preallocated Record per
// probe, each with its Ops slice sized to the probe's stage count, so
// Commit writes in place and never allocates.
func (rec *Recorder) alloc() {
	rec.slots = make([]slot, rec.capacity)
	maxShard := 0
	for _, p := range rec.probes {
		if p.cfg.Shard > maxShard {
			maxShard = p.cfg.Shard
		}
	}
	rec.shardWork = make([]uint64, maxShard+1)
	for i := range rec.slots {
		records := make([]Record, len(rec.probes))
		for j, p := range rec.probes {
			ops := make([]OpRecord, len(p.cfg.Stages))
			for k := range ops {
				ops[k].Label = p.cfg.Stages[k].Label
			}
			records[j] = Record{Ops: ops}
		}
		rec.slots[i].records = records
	}
}

// driftAlpha is the EWMA weight of the newest window's ObsWork/EstWork
// ratio; 0.5 converges within a few windows while smoothing one-off bursts.
const driftAlpha = 0.5

// Commit seals the closing window into the ring: it snapshots and resets
// every probe, computes observed work and the drift ratio, and attributes
// each shard's busy time across the instances it ran. The runtime calls it
// once per window, after the worker join, with the same PacketsIn and
// ShardBusy values the WindowReport carries. After the first call (which
// sizes the ring) Commit performs no allocation.
func (rec *Recorder) Commit(window int, packetsIn uint64, shardBusy []time.Duration) {
	if rec == nil {
		return
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.slots == nil {
		rec.alloc()
	}
	s := &rec.slots[rec.commits%uint64(rec.capacity)]
	if s.seq != 0 && s.seq > rec.served {
		rec.evicted++
		rec.mEvicts.Inc()
		if rec.onEvict != nil {
			rec.onEvict(s.window)
		}
	}
	rec.commits++
	s.seq, s.window = rec.commits, window

	for i := range rec.shardWork {
		rec.shardWork[i] = 0
	}
	for j, p := range rec.probes {
		r := &s.records[j]
		rec.commitProbe(p, r, window, packetsIn)
		rec.shardWork[p.cfg.Shard] += r.ObsWork
	}
	// Busy attribution: an instance's share of its shard's busy time is its
	// share of the shard's observed work this window.
	for j, p := range rec.probes {
		r := &s.records[j]
		r.BusyNS = 0
		sh := p.cfg.Shard
		if sh < len(shardBusy) && rec.shardWork[sh] > 0 {
			r.BusyNS = int64(float64(shardBusy[sh]) *
				(float64(r.ObsWork) / float64(rec.shardWork[sh])))
		}
	}
	rec.mWindows.Inc()
}

// commitProbe fills one record from its probe and resets the probe's
// window accumulators.
func (rec *Recorder) commitProbe(p *Probe, r *Record, window int, packetsIn uint64) {
	st := p.cfg.Stages
	var obs uint64
	for j := range st {
		in := p.opInSP[j]
		if st[j].OnSwitch {
			in = p.opInSw[j]
		}
		if st[j].Stateful {
			in *= 4
		}
		obs += in
	}
	// Each collision costs the shunt mirror plus the SP-side re-execution —
	// the planner prices overflow at 8x when it builds EstWork, so the
	// observed side must too or drift would read high under collisions.
	obs += 8 * p.collisions

	est := p.cfg.EstWork
	if est == 0 {
		est = 1
	}
	ratio := float64(obs) / float64(est)
	if !p.driftSet {
		p.drift, p.driftSet = ratio, true
	} else {
		p.drift = (1-driftAlpha)*p.drift + driftAlpha*ratio
	}
	p.cumTuples += p.tuplesToSP
	p.cumBytes += p.mirrorBytes

	r.Window = window
	r.QID, r.Level, r.Shard = p.cfg.QID, p.cfg.Level, p.cfg.Shard
	r.PacketsIn = packetsIn
	r.TuplesToSP = p.tuplesToSP
	den := p.tuplesToSP
	if den == 0 {
		den = 1
	}
	r.Reduction = float64(packetsIn) / float64(den)
	r.Results = p.results
	r.Mirrored = p.mirrored
	r.MirrorBytes = p.mirrorBytes
	r.DeliveredBytes = p.delivBytes
	r.Collisions = p.collisions
	r.DumpTuples = p.dumpTuples
	r.RegUsed, r.RegCapacity = p.regUsed, p.regCapacity
	r.EvalNS = p.evalNS
	r.FreshNS = p.freshNS
	r.EstWork, r.ObsWork, r.Drift = p.cfg.EstWork, obs, p.drift
	r.RefFrom, r.RefKeys, r.RefChanged = p.cfg.RefFrom, p.refKeys, p.refChanged
	r.CumTuples, r.CumBytes = p.cumTuples, p.cumBytes
	for j := range st {
		op := &r.Ops[j]
		op.In = p.opInSw[j] + p.opInSP[j]
		out := p.opOut[j]
		// Switch-resident stateless ops have no SP-side emission counter;
		// their output is whatever entered the next stage of the same
		// segment (at the SP for the op just before the cut).
		if out == 0 && st[j].OnSwitch && j+1 < len(st) && st[j+1].Seg == st[j].Seg {
			if st[j+1].OnSwitch {
				out = p.opInSw[j+1]
			} else {
				out = p.opInSP[j+1]
			}
		}
		op.Out = out
	}

	// Reset the window accumulators; cumulative and static fields persist.
	p.tuplesToSP, p.mirrored, p.mirrorBytes, p.delivBytes = 0, 0, 0, 0
	p.collisions, p.dumpTuples, p.regUsed = 0, 0, 0
	p.results, p.evalNS, p.freshNS = 0, 0, 0
	p.refKeys, p.refChanged = 0, false
	for j := range p.opInSw {
		p.opInSw[j], p.opInSP[j], p.opOut[j] = 0, 0, 0
	}
}

// Snapshot copies the latest committed window (plus up to history older
// windows, newest first) out of the ring. It marks everything committed so
// far as served: a later overwrite of those slots is not an eviction.
func (rec *Recorder) Snapshot(history int) Snapshot {
	s := Snapshot{Window: -1}
	if rec == nil {
		return s
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	s.Committed, s.Capacity, s.Evicted = rec.commits, rec.capacity, rec.evicted
	s.WindowP50NS = int64(rec.windowNS.Quantile(0.5))
	s.WindowP99NS = int64(rec.windowNS.Quantile(0.99))
	s.FreshP50NS = int64(rec.freshNS.Quantile(0.5))
	s.FreshP99NS = int64(rec.freshNS.Quantile(0.99))
	rec.served = rec.commits
	if rec.commits == 0 {
		return s
	}
	latest := &rec.slots[(rec.commits-1)%uint64(rec.capacity)]
	s.Window = latest.window
	s.Queries = copyRecords(latest.records)
	if rec.traceHas != nil && rec.traceHas(s.Window) {
		s.TraceURL = fmt.Sprintf("/debug/trace?window=%d", s.Window)
	}
	if history > rec.capacity-1 {
		history = rec.capacity - 1
	}
	for h := 1; h <= history && uint64(h) < rec.commits; h++ {
		sl := &rec.slots[(rec.commits-1-uint64(h))%uint64(rec.capacity)]
		if sl.seq == 0 {
			break
		}
		s.History = append(s.History, copyRecords(sl.records))
	}
	return s
}

// copyRecords deep-copies ring records (slots are overwritten in place by
// later commits, so snapshots must not alias them).
func copyRecords(rs []Record) []Record {
	out := make([]Record, len(rs))
	for i := range rs {
		out[i] = rs[i]
		out[i].Ops = append([]OpRecord(nil), rs[i].Ops...)
	}
	return out
}
