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
// The recorder reads the runtime's WindowReport: at every window close the
// runtime hands Commit the report's per-instance Counts, and Commit copies
// them into the ring and derives the rest. It is never fed while packets
// flow, so it can never disagree with the printed reports. A nil *Recorder
// is a no-op on every method.
//
// Concurrency contract: the runtime calls Reset and Commit from its close
// path; Snapshot readers (the HTTP handlers) only ever see committed ring
// slots under the recorder's lock.
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

// StageInfo statically describes one pipeline op of an instance.
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

// Instance statically describes one installed (query, level) instance.
type Instance struct {
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
	// Stages lists every op: left, then right, then post, concatenated.
	Stages []StageInfo
}

// Counts is one instance's window as the runtime's WindowReport carries it:
// what the switch, the emitter, the stream processor, the refinement update
// and the result fan-out did for the instance. The per-stage slices are
// indexed like Instance.Stages.
type Counts struct {
	QID   uint16
	Level uint8
	// TuplesToSP is the tuples (or mirrored packets, or dump entries) the
	// stream processor ingested for the instance.
	TuplesToSP uint64
	// Mirrored is the mirror reports the switch sent for it, MirrorBytes
	// their encoded size on the monitoring port.
	Mirrored    uint64
	MirrorBytes uint64
	// Collisions is the register overflows shunted to the stream processor;
	// DumpTuples the register entries reported at the window boundary.
	Collisions uint64
	DumpTuples uint64
	// RegUsed is the keys the instance's registers held at the window
	// boundary, RegCapacity their slots.
	RegUsed     uint64
	RegCapacity uint64
	// Results and EvalNS are the window-close evaluation: result tuples and
	// wall time.
	Results uint64
	EvalNS  int64
	// RefKeys / RefChanged describe the refinement update applied at the
	// window's close when a coarser level gates the instance: the keys that
	// level reported and whether the set changed from the previous window.
	RefKeys    uint64
	RefChanged bool
	// DeliveredBytes is the encoded result volume queued to subscribers.
	DeliveredBytes uint64
	// OpInSw counts the packets entering each stage on the switch, OpInSP
	// the tuples entering it at the stream processor, OpOut its emissions
	// at the stream processor.
	OpInSw []uint64
	OpInSP []uint64
	OpOut  []uint64
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

// Recorder owns the ring. A nil *Recorder is a no-op.
type Recorder struct {
	mu       sync.Mutex
	onEvict  func(window int)
	capacity int
	insts    []Instance
	// cum carries each instance's totals and drift across commits.
	cum     []cumulative
	slots   []slot
	commits uint64
	served  uint64 // highest commit sequence a Snapshot has returned
	evicted uint64
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

// cumulative is what one instance's records carry over from window to
// window.
type cumulative struct {
	tuples, bytes uint64
	drift         float64
	driftSet      bool
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

// Reset drops every committed window and makes insts the instances every
// later Commit records, in order. The runtime calls it when the recorder is
// attached, and attaches it again at every re-plan (runtime.Replan), so the
// recorder always reflects the live plan.
func (rec *Recorder) Reset(insts []Instance) {
	if rec == nil {
		return
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.insts = insts
	rec.cum = make([]cumulative, len(insts))
	rec.slots = nil // the ring is sized per instance set on the next commit
	rec.commits, rec.served, rec.evicted = 0, 0, 0
}

// alloc builds the ring: every slot holds one preallocated Record per
// instance, each with its Ops slice sized to the instance's stage count, so
// Commit writes in place and never allocates.
func (rec *Recorder) alloc() {
	rec.slots = make([]slot, rec.capacity)
	maxShard := 0
	for i := range rec.insts {
		maxShard = max(maxShard, rec.insts[i].Shard)
	}
	rec.shardWork = make([]uint64, maxShard+1)
	for i := range rec.slots {
		records := make([]Record, len(rec.insts))
		for j := range rec.insts {
			stages := rec.insts[j].Stages
			ops := make([]OpRecord, len(stages))
			for k := range ops {
				ops[k].Label = stages[k].Label
			}
			records[j] = Record{Ops: ops}
		}
		rec.slots[i].records = records
	}
}

// driftAlpha is the EWMA weight of the newest window's ObsWork/EstWork
// ratio; 0.5 converges within a few windows while smoothing one-off bursts.
const driftAlpha = 0.5

// Commit seals the closing window into the ring: it copies each instance's
// counts (counts[j] is the window of the j-th instance given to Reset),
// computes observed work and the drift ratio, and attributes each shard's
// busy time across the instances it ran. The runtime calls it once per
// window with its WindowReport's PacketsIn, Instances and ShardBusy and the
// window's freshness watermark. After the first call (which sizes the ring)
// Commit performs no allocation.
func (rec *Recorder) Commit(window int, packetsIn uint64, freshNS int64, shardBusy []time.Duration, counts []Counts) {
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

	clear(rec.shardWork)
	for j := range rec.insts {
		r := &s.records[j]
		rec.commitRecord(j, &counts[j], r, window, packetsIn, freshNS)
		rec.shardWork[rec.insts[j].Shard] += r.ObsWork
	}
	// Busy attribution: an instance's share of its shard's busy time is its
	// share of the shard's observed work this window.
	for j := range rec.insts {
		r := &s.records[j]
		r.BusyNS = 0
		sh := rec.insts[j].Shard
		if sh < len(shardBusy) && rec.shardWork[sh] > 0 {
			r.BusyNS = int64(float64(shardBusy[sh]) *
				(float64(r.ObsWork) / float64(rec.shardWork[sh])))
		}
	}
	rec.mWindows.Inc()
}

// commitRecord fills instance j's record from its window counts and
// advances the instance's cumulative totals and drift.
func (rec *Recorder) commitRecord(j int, c *Counts, r *Record, window int, packetsIn uint64, freshNS int64) {
	in, cum := &rec.insts[j], &rec.cum[j]
	st := in.Stages
	var obs uint64
	for k := range st {
		n := c.OpInSP[k]
		if st[k].OnSwitch {
			n = c.OpInSw[k]
		}
		if st[k].Stateful {
			n *= 4
		}
		obs += n
	}
	// Each collision costs the shunt mirror plus the SP-side re-execution —
	// the planner prices overflow at 8x when it builds EstWork, so the
	// observed side must too or drift would read high under collisions.
	obs += 8 * c.Collisions

	est := max(in.EstWork, 1)
	ratio := float64(obs) / float64(est)
	if !cum.driftSet {
		cum.drift, cum.driftSet = ratio, true
	} else {
		cum.drift = (1-driftAlpha)*cum.drift + driftAlpha*ratio
	}
	cum.tuples += c.TuplesToSP
	cum.bytes += c.MirrorBytes

	r.Window = window
	r.QID, r.Level, r.Shard = in.QID, in.Level, in.Shard
	r.PacketsIn = packetsIn
	r.TuplesToSP = c.TuplesToSP
	r.Reduction = float64(packetsIn) / float64(max(c.TuplesToSP, 1))
	r.Results = c.Results
	r.Mirrored = c.Mirrored
	r.MirrorBytes = c.MirrorBytes
	r.DeliveredBytes = c.DeliveredBytes
	r.Collisions = c.Collisions
	r.DumpTuples = c.DumpTuples
	r.RegUsed, r.RegCapacity = c.RegUsed, c.RegCapacity
	r.EvalNS = c.EvalNS
	r.FreshNS = freshNS
	r.EstWork, r.ObsWork, r.Drift = in.EstWork, obs, cum.drift
	r.RefFrom, r.RefKeys, r.RefChanged = in.RefFrom, c.RefKeys, c.RefChanged
	r.CumTuples, r.CumBytes = cum.tuples, cum.bytes
	for k := range st {
		op := &r.Ops[k]
		op.In = c.OpInSw[k] + c.OpInSP[k]
		out := c.OpOut[k]
		// Switch-resident stateless ops have no SP-side emission counter;
		// their output is whatever entered the next stage of the same
		// segment (at the SP for the op just before the cut).
		if out == 0 && st[k].OnSwitch && k+1 < len(st) && st[k+1].Seg == st[k].Seg {
			if st[k+1].OnSwitch {
				out = c.OpInSw[k+1]
			} else {
				out = c.OpInSP[k+1]
			}
		}
		op.Out = out
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
