// Package tracez is the always-on hierarchical tracing subsystem: every
// window produces a span tree — window root → the six lifecycle stages →
// per-(query, level) op spans with shard attribution — written into
// per-shard fixed-capacity span rings so the steady-state record path is
// allocation-free (pinned in alloc_budget.json like the keytab and
// subscribe paths before it).
//
// Retention is latency-triggered, after the INT event-detection line of
// work: record everything cheaply, retain in full only what is anomalous.
// Each window's root span feeds a rolling close-latency estimator; only
// trees whose close latency exceeds the rolling p99 (plus a head-sampled
// 1-in-N floor) are promoted to the retained buffer, the trace-equivalent
// of the flight recorder's ring. Retained trees are served by /debug/trace
// as JSON, a text waterfall, and Chrome trace-event format (Perfetto).
//
// Concurrency contract (mirrors flightrec's): each ring has exactly one
// writer — lane 0 is the runtime's orchestration goroutine, lane i+1 the
// worker shard i — and the collector (CloseWindow) reads rings only from
// the orchestration goroutine after the window-end worker join. No atomics
// or locks appear on the record path; the tracer's mutex guards only
// close-time bookkeeping and the retained buffer.
package tracez

import (
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Interned span names. Spans carry a uint16 id instead of a string so the
// record path never allocates; NameString maps back for export.
const (
	// NameWindow is the per-window root span covering first frame to
	// publish completion.
	NameWindow uint16 = iota
	// NameSwitchPass..NamePublish are the per-window lifecycle stages, one
	// span each under the root, in this order.
	NameSwitchPass
	NameEmitterDecode
	NameStreamEval
	NameFilterUpdate
	NamePublish
	// NameOpEval is one (query, level) instance's window-close evaluation,
	// a child of the stream_eval stage on the owning shard's lane.
	NameOpEval
	// NameSubscribeFanout is the subscription server's publish leaf: encode
	// + fan-out of one window's updates, a child of the publish stage.
	NameSubscribeFanout
	numNames
)

var nameStrings = [numNames]string{
	"window", "switch_pass", "emitter_decode", "stream_eval",
	"filter_update", "publish", "op_eval", "subscribe_fanout",
}

// NameString returns the display name of an interned span name.
func NameString(id uint16) string {
	if int(id) < len(nameStrings) {
		return nameStrings[id]
	}
	return "unknown"
}

// Interned attribute keys (same discipline as span names).
const (
	AttrFrames uint16 = iota
	AttrDumpTuples
	AttrTuplesIn
	AttrEntries
	AttrResults
	AttrSubscribers
	AttrUpdates
	AttrBytes
	numAttrKeys
)

var attrKeyStrings = [numAttrKeys]string{
	"frames", "dump_tuples", "tuples_in", "entries",
	"results", "subscribers", "updates", "bytes",
}

// AttrKeyString returns the display name of an interned attribute key.
func AttrKeyString(id uint16) string {
	if int(id) < len(attrKeyStrings) {
		return attrKeyStrings[id]
	}
	return "unknown"
}

// maxAttrs bounds the per-span attribute count; a fixed array keeps Span a
// flat value the rings can hold without indirection.
const maxAttrs = 4

// Attr is one interned-key numeric attribute.
type Attr struct {
	Key uint16
	Val uint64
}

// Span is one node of a window's span tree. It is a flat value — interned
// name, fixed attribute array — so rings of them never chase pointers and
// recording one is a single slot write.
type Span struct {
	ID      uint32 // lane-scoped, unique within a window; 0 is "no span"
	Parent  uint32 // 0 for the window root
	Name    uint16
	QID     uint16 // query attribution (op spans); 0 when not applicable
	Level   uint8
	NAttr   uint8
	Shard   int16 // owning worker shard; -1 for the orchestration lane
	Window  int32
	StartNS int64
	DurNS   int64 // -1 while the span is open
	Attrs   [maxAttrs]Attr
}

// Ring is one lane's fixed-capacity span buffer. Exactly one goroutine
// writes it (see the package comment); methods are nil-safe so components
// carry a *Ring unconditionally, like telemetry handles. When the ring is
// full new spans are dropped (never overwritten — overwriting would tear
// the tree) and counted.
type Ring struct {
	lane    int
	spans   []Span
	n       int
	seq     uint32
	window  int32
	parent  uint32
	dropped uint64
}

// SetContext sets the window index and parent span id stamped on
// subsequently started spans.
func (r *Ring) SetContext(window int, parent uint32) {
	if r != nil {
		r.window, r.parent = int32(window), parent
	}
}

// Parent returns the current parent span id (0 on a nil ring), so callers
// can save/restore around a re-parented region.
func (r *Ring) Parent() uint32 {
	if r == nil {
		return 0
	}
	return r.parent
}

// Start opens a span under the current context and returns its handle.
// On a nil or full ring the handle is inert but still measures elapsed
// time, so callers can use End()'s duration unconditionally.
func (r *Ring) Start(name uint16) Active {
	now := time.Now()
	if r == nil {
		return Active{idx: -1, t0: now}
	}
	if r.n == len(r.spans) {
		r.dropped++
		return Active{idx: -1, t0: now}
	}
	idx := r.n
	r.n++
	r.seq++
	r.spans[idx] = Span{
		ID:      uint32(r.lane+1)<<20 | r.seq,
		Parent:  r.parent,
		Name:    name,
		Shard:   int16(r.lane - 1),
		Window:  r.window,
		StartNS: now.UnixNano(),
		DurNS:   -1,
	}
	return Active{r: r, idx: int32(idx), t0: now}
}

// Active is an in-progress span handle. It is a value type (no allocation)
// and inert when the span was dropped or the ring is nil.
type Active struct {
	r   *Ring
	idx int32
	t0  time.Time
}

// ID returns the span's id, 0 for an inert handle.
func (a Active) ID() uint32 {
	if a.r == nil || a.idx < 0 {
		return 0
	}
	return a.r.spans[a.idx].ID
}

// Instance attributes the span to a (query, level) instance.
func (a Active) Instance(qid uint16, level uint8) {
	if a.r == nil || a.idx < 0 {
		return
	}
	sp := &a.r.spans[a.idx]
	sp.QID, sp.Level = qid, level
}

// Attr attaches one interned-key numeric attribute (silently dropped past
// maxAttrs).
func (a Active) Attr(key uint16, val uint64) {
	if a.r == nil || a.idx < 0 {
		return
	}
	sp := &a.r.spans[a.idx]
	if int(sp.NAttr) < maxAttrs {
		sp.Attrs[sp.NAttr] = Attr{Key: key, Val: val}
		sp.NAttr++
	}
}

// End closes the span and returns its duration (measured even on an inert
// handle, so instrumented code paths can reuse it for their own metrics).
func (a Active) End() time.Duration {
	d := time.Since(a.t0)
	if a.r != nil && a.idx >= 0 {
		a.r.spans[a.idx].DurNS = d.Nanoseconds()
	}
	return d
}

// Tree is one retained window's span tree.
type Tree struct {
	Window  int   `json:"window"`
	StartNS int64 `json:"start_ns"`
	CloseNS int64 `json:"close_ns"`
	// ThresholdNS is the rolling-quantile retention threshold at decision
	// time, -1 while the estimator is still warming up.
	ThresholdNS int64 `json:"threshold_ns"`
	// Reason is "latency" (close latency exceeded the rolling quantile) or
	// "sample" (the head-sampled 1-in-N floor).
	Reason string `json:"reason"`
	Spans  []Span `json:"spans"`
}

// Options tunes a Tracer. The zero value selects the defaults.
type Options struct {
	// RingCap is each lane's span capacity (default 4096).
	RingCap int
	// RetainCap is the retained-tree buffer size (default 32; oldest trees
	// are evicted first).
	RetainCap int
	// HeadEvery is the head-sampling floor: every Nth window is retained
	// regardless of latency (default 64; negative disables head sampling).
	HeadEvery int
	// Quantile is the close-latency retention quantile (default 0.99).
	Quantile float64
	// MinWindows is the estimator warm-up: latency-triggered retention
	// stays off until this many windows have closed (default 16).
	MinWindows int
}

func (o Options) withDefaults() Options {
	if o.RingCap <= 0 {
		o.RingCap = 4096
	}
	if o.RetainCap <= 0 {
		o.RetainCap = 32
	}
	if o.HeadEvery == 0 {
		o.HeadEvery = 64
	}
	if o.Quantile <= 0 || o.Quantile > 1 {
		o.Quantile = 0.99
	}
	if o.MinWindows <= 0 {
		o.MinWindows = 16
	}
	return o
}

// tracezMetrics is the tracer's registry slice.
type tracezMetrics struct {
	spans    *telemetry.Counter
	dropped  *telemetry.Counter
	retained *telemetry.Counter
	windows  *telemetry.Counter
}

// Tracer owns the lanes, the close-latency estimator, and the retained
// buffer. A nil *Tracer is a no-op everywhere (Lane returns a nil ring,
// whose methods no-op), so an untraced deployment pays only nil checks.
type Tracer struct {
	mu       sync.Mutex
	opts     Options
	lanes    []*Ring
	est      *Estimator
	retained []*Tree
	windows  uint64
	spans    uint64
	drops    uint64
	m        tracezMetrics
}

// New returns a tracer with the given options.
func New(opts Options) *Tracer {
	return &Tracer{opts: opts.withDefaults(), est: NewEstimator()}
}

// Instrument registers the tracer's own metrics against reg (nil
// disables; handles are nil-safe).
func (t *Tracer) Instrument(reg *telemetry.Registry) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.m = tracezMetrics{
		spans: reg.Counter("sonata_tracez_spans_total",
			"Spans recorded into the per-shard trace rings."),
		dropped: reg.Counter("sonata_tracez_dropped_total",
			"Spans dropped because a trace ring was full."),
		retained: reg.Counter("sonata_tracez_retained_total",
			"Span trees promoted to the retained trace buffer."),
		windows: reg.Counter("sonata_tracez_windows_total",
			"Windows whose span tree was collected and scored for retention."),
	}
}

// Lane returns (creating on first use) the ring for lane i: lane 0 is the
// orchestration goroutine, lane i+1 worker shard i. Lanes are registered
// at install time; the returned ring is then written lock-free by its
// single owner. A nil tracer returns a nil (inert) ring.
func (t *Tracer) Lane(i int) *Ring {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for len(t.lanes) <= i {
		t.lanes = append(t.lanes, &Ring{lane: len(t.lanes),
			spans: make([]Span, t.opts.RingCap)})
	}
	return t.lanes[i]
}

// CloseWindow collects the window's spans from every lane, feeds the
// close-latency estimator, decides retention, and resets the lanes for the
// next window. It must be called from the orchestration goroutine after
// the worker join (all lane writers quiesced). closeNS is the root span's
// close latency. The steady (non-retained) path is allocation-free.
func (t *Tracer) CloseWindow(window int, closeNS int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.windows++
	t.m.windows.Inc()
	var total uint64
	for _, r := range t.lanes {
		total += uint64(r.n)
		if r.dropped > 0 {
			t.drops += r.dropped
			t.m.dropped.Add(r.dropped)
		}
	}
	t.spans += total
	t.m.spans.Add(total)

	// Retention decision. The threshold is computed before the current
	// sample is added, so one slow window cannot raise the bar it is
	// judged against.
	reason := ""
	threshold := int64(-1)
	if t.est.Total() >= uint64(t.opts.MinWindows) {
		threshold = t.est.Quantile(t.opts.Quantile)
		if closeNS > threshold {
			reason = "latency"
		}
	}
	if reason == "" && t.opts.HeadEvery > 0 &&
		(t.windows-1)%uint64(t.opts.HeadEvery) == 0 {
		reason = "sample"
	}
	t.est.Add(closeNS)
	if reason != "" {
		t.retain(window, closeNS, threshold, reason)
	}
	for _, r := range t.lanes {
		r.n, r.seq, r.dropped = 0, 0, 0
	}
}

// retain copies every lane's spans into one Tree and appends it to the
// retained buffer, evicting the oldest tree past capacity. Runs under
// t.mu; allocation here is fine (retention is rare by construction).
func (t *Tracer) retain(window int, closeNS, threshold int64, reason string) {
	tree := &Tree{Window: window, CloseNS: closeNS,
		ThresholdNS: threshold, Reason: reason}
	n := 0
	for _, r := range t.lanes {
		n += r.n
	}
	tree.Spans = make([]Span, 0, n)
	for _, r := range t.lanes {
		for i := 0; i < r.n; i++ {
			sp := r.spans[i]
			if sp.DurNS < 0 {
				sp.DurNS = 0 // span never ended (a bug upstream, or a drop)
			}
			tree.Spans = append(tree.Spans, sp)
		}
	}
	if len(tree.Spans) > 0 {
		// Lane 0's first span is the window root by construction.
		tree.StartNS = tree.Spans[0].StartNS
	}
	t.m.retained.Inc()
	if len(t.retained) < t.opts.RetainCap {
		t.retained = append(t.retained, tree)
		return
	}
	copy(t.retained, t.retained[1:])
	t.retained[len(t.retained)-1] = tree
}

// Has reports whether a retained tree exists for the given window (the
// flight recorder uses this for its trace cross-link).
func (t *Tracer) Has(window int) bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, tr := range t.retained {
		if tr.Window == window {
			return true
		}
	}
	return false
}

// Trees returns the retained trees, newest first. Trees are immutable
// once retained; only the slice is copied.
func (t *Tracer) Trees() []*Tree {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Tree, len(t.retained))
	for i, tr := range t.retained {
		out[len(out)-1-i] = tr
	}
	return out
}

// Stats is the tracer's cumulative bookkeeping, served by /debug/trace.
type Stats struct {
	Windows  uint64 `json:"windows"`
	Spans    uint64 `json:"spans_total"`
	Dropped  uint64 `json:"dropped_total"`
	Retained int    `json:"retained"`
	// CloseP50NS / CloseP99NS are the rolling close-latency quantiles the
	// retention decision uses.
	CloseP50NS int64 `json:"close_p50_ns"`
	CloseP99NS int64 `json:"close_p99_ns"`
}

// Stats returns the tracer's cumulative counters and rolling quantiles.
func (t *Tracer) Stats() Stats {
	if t == nil {
		return Stats{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return Stats{
		Windows:    t.windows,
		Spans:      t.spans,
		Dropped:    t.drops,
		Retained:   len(t.retained),
		CloseP50NS: t.est.Quantile(0.50),
		CloseP99NS: t.est.Quantile(0.99),
	}
}
