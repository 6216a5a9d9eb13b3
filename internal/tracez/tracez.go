// Package tracez is the always-on hierarchical tracing subsystem: every
// window produces a span tree — window root → the lifecycle stages →
// per-(query, level) op spans with shard attribution. Nothing records spans
// while a window runs. At window close the runtime writes the whole tree
// from the window's report and the close's own stage timings into one
// reused slice and hands it to CloseWindow, so the steady-state path is
// allocation-free (pinned in alloc_budget.json like the keytab and
// subscribe paths before it) and no span can be dropped.
//
// Retention is latency-triggered, after the INT event-detection line of
// work: score everything cheaply, retain in full only what is anomalous.
// Each window's root span feeds a rolling close-latency estimator; only
// trees whose close latency exceeds the rolling p99 (plus a head-sampled
// 1-in-N floor) are copied into the retained buffer, the trace-equivalent
// of the flight recorder's ring. Retained trees are served by /debug/trace
// as JSON, a text waterfall, and Chrome trace-event format (Perfetto).
//
// Concurrency: CloseWindow runs on the runtime's orchestration goroutine;
// the readers (Handler, Trees, Has, Stats) run on HTTP goroutines. The
// tracer's mutex guards the estimator, the counters and the retained
// buffer; retained trees are immutable once published.
package tracez

import (
	"slices"
	"sync"

	"repro/internal/telemetry"
)

// Interned span names. Spans carry a uint16 id instead of a string so a
// tree is a flat slice of values; NameString maps back for export.
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
	// a child of the stream_eval stage attributed to the owning shard.
	NameOpEval
	// NameSubscribeFanout is the result sink's publish leaf: encode +
	// fan-out of one window's updates, a child of the publish stage.
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
// flat value a tree holds without indirection.
const maxAttrs = 4

// Attr is one interned-key numeric attribute.
type Attr struct {
	Key uint16
	Val uint64
}

// Span is one node of a window's span tree. It is a flat value — interned
// name, fixed attribute array — so a tree never chases pointers and writing
// one is a single slot write.
type Span struct {
	ID      uint32 // unique within a window; 0 is "no span"
	Parent  uint32 // 0 for the window root
	Name    uint16
	QID     uint16 // query attribution (op spans); 0 when not applicable
	Level   uint8
	NAttr   uint8
	Shard   int16 // owning worker shard; -1 for the orchestration goroutine
	Window  int32
	StartNS int64
	DurNS   int64
	Attrs   [maxAttrs]Attr
}

// With returns sp with one more interned-key numeric attribute (silently
// dropped past maxAttrs).
func (sp Span) With(key uint16, val uint64) Span {
	if int(sp.NAttr) < maxAttrs {
		sp.Attrs[sp.NAttr] = Attr{Key: key, Val: val}
		sp.NAttr++
	}
	return sp
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
	// RetainCap is the retained-tree buffer size (default 32; oldest trees
	// are evicted first).
	RetainCap int
	// HeadEvery is the head-sampling floor: every Nth window is retained
	// regardless of latency (default 64; negative disables head sampling).
	HeadEvery int
	// MinWindows is the estimator warm-up: latency-triggered retention
	// stays off until this many windows have closed (default 16).
	MinWindows int
}

// retainQuantile is the close-latency quantile a window must exceed to be
// retained for latency.
const retainQuantile = 0.99

func (o Options) withDefaults() Options {
	if o.RetainCap <= 0 {
		o.RetainCap = 32
	}
	if o.HeadEvery == 0 {
		o.HeadEvery = 64
	}
	if o.MinWindows <= 0 {
		o.MinWindows = 16
	}
	return o
}

// tracezMetrics is the tracer's registry slice.
type tracezMetrics struct {
	spans    *telemetry.Counter
	retained *telemetry.Counter
	windows  *telemetry.Counter
}

// Tracer owns the close-latency estimator and the retained buffer. A nil
// *Tracer is a no-op everywhere, so an untraced deployment pays only nil
// checks.
type Tracer struct {
	mu   sync.Mutex
	opts Options
	est  *Estimator
	// ring holds the retained trees, the oldest at head, n of them: a fixed
	// RetainCap of trees whose spans live in arena, stride spans per tree.
	// The arena grows only when a window has more spans than any retained
	// before it, which is fixed per deployment, so steady retention
	// allocates nothing.
	ring    []Tree
	head, n int
	arena   []Span
	stride  int
	windows uint64
	spans   uint64
	m       tracezMetrics
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
			"Spans in the window trees handed to the tracer at window close."),
		retained: reg.Counter("sonata_tracez_retained_total",
			"Span trees promoted to the retained trace buffer."),
		windows: reg.Counter("sonata_tracez_windows_total",
			"Windows whose span tree was collected and scored for retention."),
	}
}

// CloseWindow scores one closed window's span tree: spans[0] is the window
// root, whose duration is the close latency the estimator and the retention
// decision use. The tree is copied only when retained, into the tracer's
// ring, so the caller reuses spans from window to window; once the ring's
// arena holds a window's spans, closes allocate nothing, retained or not.
func (t *Tracer) CloseWindow(window int, spans []Span) {
	if t == nil {
		return
	}
	var closeNS int64
	if len(spans) > 0 {
		closeNS = spans[0].DurNS
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.windows++
	t.m.windows.Inc()
	t.spans += uint64(len(spans))
	t.m.spans.Add(uint64(len(spans)))

	// Retention decision. The threshold is computed before the current
	// sample is added, so one slow window cannot raise the bar it is
	// judged against.
	reason := ""
	threshold := int64(-1)
	if t.est.Total() >= uint64(t.opts.MinWindows) {
		threshold = t.est.Quantile(retainQuantile)
		if closeNS > threshold {
			reason = "latency"
		}
	}
	if reason == "" && t.opts.HeadEvery > 0 &&
		(t.windows-1)%uint64(t.opts.HeadEvery) == 0 {
		reason = "sample"
	}
	t.est.Add(closeNS)
	if reason == "" {
		return
	}
	tree := Tree{Window: window, CloseNS: closeNS, ThresholdNS: threshold, Reason: reason}
	if len(spans) > 0 {
		tree.StartNS = spans[0].StartNS
	}
	t.m.retained.Inc()
	t.retain(tree, spans)
}

// retain puts tree, with a copy of spans, in the ring's next place, evicting
// the oldest tree when the ring is full.
func (t *Tracer) retain(tree Tree, spans []Span) {
	if t.ring == nil {
		t.ring = make([]Tree, t.opts.RetainCap)
	}
	if len(spans) > t.stride {
		t.grow(len(spans))
	}
	i := (t.head + t.n) % len(t.ring)
	if t.n == len(t.ring) {
		t.head = (t.head + 1) % len(t.ring)
	} else {
		t.n++
	}
	tree.Spans = t.arena[i*t.stride : i*t.stride+len(spans) : (i+1)*t.stride]
	copy(tree.Spans, spans)
	t.ring[i] = tree
}

// grow moves the ring onto an arena of stride spans per tree.
func (t *Tracer) grow(stride int) {
	arena := make([]Span, stride*len(t.ring))
	for i := range t.ring {
		spans := arena[i*stride : i*stride+len(t.ring[i].Spans) : (i+1)*stride]
		copy(spans, t.ring[i].Spans)
		t.ring[i].Spans = spans
	}
	t.arena, t.stride = arena, stride
}

// retained returns the k-th retained tree, oldest first.
func (t *Tracer) retained(k int) *Tree { return &t.ring[(t.head+k)%len(t.ring)] }

// Has reports whether a retained tree exists for the given window (the
// flight recorder uses this for its trace cross-link).
func (t *Tracer) Has(window int) bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for k := 0; k < t.n; k++ {
		if t.retained(k).Window == window {
			return true
		}
	}
	return false
}

// Trees returns copies of the retained trees, newest first: the ring
// reuses a tree's storage once it is evicted, so a reader gets its own.
func (t *Tracer) Trees() []*Tree {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Tree, t.n)
	for k := range out {
		tree := *t.retained(k)
		tree.Spans = slices.Clone(tree.Spans)
		out[len(out)-1-k] = &tree
	}
	return out
}

// Stats is the tracer's cumulative bookkeeping, served by /debug/trace.
type Stats struct {
	Windows  uint64 `json:"windows"`
	Spans    uint64 `json:"spans_total"`
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
		Retained:   t.n,
		CloseP50NS: t.est.Quantile(0.50),
		CloseP99NS: t.est.Quantile(retainQuantile),
	}
}
