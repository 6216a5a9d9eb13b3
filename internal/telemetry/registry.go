// Package telemetry is the observability layer for the whole Sonata
// pipeline: a metrics registry whose hot-path handles (Counter, Gauge,
// Histogram) are allocation-free pre-registered atomics, and exporters
// (Prometheus text format, expvar, pprof) served over a debug HTTP
// endpoint. Per-window spans are internal/tracez's.
//
// The design follows the production telemetry daemons that front real
// switch ASICs: components register every series once at install time and
// keep the returned handle; the per-packet path touches only that handle
// (one atomic add), never a map or a lock. A nil *Registry hands out nil
// handles whose methods are no-ops, so an uninstrumented deployment pays
// nothing — not even a branch on a package-level flag.
package telemetry

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. The zero value is usable;
// a nil *Counter is a no-op (the disabled-registry mode).
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down. A nil *Gauge is a no-op.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed buckets chosen at registration
// time. Observation is a linear scan over the (few, fixed) bounds plus
// three atomic adds — no allocation, no lock. Bounds are inclusive upper
// bounds (Prometheus `le` semantics); an implicit +Inf bucket catches the
// rest. A nil *Histogram is a no-op.
type Histogram struct {
	bounds []uint64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	sum    atomic.Uint64
	count  atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	if h != nil {
		h.Observe(uint64(d.Nanoseconds()))
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Buckets returns the cumulative per-bucket counts (le semantics), one per
// bound plus the +Inf bucket.
func (h *Histogram) Buckets() []uint64 {
	if h == nil {
		return nil
	}
	out := make([]uint64, len(h.counts))
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		out[i] = cum
	}
	return out
}

// DurationBuckets is a general-purpose set of latency bounds in
// nanoseconds, from 1µs to 10s.
var DurationBuckets = []uint64{
	1_000, 10_000, 100_000, 1_000_000, 10_000_000,
	100_000_000, 1_000_000_000, 10_000_000_000,
}

// kind discriminates registered metrics.
type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// metric is one registered series.
type metric struct {
	family string // metric name without labels
	labels string // rendered {k="v",...} or ""
	help   string
	kind   kind
	c      *Counter
	g      *Gauge
	h      *Histogram
	// gf, when set, computes the gauge's value at collection time instead of
	// reading the stored atomic (GaugeFunc registrations, e.g. uptime).
	gf func() int64
}

// gaugeValue reads a gauge metric, preferring the collect-time function.
func (m *metric) gaugeValue() int64 {
	if m.gf != nil {
		return m.gf()
	}
	return m.g.Value()
}

// name returns the full series name (family plus labels).
func (m *metric) name() string { return m.family + m.labels }

// Registry owns the registered metrics. Registration (Counter, Gauge,
// Histogram) takes a lock and may allocate; it happens at install time.
// The returned handles are lock-free. A nil *Registry returns nil handles
// everywhere, which makes instrumentation free to leave in place.
type Registry struct {
	mu     sync.Mutex
	byName map[string]*metric
	order  []*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*metric)}
}

// renderLabels builds the deterministic {k="v",...} suffix from alternating
// key/value pairs, sorted by key.
func renderLabels(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic("telemetry: labels must be alternating key/value pairs")
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(p.v))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabelValue escapes a label value per the Prometheus text exposition
// format, which defines exactly three escapes inside quoted label values:
// backslash, double-quote, and line feed. Go's %q is close but not right —
// it additionally escapes tabs, non-printables, and non-ASCII runes, which
// the format (plain UTF-8) passes through verbatim, so scrapers would read
// a literal backslash sequence instead of the original value.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	b.Grow(len(v) + 8)
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// register returns the existing metric for the series or creates it.
func (r *Registry) register(family, help string, k kind, labels []string, mk func(*metric)) *metric {
	ls := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[family+ls]; ok {
		if m.kind != k {
			panic(fmt.Sprintf("telemetry: %s re-registered as %s (was %s)", family+ls, k, m.kind))
		}
		return m
	}
	m := &metric{family: family, labels: ls, help: help, kind: k}
	mk(m)
	r.byName[m.name()] = m
	// A new series goes after its family's last one, so that each family is
	// one group, as the text exposition format requires, and families keep
	// the order of their first registration.
	at := len(r.order)
	for i := len(r.order) - 1; i >= 0; i-- {
		if r.order[i].family == family {
			at = i + 1
			break
		}
	}
	r.order = slices.Insert(r.order, at, m)
	return m
}

// Counter registers (or fetches) a counter series. Optional labels are
// alternating key/value pairs; they become part of the series identity.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	return r.register(name, help, kindCounter, labels, func(m *metric) { m.c = &Counter{} }).c
}

// Gauge registers (or fetches) a gauge series.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	return r.register(name, help, kindGauge, labels, func(m *metric) { m.g = &Gauge{} }).g
}

// GaugeFunc registers a gauge series whose value is computed by fn at every
// collection (Snapshot, WritePrometheus) instead of being stored — the shape
// for derived values such as process uptime. Re-registering an existing
// series re-points it at fn.
func (r *Registry) GaugeFunc(name, help string, fn func() int64, labels ...string) {
	if r == nil {
		return
	}
	m := r.register(name, help, kindGauge, labels, func(m *metric) { m.g = &Gauge{} })
	r.mu.Lock()
	m.gf = fn
	r.mu.Unlock()
}

// Histogram registers (or fetches) a histogram series with the given
// inclusive upper bounds (ascending). Re-registering an existing series
// keeps the original bounds.
func (r *Registry) Histogram(name, help string, bounds []uint64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram %s bounds not ascending", name))
		}
	}
	return r.register(name, help, kindHistogram, labels, func(m *metric) {
		b := append([]uint64(nil), bounds...)
		m.h = &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
	}).h
}

// each visits registered metrics — families in the order of their first
// registration, each family's series together in registration order — with
// the order copied under the lock.
func (r *Registry) each(fn func(*metric)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	metrics := append([]*metric(nil), r.order...)
	r.mu.Unlock()
	for _, m := range metrics {
		fn(m)
	}
}
