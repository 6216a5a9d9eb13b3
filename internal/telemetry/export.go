package telemetry

import (
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
)

// WritePrometheus renders every registered series in the Prometheus text
// exposition format (version 0.0.4). Families keep the order of their first
// registration, each one group of its series in registration order under
// one HELP/TYPE header, however registrations of families interleaved.
func (r *Registry) WritePrometheus(w io.Writer) {
	lastFamily := ""
	r.each(func(m *metric) {
		if m.family != lastFamily {
			if m.help != "" {
				fmt.Fprintf(w, "# HELP %s %s\n", m.family, m.help)
			}
			fmt.Fprintf(w, "# TYPE %s %s\n", m.family, m.kind)
			lastFamily = m.family
		}
		switch m.kind {
		case kindCounter:
			fmt.Fprintf(w, "%s %d\n", m.name(), m.c.Value())
		case kindGauge:
			fmt.Fprintf(w, "%s %d\n", m.name(), m.gaugeValue())
		case kindHistogram:
			writeHistogram(w, m)
		}
	})
}

// writeHistogram renders one histogram series: cumulative buckets with an
// le label merged into any registered labels, then _sum and _count.
func writeHistogram(w io.Writer, m *metric) {
	buckets := m.h.Buckets()
	for i, cum := range buckets {
		le := "+Inf"
		if i < len(m.h.bounds) {
			le = fmt.Sprintf("%d", m.h.bounds[i])
		}
		fmt.Fprintf(w, "%s_bucket%s %d\n", m.family, mergeLabel(m.labels, "le", le), cum)
	}
	fmt.Fprintf(w, "%s_sum%s %d\n", m.family, m.labels, m.h.Sum())
	fmt.Fprintf(w, "%s_count%s %d\n", m.family, m.labels, m.h.Count())
}

// mergeLabel appends one label to an already-rendered label set, using the
// same text-format escaping as renderLabels.
func mergeLabel(rendered, k, v string) string {
	if rendered == "" {
		return fmt.Sprintf(`{%s="%s"}`, k, escapeLabelValue(v))
	}
	return fmt.Sprintf(`%s,%s="%s"}`, rendered[:len(rendered)-1], k, escapeLabelValue(v))
}

// Handler serves the registry as Prometheus text format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// expvar publication: the expvar package forbids double-Publish, so the
// variable is registered once and reads through an atomic pointer that
// always reflects the most recently exposed registry.
var (
	expvarOnce sync.Once
	expvarReg  atomic.Pointer[Registry]
)

// PublishExpvar exposes the registry's snapshot under the "sonata" expvar
// variable (visible at /debug/vars). Later calls re-point the variable at
// the new registry.
func PublishExpvar(r *Registry) {
	expvarReg.Store(r)
	expvarOnce.Do(func() {
		expvar.Publish("sonata", expvar.Func(func() any {
			return expvarReg.Load().Snapshot()
		}))
	})
}

// NewDebugMux wires the full introspection surface for a registry:
//
//	/metrics       Prometheus text format
//	/debug/vars    expvar JSON (incl. the "sonata" snapshot)
//	/debug/pprof/  the standard pprof index, profiles, and traces
func NewDebugMux(r *Registry) *http.ServeMux {
	PublishExpvar(r)
	mux := http.NewServeMux()
	mux.Handle("/metrics", r.Handler())
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ServeDebugMux starts serving a caller-assembled mux — start from
// NewDebugMux, mount extra handlers (e.g. /debug/queries) — on addr in a
// background goroutine and returns the listening server (Close it to stop).
// The bound address is available via the returned listener address, which
// matters when addr uses port 0.
func ServeDebugMux(addr string, mux *http.ServeMux) (*http.Server, net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, fmt.Errorf("telemetry: listening on %s: %w", addr, err)
	}
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	return srv, ln.Addr(), nil
}

// HumanNS renders nanoseconds as a compact duration for the text views of
// the debug endpoints.
func HumanNS(ns int64) string {
	switch {
	case ns >= 1_000_000_000:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	case ns >= 1_000_000:
		return fmt.Sprintf("%.1fms", float64(ns)/1e6)
	case ns >= 1_000:
		return fmt.Sprintf("%.1fus", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}
