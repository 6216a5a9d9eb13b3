package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
)

// TestWritePrometheusGolden pins the exact text exposition output for a
// registry exercising every metric kind, labeled and unlabeled.
func TestWritePrometheusGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("sonata_frames_total", "frames seen").Add(42)
	// Labels render sorted by key regardless of registration order.
	reg.Counter("sonata_tuples_total", "tuples per query", "qid", "1", "level", "16").Add(7)
	reg.Counter("sonata_tuples_total", "tuples per query", "qid", "2", "level", "24").Add(9)
	reg.Gauge("sonata_register_entries_used", "occupancy").Set(128)
	h := reg.Histogram("sonata_window_ns", "window duration", []uint64{100, 1000})
	h.Observe(50)
	h.Observe(500)
	h.Observe(5000)

	var b strings.Builder
	reg.WritePrometheus(&b)

	want := `# HELP sonata_frames_total frames seen
# TYPE sonata_frames_total counter
sonata_frames_total 42
# HELP sonata_tuples_total tuples per query
# TYPE sonata_tuples_total counter
sonata_tuples_total{level="16",qid="1"} 7
sonata_tuples_total{level="24",qid="2"} 9
# HELP sonata_register_entries_used occupancy
# TYPE sonata_register_entries_used gauge
sonata_register_entries_used 128
# HELP sonata_window_ns window duration
# TYPE sonata_window_ns histogram
sonata_window_ns_bucket{le="100"} 1
sonata_window_ns_bucket{le="1000"} 2
sonata_window_ns_bucket{le="+Inf"} 3
sonata_window_ns_sum 5550
sonata_window_ns_count 3
`
	if got := b.String(); got != want {
		t.Errorf("Prometheus output mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestPrometheusLabeledHistogram checks the le label merges into an
// existing label set instead of replacing it.
func TestPrometheusLabeledHistogram(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("rtt_ns", "round trip", []uint64{10}, "type", "install")
	h.Observe(5)

	var b strings.Builder
	reg.WritePrometheus(&b)
	for _, line := range []string{
		`rtt_ns_bucket{type="install",le="10"} 1`,
		`rtt_ns_bucket{type="install",le="+Inf"} 1`,
		`rtt_ns_sum{type="install"} 5`,
		`rtt_ns_count{type="install"} 1`,
	} {
		if !strings.Contains(b.String(), line+"\n") {
			t.Errorf("output missing %q\ngot:\n%s", line, b.String())
		}
	}
}

// TestPrometheusFamiliesAreGroups registers the series of three families
// interleaved, as a deployment registering per-instance series in turn does,
// and requires the text exposition format's grouping: one HELP and one TYPE
// line per family, every sample of a family contiguous and under its header,
// families in the order of their first registration and each family's
// series in registration order.
func TestPrometheusFamiliesAreGroups(t *testing.T) {
	reg := NewRegistry()
	for _, qid := range []string{"1", "2"} {
		reg.Counter("sonata_in_total", "tuples in", "qid", qid).Inc()
		reg.Histogram("sonata_eval_ns", "eval time", []uint64{10}, "qid", qid).Observe(5)
		reg.Gauge("sonata_depth", "queue depth", "qid", qid).Set(3)
	}
	reg.Counter("sonata_in_total", "tuples in").Inc()

	var b strings.Builder
	reg.WritePrometheus(&b)
	var families []string
	headers := make(map[string]int)
	for _, line := range strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n") {
		if f, ok := strings.CutPrefix(line, "# TYPE "); ok {
			families = append(families, strings.Fields(f)[0])
		}
		if f, ok := strings.CutPrefix(line, "# "); ok {
			headers[f[:4]+" "+strings.Fields(f)[1]]++
			continue
		}
		if len(families) == 0 || !strings.HasPrefix(line, families[len(families)-1]) {
			t.Errorf("sample %q outside its family's group", line)
		}
	}
	if want := []string{"sonata_in_total", "sonata_eval_ns", "sonata_depth"}; !slices.Equal(families, want) {
		t.Errorf("families %v, want %v", families, want)
	}
	for h, n := range headers {
		if n != 1 {
			t.Errorf("%q appears %d times", h, n)
		}
	}
	if want := "sonata_in_total{qid=\"1\"} 1\nsonata_in_total{qid=\"2\"} 1\nsonata_in_total 1\n"; !strings.Contains(b.String(), want) {
		t.Errorf("sonata_in_total's series out of registration order:\n%s", b.String())
	}
}

// TestDebugMux drives the introspection endpoint in-process: /metrics must
// serve the text format, /debug/vars must include the registry snapshot
// under "sonata", and /debug/pprof/ must answer.
func TestDebugMux(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("sonata_test_hits_total", "hits").Add(3)
	srv := httptest.NewServer(NewDebugMux(reg))
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: reading body: %v", path, err)
		}
		return resp.StatusCode, string(body)
	}

	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "sonata_test_hits_total 3") {
		t.Errorf("/metrics: code %d, body %q", code, body)
	}
	code, body := get("/debug/vars")
	if code != 200 {
		t.Fatalf("/debug/vars: code %d", code)
	}
	var vars struct {
		Sonata Snapshot `json:"sonata"`
	}
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Fatalf("/debug/vars not JSON: %v", err)
	}
	if vars.Sonata.Counters["sonata_test_hits_total"] != 3 {
		t.Errorf("expvar snapshot = %+v, want counter 3", vars.Sonata.Counters)
	}
	if code, _ := get("/debug/pprof/"); code != 200 {
		t.Errorf("/debug/pprof/: code %d", code)
	}
}

// TestServeDebug exercises the real listener path used by -debug-addr,
// binding port 0 so the test never collides.
func TestServeDebug(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("up_total", "x").Inc()
	srv, addr, err := ServeDebugMux("127.0.0.1:0", NewDebugMux(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + addr.String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "up_total 1") {
		t.Errorf("metrics body missing counter: %q", body)
	}
}
