package tracez

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenTrees fabricates a deterministic two-tree retained set: a
// latency-retained sharded window and a head-sampled sequential one.
func goldenTrees() []*Tree {
	base := int64(1_700_000_000_000_000_000)
	sp := func(id, parent uint32, name uint16, shard int16, window int32,
		off, dur int64, qid uint16, level uint8, attrs ...Attr) Span {
		s := Span{ID: id, Parent: parent, Name: name, Shard: shard,
			Window: window, StartNS: base + off, DurNS: dur,
			QID: qid, Level: level, NAttr: uint8(len(attrs))}
		copy(s.Attrs[:], attrs)
		return s
	}
	slow := &Tree{
		Window: 12, StartNS: base, CloseNS: 3_400_000,
		ThresholdNS: 1_024_000, Reason: "latency",
		Spans: []Span{
			sp(1<<20|1, 0, NameWindow, -1, 12, 0, 3_400_000, 0, 0),
			sp(1<<20|2, 1<<20|1, NameSwitchPass, -1, 12, 10_000, 2_000_000, 0, 0,
				Attr{AttrFrames, 4000}),
			sp(1<<20|3, 1<<20|1, NameEmitterDecode, -1, 12, 2_020_000, 150_000, 0, 0,
				Attr{AttrDumpTuples, 37}),
			sp(1<<20|4, 1<<20|1, NameStreamEval, -1, 12, 2_180_000, 900_000, 0, 0,
				Attr{AttrTuplesIn, 512}),
			sp(2<<20|1, 1<<20|4, NameOpEval, 0, 12, 2_200_000, 400_000, 1, 32,
				Attr{AttrTuplesIn, 300}, Attr{AttrResults, 4}),
			sp(3<<20|1, 1<<20|4, NameOpEval, 1, 12, 2_210_000, 850_000, 2, 16,
				Attr{AttrTuplesIn, 212}, Attr{AttrResults, 1}),
			sp(1<<20|5, 1<<20|1, NameFilterUpdate, -1, 12, 3_090_000, 80_000, 0, 0,
				Attr{AttrEntries, 6}),
			sp(1<<20|6, 1<<20|1, NamePublish, -1, 12, 3_180_000, 200_000, 0, 0),
			sp(1<<20|7, 1<<20|6, NameSubscribeFanout, -1, 12, 3_190_000, 180_000, 0, 0,
				Attr{AttrUpdates, 3}, Attr{AttrSubscribers, 2}, Attr{AttrBytes, 1024}),
		},
	}
	typical := &Tree{
		Window: 8, StartNS: base - 12_000_000_000, CloseNS: 950_000,
		ThresholdNS: -1, Reason: "sample",
		Spans: []Span{
			sp(1<<20|1, 0, NameWindow, -1, 8, -12_000_000_000, 950_000, 0, 0),
			sp(1<<20|2, 1<<20|1, NameSwitchPass, -1, 8, -11_999_990_000, 700_000, 0, 0,
				Attr{AttrFrames, 4000}),
		},
	}
	return []*Tree{slow, typical}
}

// TestChromeGolden pins the Chrome trace-event serialization against a
// golden file (the schema Perfetto loads) and validates the JSON shape.
func TestChromeGolden(t *testing.T) {
	var buf bytes.Buffer
	WriteChrome(&buf, goldenTrees())

	// Structural validation first: the output must be valid JSON with the
	// trace-event envelope Perfetto expects.
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Ph   string  `json:"ph"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
			Name string  `json:"name"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome output is not valid JSON: %v", err)
	}
	var meta, complete int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
		case "X":
			complete++
			if ev.Dur < 0 || ev.Name == "" {
				t.Errorf("bad X event: %+v", ev)
			}
		default:
			t.Errorf("unexpected event phase %q", ev.Ph)
		}
	}
	// 2 process/close-path metadata + 2 shard threads, 11 spans.
	if meta != 4 || complete != 11 {
		t.Fatalf("got %d metadata + %d X events, want 4 + 11", meta, complete)
	}

	golden := filepath.Join("testdata", "chrome.golden.json")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("chrome output drifted from golden file; run with -update and review the diff\ngot:\n%s", buf.String())
	}
}

// TestWaterfall checks the text view: indentation follows the tree and
// attributes render inline.
func TestWaterfall(t *testing.T) {
	out := RenderWaterfall(Stats{Windows: 20, Spans: 100, Retained: 2,
		CloseP50NS: 1_024_000, CloseP99NS: 2_048_000}, goldenTrees())
	for _, want := range []string{
		"window 12", "reason latency", "threshold 1.0ms",
		"op_eval q1/32 [shard 0]", "tuples_in=300", "subscribe_fanout",
		"reason sample",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("waterfall missing %q:\n%s", want, out)
		}
	}
	// op_eval nests two levels under the root (root → stream_eval → op).
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "op_eval") && !strings.HasPrefix(line, "      ") {
			t.Errorf("op_eval not indented under stream_eval: %q", line)
		}
	}
}

// TestHandler drives /debug/trace through all formats and filters.
func TestHandler(t *testing.T) {
	tz := New(Options{HeadEvery: 1})
	for w := 0; w < 3; w++ {
		tz.CloseWindow(w, window(w, 1000))
	}
	h := tz.Handler()

	get := func(url string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		return rec
	}

	rec := get("/debug/trace")
	var doc traceJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Windows != 3 || len(doc.Trees) != 3 {
		t.Fatalf("got %d windows, %d trees; want 3, 3", doc.Windows, len(doc.Trees))
	}
	if doc.Trees[0].Window != 2 {
		t.Errorf("trees not newest-first: first is window %d", doc.Trees[0].Window)
	}
	if doc.Trees[0].Spans[0].Name != "window" {
		t.Errorf("first span name = %q, want window", doc.Trees[0].Spans[0].Name)
	}

	rec = get("/debug/trace?window=1")
	doc = traceJSON{}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Trees) != 1 || doc.Trees[0].Window != 1 {
		t.Fatalf("window filter returned %d trees", len(doc.Trees))
	}

	rec = get("/debug/trace?n=2")
	doc = traceJSON{}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Trees) != 2 {
		t.Fatalf("n=2 returned %d trees", len(doc.Trees))
	}

	rec = get("/debug/trace?format=chrome")
	var chrome map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &chrome); err != nil {
		t.Fatalf("chrome format invalid JSON: %v", err)
	}
	if _, ok := chrome["traceEvents"]; !ok {
		t.Fatal("chrome format missing traceEvents")
	}

	rec = get("/debug/trace?format=text")
	if !strings.Contains(rec.Body.String(), "window 2") {
		t.Errorf("text format missing windows:\n%s", rec.Body.String())
	}

	if rec := get("/debug/trace?window=x"); rec.Code != 400 {
		t.Errorf("bad window parameter: code %d, want 400", rec.Code)
	}
	if rec := get("/debug/trace?n=-1"); rec.Code != 400 {
		t.Errorf("bad n parameter: code %d, want 400", rec.Code)
	}
}
