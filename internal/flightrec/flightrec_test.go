package flightrec

import (
	"encoding/json"
	"io"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

func testStages() []StageInfo {
	return []StageInfo{
		{Label: "L0 filter@sw", Kind: "filter", Weight: 1, OnSwitch: true, Seg: 0},
		{Label: "L1 map@sw", Kind: "map", Weight: 1, OnSwitch: true, Seg: 0},
		{Label: "L2 reduce@sp", Kind: "reduce", Weight: 4, Seg: 0},
	}
}

// tracked returns a recorder Reset to insts, and an idle window's counts
// for them.
func tracked(capacity int, onEvict func(int), insts ...Instance) (*Recorder, []Counts) {
	rec := New(capacity, onEvict)
	rec.Reset(insts)
	counts := make([]Counts, len(insts))
	for i := range insts {
		counts[i] = idle(&insts[i])
	}
	return rec, counts
}

// idle is an instance's counts for a window it did nothing in, with the
// per-stage slices sized as the runtime hands them over.
func idle(in *Instance) Counts {
	n := len(in.Stages)
	return Counts{QID: in.QID, Level: in.Level,
		OpInSw: make([]uint64, n), OpInSP: make([]uint64, n), OpOut: make([]uint64, n)}
}

// TestNilSafety: every recorder method must no-op on nil, the telemetry
// handle discipline that lets the runtime commit unconditionally.
func TestNilSafety(t *testing.T) {
	var rec *Recorder
	rec.Instrument(nil)
	rec.Reset([]Instance{{QID: 1, Stages: testStages()}})
	rec.Commit(0, 0, 0, nil, nil)
	if s := rec.Snapshot(3); s.Window != -1 {
		t.Fatalf("nil recorder snapshot window = %d, want -1", s.Window)
	}
	rec.AttachTraceIndex(func(int) bool { return true })
}

// TestFreshnessAndTraceLink: the freshness watermark lands in the record
// and resets with the window; snapshots carry latency quantiles and the
// /debug/trace cross-link when the trace index retained the window.
func TestFreshnessAndTraceLink(t *testing.T) {
	reg := telemetry.NewRegistry()
	rec, counts := tracked(4, nil, Instance{QID: 1, Stages: testStages()})
	rec.Instrument(reg)

	// Simulate what the runtime does per window: observe the histograms it
	// shares with the recorder, commit with the window's freshness.
	winNS := reg.Histogram("sonata_runtime_window_ns",
		"End-to-end wall time per window in nanoseconds.", telemetry.DurationBuckets)
	freshNS := reg.Histogram("sonata_freshness_ns",
		"Result freshness per window in nanoseconds: first frame to publish completion.",
		telemetry.DurationBuckets)
	winNS.Observe(2_000_000)
	freshNS.Observe(3_000_000)
	rec.Commit(0, 100, 3_000_000, nil, counts)
	rec.AttachTraceIndex(func(w int) bool { return w == 0 })

	s := rec.Snapshot(0)
	if s.Queries[0].FreshNS != 3_000_000 {
		t.Errorf("FreshNS = %d, want 3000000", s.Queries[0].FreshNS)
	}
	if s.WindowP50NS <= 0 || s.FreshP50NS <= 0 {
		t.Errorf("quantiles missing: window p50 %d, fresh p50 %d", s.WindowP50NS, s.FreshP50NS)
	}
	if s.TraceURL != "/debug/trace?window=0" {
		t.Errorf("TraceURL = %q, want /debug/trace?window=0", s.TraceURL)
	}
	txt := RenderText(&s, false)
	for _, want := range []string{"FRESH", "3.0ms", "close p50", "trace: /debug/trace?window=0"} {
		if !strings.Contains(txt, want) {
			t.Errorf("RenderText missing %q:\n%s", want, txt)
		}
	}

	// Next window without frames: no freshness.
	rec.Commit(1, 100, 0, nil, counts)
	s = rec.Snapshot(0)
	if s.Queries[0].FreshNS != 0 {
		t.Errorf("FreshNS after reset = %d, want 0", s.Queries[0].FreshNS)
	}
	if s.TraceURL != "" {
		t.Errorf("TraceURL for unretained window = %q, want empty", s.TraceURL)
	}
}

// TestRingEviction: an overwritten slot counts as evicted only if no
// snapshot ever served it.
func TestRingEviction(t *testing.T) {
	rec, counts := tracked(2, nil, Instance{QID: 1, Stages: testStages()})
	rec.Commit(0, 10, 0, nil, counts)
	rec.Commit(1, 10, 0, nil, counts)
	rec.Commit(2, 10, 0, nil, counts) // overwrites window 0, never served
	if s := rec.Snapshot(0); s.Evicted != 1 {
		t.Fatalf("evicted = %d, want 1", s.Evicted)
	}
	// Everything up to window 2 is now served; the next two commits
	// overwrite served slots.
	rec.Commit(3, 10, 0, nil, counts)
	rec.Commit(4, 10, 0, nil, counts)
	if s := rec.Snapshot(0); s.Evicted != 1 {
		t.Fatalf("evicted after serve = %d, want still 1", s.Evicted)
	}
	// That snapshot served windows 3 and 4, so three more commits are
	// needed before one lands on an unread slot again (window 5).
	rec.Commit(5, 10, 0, nil, counts)
	rec.Commit(6, 10, 0, nil, counts)
	rec.Commit(7, 10, 0, nil, counts)
	if s := rec.Snapshot(0); s.Evicted != 2 {
		t.Fatalf("evicted = %d, want 2", s.Evicted)
	}
}

// TestEvictHook: overwriting an unread window calls the hook once with the
// lost window's number, in step with Snapshot.Evicted; windows a snapshot
// served are overwritten silently, and a nil hook is safe.
func TestEvictHook(t *testing.T) {
	var lost []int
	seven := Instance{QID: 7, Stages: testStages()}
	rec, counts := tracked(1, func(window int) { lost = append(lost, window) }, seven)
	rec.Commit(0, 5, 0, nil, counts)
	rec.Commit(1, 5, 0, nil, counts) // evicts window 0
	rec.Commit(2, 5, 0, nil, counts) // evicts window 1
	if s := rec.Snapshot(0); s.Evicted != 2 {
		t.Fatalf("evicted = %d, want 2", s.Evicted)
	}
	rec.Commit(3, 5, 0, nil, counts) // window 2 was served: no eviction
	if len(lost) != 2 || lost[0] != 0 || lost[1] != 1 {
		t.Errorf("hook saw windows %v, want [0 1]", lost)
	}

	quiet, counts := tracked(1, nil, seven)
	quiet.Commit(0, 5, 0, nil, counts)
	quiet.Commit(1, 5, 0, nil, counts)
	if s := quiet.Snapshot(0); s.Evicted != 1 {
		t.Errorf("nil hook: evicted = %d, want 1", s.Evicted)
	}
}

// TestCommitRecordFields commits one instance's counts for two windows and
// checks the copied and derived fields: reduction factor, observed work,
// drift, out derivation for switch-resident stages, and cumulative
// counters.
func TestCommitRecordFields(t *testing.T) {
	in := Instance{QID: 3, Level: 16, EstWork: 100, CollisionWork: 8, RefFrom: 8, Stages: testStages()}
	rec, counts := tracked(4, nil, in)
	c := &counts[0]
	c.OpInSw[0], c.OpInSw[1] = 20, 10
	c.TuplesToSP = 5
	c.OpInSP[2], c.OpOut[2] = 5, 2
	c.Mirrored, c.MirrorBytes = 1, 64
	c.Collisions, c.DumpTuples = 1, 1
	c.RegUsed, c.RegCapacity = 7, 32
	c.Results, c.EvalNS = 2, (3 * time.Millisecond).Nanoseconds()
	c.RefKeys, c.RefChanged = 4, true
	rec.Commit(0, 1000, 0, nil, counts)

	s := rec.Snapshot(0)
	if len(s.Queries) != 1 {
		t.Fatalf("got %d records, want 1", len(s.Queries))
	}
	r := s.Queries[0]
	if r.TuplesToSP != 5 || r.PacketsIn != 1000 {
		t.Fatalf("tuples=%d packets=%d, want 5/1000", r.TuplesToSP, r.PacketsIn)
	}
	if r.Reduction != 200 {
		t.Errorf("reduction = %v, want 200", r.Reduction)
	}
	// Observed work: 20 + 10 + 4*5 (the reduce's weight) + 8*1 (a collision) = 58.
	if r.ObsWork != 58 {
		t.Errorf("obs work = %d, want 58", r.ObsWork)
	}
	if math.Abs(r.Drift-0.58) > 1e-9 {
		t.Errorf("drift = %v, want 0.58", r.Drift)
	}
	if r.RegUsed != 7 || r.RegCapacity != 32 {
		t.Errorf("reg = %d/%d, want 7/32", r.RegUsed, r.RegCapacity)
	}
	if r.RefFrom != 8 || r.RefKeys != 4 || !r.RefChanged {
		t.Errorf("refinement = %d/%d/%v, want 8/4/true", r.RefFrom, r.RefKeys, r.RefChanged)
	}
	if r.Results != 2 || r.EvalNS != (3*time.Millisecond).Nanoseconds() {
		t.Errorf("results=%d evalNS=%d", r.Results, r.EvalNS)
	}
	// Out derivation: stage 0 is switch-resident with no SP-side counter,
	// so its out is stage 1's switch-side in; stage 1's out is stage 2's
	// SP-side in (the cut); stage 2 reported its own out.
	if got := r.Ops[0]; got.In != 20 || got.Out != 10 {
		t.Errorf("op0 = %+v, want in=20 out=10", got)
	}
	if got := r.Ops[1]; got.In != 10 || got.Out != 5 {
		t.Errorf("op1 = %+v, want in=10 out=5", got)
	}
	if got := r.Ops[2]; got.In != 5 || got.Out != 2 {
		t.Errorf("op2 = %+v, want in=5 out=2", got)
	}

	// Second, idle window; drift is an EWMA of 0.58 and 0/100.
	counts[0] = idle(&in)
	rec.Commit(1, 500, 0, nil, counts)
	s = rec.Snapshot(1)
	r = s.Queries[0]
	if r.TuplesToSP != 0 || r.ObsWork != 0 || r.Mirrored != 0 {
		t.Errorf("idle window recorded work: %+v", r)
	}
	if math.Abs(r.Drift-0.29) > 1e-9 {
		t.Errorf("drift = %v, want 0.29 (EWMA)", r.Drift)
	}
	if r.CumTuples != 5 || r.CumBytes != 64 {
		t.Errorf("cumulative = %d/%d, want 5/64", r.CumTuples, r.CumBytes)
	}
	if len(s.History) != 1 || s.History[0][0].Window != 0 {
		t.Errorf("history = %+v, want one entry for window 0", s.History)
	}
}

// TestBusyAttribution: a shard's busy time splits across its instances in
// proportion to observed work.
func TestBusyAttribution(t *testing.T) {
	stages := []StageInfo{{Label: "L0 filter@sw", Kind: "filter", Weight: 1, OnSwitch: true}}
	rec, counts := tracked(4, nil, Instance{QID: 1, Shard: 0, Stages: stages},
		Instance{QID: 2, Shard: 0, Stages: stages})
	counts[0].OpInSw[0], counts[1].OpInSw[0] = 30, 10
	rec.Commit(0, 40, 0, []time.Duration{4 * time.Millisecond}, counts)
	s := rec.Snapshot(0)
	if got := s.Queries[0].BusyNS; got != (3 * time.Millisecond).Nanoseconds() {
		t.Errorf("q1 busy = %d, want 3ms", got)
	}
	if got := s.Queries[1].BusyNS; got != (1 * time.Millisecond).Nanoseconds() {
		t.Errorf("q2 busy = %d, want 1ms", got)
	}
}

// TestCommitNoAllocs pins the per-window commit path to zero allocations
// after the first (ring-sizing) commit, independent of ring capacity.
func TestCommitNoAllocs(t *testing.T) {
	for _, capacity := range []int{2, 256} {
		rec, counts := tracked(capacity, nil, Instance{QID: 1, EstWork: 10, Stages: testStages()})
		busy := []time.Duration{time.Millisecond}
		rec.Commit(0, 100, 0, busy, counts) // sizes the ring
		w := 1
		allocs := testing.AllocsPerRun(200, func() {
			counts[0].OpInSw[0]++
			counts[0].TuplesToSP++
			counts[0].OpInSP[2], counts[0].OpOut[2] = 3, 1
			rec.Commit(w, 100, 0, busy, counts)
			w++
		})
		if allocs != 0 {
			t.Errorf("capacity %d: %v allocs per committed window, want 0", capacity, allocs)
		}
	}
}

// TestInstrument: the recorder's own counters track commits and evictions.
func TestInstrument(t *testing.T) {
	reg := telemetry.NewRegistry()
	rec, counts := tracked(1, nil, Instance{QID: 1, Stages: testStages()})
	rec.Instrument(reg)
	rec.Commit(0, 1, 0, nil, counts)
	rec.Commit(1, 1, 0, nil, counts)
	s := reg.Snapshot()
	if got := s.Counter("sonata_flightrec_windows_total"); got != 2 {
		t.Errorf("windows_total = %d, want 2", got)
	}
	if got := s.Counter("sonata_flightrec_evictions_total"); got != 1 {
		t.Errorf("evictions_total = %d, want 1", got)
	}
}

// TestHandler drives /debug/queries in-process: JSON with history, the text
// rendering, and parameter validation.
func TestHandler(t *testing.T) {
	rec, counts := tracked(8, nil, Instance{QID: 5, Level: 24, EstWork: 1, Stages: testStages()})
	counts[0].TuplesToSP = 1
	for w := 0; w < 3; w++ {
		rec.Commit(w, 100, 0, nil, counts)
	}
	srv := httptest.NewServer(rec.Handler())
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	code, body := get("/debug/queries?n=2")
	if code != 200 {
		t.Fatalf("JSON status = %d", code)
	}
	var s Snapshot
	if err := json.Unmarshal([]byte(body), &s); err != nil {
		t.Fatalf("response not JSON: %v", err)
	}
	if s.Window != 2 || len(s.Queries) != 1 || len(s.History) != 2 {
		t.Errorf("snapshot = window %d, %d queries, %d history; want 2/1/2",
			s.Window, len(s.Queries), len(s.History))
	}
	if s.Queries[0].QID != 5 || s.Queries[0].Level != 24 {
		t.Errorf("record identity = q%d/r%d, want q5/r24", s.Queries[0].QID, s.Queries[0].Level)
	}

	if code, body := get("/debug/queries?fmt=text&ops=1"); code != 200 ||
		!strings.Contains(body, "QID") || !strings.Contains(body, "L0 filter@sw") {
		t.Errorf("text render: code %d body:\n%s", code, body)
	}
	if code, _ := get("/debug/queries?n=bogus"); code != 400 {
		t.Errorf("bad n: code %d, want 400", code)
	}
}

// TestRenderTop smoke-checks the top view with and without a previous frame.
func TestRenderTop(t *testing.T) {
	rec, counts := tracked(4, nil, Instance{QID: 9, EstWork: 1, RefFrom: 8, Stages: testStages()})
	counts[0].TuplesToSP = 1
	counts[0].RegUsed, counts[0].RegCapacity = 4, 16
	rec.Commit(0, 50, 0, nil, counts)
	s1 := rec.Snapshot(0)
	first := RenderTop(nil, &s1, 1.0)
	if !strings.Contains(first, "sonata top") || !strings.Contains(first, "50.0x") {
		t.Errorf("first frame missing header/reduction:\n%s", first)
	}
	counts[0].TuplesToSP = 2
	rec.Commit(1, 50, 0, nil, counts)
	s2 := rec.Snapshot(0)
	second := RenderTop(&s1, &s2, 2.0)
	if !strings.Contains(second, "window 1") {
		t.Errorf("second frame missing window header:\n%s", second)
	}
}
