package tracez

import (
	"testing"

	"repro/internal/telemetry"
)

// window writes a window's tree the way the runtime does at close: the
// root (whose duration is the close latency), a stream_eval stage under it
// and one op span on shard 0 under that, ids their positions from 1.
func window(w int, closeNS int64) []Span {
	spans := []Span{
		{Name: NameWindow, Shard: -1, StartNS: 1000, DurNS: closeNS},
		{Name: NameStreamEval, Parent: 1, Shard: -1, StartNS: 1100, DurNS: closeNS / 2},
		Span{Name: NameOpEval, Parent: 2, QID: 7, Level: 32, StartNS: 1200, DurNS: closeNS / 4}.
			With(AttrTuplesIn, 120).With(AttrResults, 3),
	}
	for i := range spans {
		spans[i].ID, spans[i].Window = uint32(i+1), int32(w)
	}
	return spans
}

// TestSpanTreeStructure hands one window's tree to the tracer and checks
// the retained copy: ids, parenting, shard attribution and attributes, the
// close latency taken from the root, and that the caller may reuse its
// slice.
func TestSpanTreeStructure(t *testing.T) {
	tz := New(Options{HeadEvery: 1}) // retain everything
	spans := window(3, 5000)
	tz.CloseWindow(3, spans)
	spans[2].QID = 99 // the next window's writes must not reach the tree

	trees := tz.Trees()
	if len(trees) != 1 {
		t.Fatalf("got %d retained trees, want 1", len(trees))
	}
	tr := trees[0]
	if tr.Window != 3 || tr.Reason != "sample" {
		t.Fatalf("tree = window %d reason %q, want window 3 reason sample", tr.Window, tr.Reason)
	}
	if len(tr.Spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(tr.Spans))
	}
	rootSp, seSp, opSp := tr.Spans[0], tr.Spans[1], tr.Spans[2]
	if rootSp.Parent != 0 || seSp.Parent != rootSp.ID || opSp.Parent != seSp.ID {
		t.Errorf("bad parenting: root.parent=%d se.parent=%d (root=%d) op.parent=%d (se=%d)",
			rootSp.Parent, seSp.Parent, rootSp.ID, opSp.Parent, seSp.ID)
	}
	if rootSp.Shard != -1 || opSp.Shard != 0 {
		t.Errorf("shard attribution: root=%d want -1, op=%d want 0", rootSp.Shard, opSp.Shard)
	}
	if opSp.QID != 7 || opSp.Level != 32 {
		t.Errorf("op instance = q%d/%d, want q7/32 (the tree must be a copy)", opSp.QID, opSp.Level)
	}
	if opSp.NAttr != 2 || opSp.Attrs[0] != (Attr{AttrTuplesIn, 120}) || opSp.Attrs[1] != (Attr{AttrResults, 3}) {
		t.Errorf("op attrs = %v (n=%d)", opSp.Attrs, opSp.NAttr)
	}
	if tr.CloseNS != 5000 || tr.StartNS != rootSp.StartNS {
		t.Errorf("tree close %d start %d, want the root's 5000 and %d", tr.CloseNS, tr.StartNS, rootSp.StartNS)
	}
	var sp Span
	for i := 0; i < maxAttrs+1; i++ {
		sp = sp.With(AttrBytes, uint64(i))
	}
	if sp.NAttr != maxAttrs || sp.Attrs[maxAttrs-1].Val != maxAttrs-1 {
		t.Errorf("With past maxAttrs: n=%d attrs=%v, want the first %d kept", sp.NAttr, sp.Attrs, maxAttrs)
	}
}

// TestNilSafety: a nil tracer no-ops on every method.
func TestNilSafety(t *testing.T) {
	var tz *Tracer
	tz.CloseWindow(0, window(0, 1))
	tz.Instrument(nil)
	if tz.Has(0) || tz.Trees() != nil || tz.Stats() != (Stats{}) {
		t.Error("nil tracer must report empty state")
	}
}

// TestEstimator exercises bucketing, quantiles, and decay.
func TestEstimator(t *testing.T) {
	e := NewEstimator()
	if e.Quantile(0.99) != 0 {
		t.Error("empty estimator quantile must be 0")
	}
	for i := 0; i < 99; i++ {
		e.Add(1_000_000) // ~1ms
	}
	e.Add(500_000_000) // one 500ms outlier
	if got := e.Quantile(0.50); got != 1_024_000 {
		t.Errorf("p50 = %d, want 1024000 (the 1ms bucket bound)", got)
	}
	if got := e.Quantile(0.99); got != 1_024_000 {
		t.Errorf("p99 = %d, want 1024000 (99/100 samples are ~1ms)", got)
	}
	if got := e.Quantile(1.0); got < 500_000_000 {
		t.Errorf("p100 = %d, want >= the outlier's bucket", got)
	}
	// Decay: totals stay bounded.
	for i := 0; i < 10*decayAt; i++ {
		e.Add(1_000_000)
	}
	if e.Total() >= decayAt {
		t.Errorf("total %d not decayed below %d", e.Total(), decayAt)
	}
}

// TestLatencyTriggeredRetention is the retention contract: after warm-up
// on typical latencies, a typical window is NOT retained, a window past
// the rolling p99 IS (reason "latency"), and the head-sampling floor
// retains every Nth window regardless.
func TestLatencyTriggeredRetention(t *testing.T) {
	tz := New(Options{MinWindows: 8, HeadEvery: 10, RetainCap: 16})
	closeOne := func(w int, closeNS int64) { tz.CloseWindow(w, window(w, closeNS)) }
	for w := 0; w < 25; w++ {
		closeOne(w, 1_000_000) // typical ~1ms windows
	}
	// Head sampling: windows 0, 10, 20 (1-in-10) and nothing else.
	for _, w := range []int{0, 10, 20} {
		if !tz.Has(w) {
			t.Errorf("head-sampled window %d not retained", w)
		}
	}
	for _, w := range []int{9, 11, 24} {
		if tz.Has(w) {
			t.Errorf("typical window %d retained; should be filtered", w)
		}
	}
	// A slow window past the rolling p99 is retained in full.
	closeOne(25, 50_000_000)
	if !tz.Has(25) {
		t.Fatal("slow window 25 not retained")
	}
	trees := tz.Trees()
	if trees[0].Window != 25 || trees[0].Reason != "latency" {
		t.Fatalf("newest tree = window %d reason %q, want 25/latency", trees[0].Window, trees[0].Reason)
	}
	if trees[0].ThresholdNS <= 0 || trees[0].CloseNS <= trees[0].ThresholdNS {
		t.Errorf("close %d must exceed threshold %d", trees[0].CloseNS, trees[0].ThresholdNS)
	}
	// And a typical window right after is still filtered.
	closeOne(26, 1_000_000)
	if tz.Has(26) {
		t.Error("typical window 26 retained after the slow one")
	}
}

// TestRetainedEvictsOldest: the retained buffer is a fixed-capacity ring.
func TestRetainedEvictsOldest(t *testing.T) {
	tz := New(Options{RetainCap: 2, HeadEvery: 1})
	for w := 0; w < 4; w++ {
		tz.CloseWindow(w, window(w, 1000))
	}
	trees := tz.Trees()
	if len(trees) != 2 || trees[0].Window != 3 || trees[1].Window != 2 {
		t.Fatalf("retained = %d trees (newest %d), want windows 3,2",
			len(trees), trees[0].Window)
	}
	if tz.Has(0) || tz.Has(1) {
		t.Error("oldest trees not evicted")
	}
}

// TestInstrumentCounters: the registry series mirror the tracer's
// bookkeeping and pass the metric lint.
func TestInstrumentCounters(t *testing.T) {
	tz := New(Options{HeadEvery: 1})
	reg := telemetry.NewRegistry()
	tz.Instrument(reg)
	tz.CloseWindow(0, window(0, 1000))
	s := reg.Snapshot()
	if got := s.Counter("sonata_tracez_spans_total"); got != 3 {
		t.Errorf("spans_total = %d, want 3", got)
	}
	if got := s.Counter("sonata_tracez_retained_total"); got != 1 {
		t.Errorf("retained_total = %d, want 1", got)
	}
	if got := s.Counter("sonata_tracez_windows_total"); got != 1 {
		t.Errorf("windows_total = %d, want 1", got)
	}
	for _, problem := range reg.Lint() {
		t.Errorf("metric lint: %s", problem)
	}
}

// TestRetentionAllocatesNothing: once the ring has retained one window, a
// close retained for latency copies into the ring's own storage and
// allocates nothing — so what a process allocates per window does not
// depend on how many windows happen to be slow. A close past the
// estimator's last bound always exceeds its rolling p99, so every close
// measured here is retained for latency; readers still get trees of their
// own.
func TestRetentionAllocatesNothing(t *testing.T) {
	tz := New(Options{MinWindows: 8, HeadEvery: -1, RetainCap: 4})
	fast, slow := window(0, 1_000_000), window(1, 3600_000_000_000)
	for w := 0; w < 8; w++ {
		tz.CloseWindow(w, fast)
	}
	tz.CloseWindow(8, slow)
	if st := tz.Stats(); st.Retained != 1 {
		t.Fatalf("retained %d trees after the first slow window, want 1", st.Retained)
	}
	before := tz.Trees()
	w := 9
	close := func() {
		slow[0].Window = int32(w) // the caller reuses its spans
		tz.CloseWindow(w, slow)
		w++
	}
	if allocs := testing.AllocsPerRun(100, close); allocs != 0 {
		t.Errorf("a close retained for latency allocates %.1f times, want 0", allocs)
	}
	trees := tz.Trees()
	if len(trees) != 4 || trees[0].Window != w-1 || trees[0].Reason != "latency" || len(trees[0].Spans) != len(slow) {
		t.Fatalf("newest of %d trees: window %d reason %q, %d spans; want window %d, latency, %d spans",
			len(trees), trees[0].Window, trees[0].Reason, len(trees[0].Spans), w-1, len(slow))
	}
	if got := before[0].Spans[0].Window; got != 1 || trees[0].Spans[0].Window != int32(w-1) {
		t.Errorf("a reader's tree of window 8 now has the spans of window %d", got)
	}
}
