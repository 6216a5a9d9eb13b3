package tracez

import (
	"testing"

	"repro/internal/telemetry"
)

// TestSpanTreeStructure builds one window's tree across two lanes and
// checks ids, parenting, shard attribution, and attributes.
func TestSpanTreeStructure(t *testing.T) {
	tz := New(Options{HeadEvery: 1}) // retain everything
	orch, shard0 := tz.Lane(0), tz.Lane(1)

	orch.SetContext(3, 0)
	root := orch.Start(NameWindow)
	if root.ID() == 0 {
		t.Fatal("root span got id 0")
	}
	orch.SetContext(3, root.ID())
	se := orch.Start(NameStreamEval)
	shard0.SetContext(3, se.ID())
	op := shard0.Start(NameOpEval)
	op.Instance(7, 32)
	op.Attr(AttrTuplesIn, 120)
	op.Attr(AttrResults, 3)
	op.End()
	se.Attr(AttrTuplesIn, 120)
	se.End()
	closeNS := root.End().Nanoseconds()
	tz.CloseWindow(3, closeNS)

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
	byName := map[uint16]*Span{}
	for i := range tr.Spans {
		byName[tr.Spans[i].Name] = &tr.Spans[i]
	}
	rootSp, seSp, opSp := byName[NameWindow], byName[NameStreamEval], byName[NameOpEval]
	if rootSp == nil || seSp == nil || opSp == nil {
		t.Fatal("missing expected spans")
	}
	if rootSp.Parent != 0 || seSp.Parent != rootSp.ID || opSp.Parent != seSp.ID {
		t.Errorf("bad parenting: root.parent=%d se.parent=%d (root=%d) op.parent=%d (se=%d)",
			rootSp.Parent, seSp.Parent, rootSp.ID, opSp.Parent, seSp.ID)
	}
	if rootSp.Shard != -1 || opSp.Shard != 0 {
		t.Errorf("shard attribution: root=%d want -1, op=%d want 0", rootSp.Shard, opSp.Shard)
	}
	if opSp.QID != 7 || opSp.Level != 32 {
		t.Errorf("op instance = q%d/%d, want q7/32", opSp.QID, opSp.Level)
	}
	if opSp.NAttr != 2 || opSp.Attrs[0] != (Attr{AttrTuplesIn, 120}) || opSp.Attrs[1] != (Attr{AttrResults, 3}) {
		t.Errorf("op attrs = %v (n=%d)", opSp.Attrs, opSp.NAttr)
	}
	if rootSp.DurNS <= 0 || tr.CloseNS != rootSp.DurNS {
		t.Errorf("root dur %d vs tree close %d", rootSp.DurNS, tr.CloseNS)
	}
}

// TestRingDropsWhenFull: a full ring drops new spans (never overwrites)
// and counts them; the drop surfaces in Stats after the window closes.
func TestRingDropsWhenFull(t *testing.T) {
	tz := New(Options{RingCap: 2, HeadEvery: -1})
	r := tz.Lane(0)
	r.SetContext(0, 0)
	a, b := r.Start(NameWindow), r.Start(NameSwitchPass)
	c := r.Start(NameStreamEval) // dropped
	if a.ID() == 0 || b.ID() == 0 {
		t.Fatal("first two spans should fit")
	}
	if c.ID() != 0 {
		t.Fatal("third span should have been dropped")
	}
	if d := c.End(); d < 0 {
		t.Fatal("inert handle must still measure elapsed time")
	}
	b.End()
	a.End()
	tz.CloseWindow(0, 1)
	st := tz.Stats()
	if st.Spans != 2 || st.Dropped != 1 {
		t.Fatalf("stats = %d spans %d dropped, want 2/1", st.Spans, st.Dropped)
	}
	// The ring reset makes room again.
	if sp := r.Start(NameWindow); sp.ID() == 0 {
		t.Fatal("ring did not reset after CloseWindow")
	}
}

// TestNilSafety: a nil tracer and nil ring no-op on every method.
func TestNilSafety(t *testing.T) {
	var tz *Tracer
	r := tz.Lane(0)
	r.SetContext(1, 2)
	sp := r.Start(NameWindow)
	sp.Instance(1, 2)
	sp.Attr(AttrFrames, 1)
	if sp.ID() != 0 {
		t.Error("nil ring span must have id 0")
	}
	if sp.End() < 0 {
		t.Error("nil ring End must return elapsed time")
	}
	tz.CloseWindow(0, 1)
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
	closeOne := func(window int, closeNS int64) {
		r := tz.Lane(0)
		r.SetContext(window, 0)
		sp := r.Start(NameWindow)
		sp.End()
		tz.CloseWindow(window, closeNS)
	}
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
		r := tz.Lane(0)
		r.SetContext(w, 0)
		sp := r.Start(NameWindow)
		sp.End()
		tz.CloseWindow(w, 1000)
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
	tz := New(Options{RingCap: 1, HeadEvery: 1})
	reg := telemetry.NewRegistry()
	tz.Instrument(reg)
	r := tz.Lane(0)
	r.SetContext(0, 0)
	r.Start(NameWindow).End()
	r.Start(NameSwitchPass).End() // dropped: ring cap 1
	tz.CloseWindow(0, 1000)
	s := reg.Snapshot()
	if got := s.Counter("sonata_tracez_spans_total"); got != 1 {
		t.Errorf("spans_total = %d, want 1", got)
	}
	if got := s.Counter("sonata_tracez_dropped_total"); got != 1 {
		t.Errorf("dropped_total = %d, want 1", got)
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
