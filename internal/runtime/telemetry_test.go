package runtime

import (
	"testing"

	"repro/internal/pisa"
	"repro/internal/planner"
	"repro/internal/query"
	"repro/internal/telemetry"
	"repro/internal/tracez"
	"repro/internal/tuple"
)

// TestRegistryMatchesWindowReports is the consistency contract: after a
// multi-window run, the cumulative registry counters must equal the sums of
// the per-window WindowReport fields — both views come from the same
// increments, so any drift is a bug.
func TestRegistryMatchesWindowReports(t *testing.T) {
	g, train := buildWorkload(t, 5000, 5)
	qs := []*query.Query{q1(100)}
	cfg := pisa.DefaultConfig()
	plan := planFor(t, qs, train, cfg, planner.ModeSonata)
	rt, err := NewWithOptions(plan, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	rt.Instrument(reg, nil)

	var tuplesToSP, packets, collisions uint64
	var filterUpdates, windows uint64
	for w := 0; w < g.Windows(); w++ {
		rep := rt.ProcessWindow(framesOf(g.WindowRecords(w)))
		tuplesToSP += rep.TuplesToSP
		packets += rep.Switch.PacketsIn
		collisions += rep.Switch.Collisions
		filterUpdates += uint64(rep.FilterUpdates)
		windows++
	}
	if tuplesToSP == 0 {
		t.Fatal("workload produced no tuples; test is vacuous")
	}

	s := reg.Snapshot()
	checks := []struct {
		name string
		got  uint64
		want uint64
	}{
		{"sonata_runtime_tuples_to_sp_total", s.Counter("sonata_runtime_tuples_to_sp_total"), tuplesToSP},
		{"sonata_stream_tuples_in_total", s.Counter("sonata_stream_tuples_in_total"), tuplesToSP},
		{"sonata_runtime_windows_total", s.Counter("sonata_runtime_windows_total"), windows},
		{"sonata_runtime_filter_updates_total", s.Counter("sonata_runtime_filter_updates_total"), filterUpdates},
		{"sonata_switch_packets_total", s.Counter("sonata_switch_packets_total"), packets},
		{"sonata_switch_collisions_total", s.Counter("sonata_switch_collisions_total"), collisions},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d (sum of WindowReports)", c.name, c.got, c.want)
		}
	}

	// The per-query breakdown must also total to the engine-wide counter.
	if got := s.CounterSum("sonata_stream_query_tuples_in_total{"); got != tuplesToSP {
		t.Errorf("per-query tuple counters sum to %d, want %d", got, tuplesToSP)
	}
	// Window timing: one observation per window, non-zero total.
	hv := s.Histograms["sonata_runtime_window_ns"]
	if hv.Count != windows {
		t.Errorf("window_ns count = %d, want %d", hv.Count, windows)
	}
	if hv.Sum == 0 {
		t.Error("window_ns sum = 0; windows cannot take zero time")
	}
	if got := s.Gauges["sonata_runtime_window_index"]; got != int64(windows-1) {
		t.Errorf("window_index = %d, want %d", got, windows-1)
	}
}

// TestTracerSpansPerWindow retains every window's trace tree and asserts the
// per-window lifecycle contract: directly under the window root there is
// exactly one span per pipeline stage, each with a non-zero duration and the
// attribute that sizes its work. (Tree structure across worker counts is
// TestTraceTreeDifferentialWorkers; the publish stage needs a result sink and
// is covered by TestLatencyTriggeredRetention.)
func TestTracerSpansPerWindow(t *testing.T) {
	g, train := buildWorkload(t, 4000, 4)
	qs := []*query.Query{q1(100)}
	cfg := pisa.DefaultConfig()
	plan := planFor(t, qs, train, cfg, planner.ModeSonata)
	rt, err := NewWithOptions(plan, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tz := tracez.New(tracez.Options{HeadEvery: 1})
	rt.Instrument(nil, tz) // nil registry: tracing works standalone

	const nWindows = 3
	for w := 0; w < nWindows; w++ {
		rt.ProcessWindow(framesOf(g.WindowRecords(w)))
	}

	trees := tz.Trees()
	if len(trees) != nWindows {
		t.Fatalf("retained %d trees, want %d (HeadEvery=1)", len(trees), nWindows)
	}
	wantAttr := map[uint16]uint16{
		tracez.NameSwitchPass:    tracez.AttrFrames,
		tracez.NameEmitterDecode: tracez.AttrDumpTuples,
		tracez.NameStreamEval:    tracez.AttrTuplesIn,
		tracez.NameFilterUpdate:  tracez.AttrEntries,
	}
	for _, tree := range trees {
		var root uint32
		for _, sp := range tree.Spans {
			if sp.Name == tracez.NameWindow {
				root = sp.ID
			}
		}
		if root == 0 {
			t.Fatalf("window %d: no root span", tree.Window)
		}
		count := map[uint16]int{}
		for _, sp := range tree.Spans {
			attr, isStage := wantAttr[sp.Name]
			if !isStage {
				continue
			}
			stage := tracez.NameString(sp.Name)
			count[sp.Name]++
			if sp.Parent != root {
				t.Errorf("window %d: %s parent = %d, want the window root %d", tree.Window, stage, sp.Parent, root)
			}
			if sp.DurNS <= 0 {
				t.Errorf("window %d: %s has duration %d, want > 0", tree.Window, stage, sp.DurNS)
			}
			found := false
			for _, a := range sp.Attrs[:sp.NAttr] {
				found = found || a.Key == attr
			}
			if !found {
				t.Errorf("window %d: %s missing attr %q: %v", tree.Window, stage,
					tracez.AttrKeyString(attr), sp.Attrs[:sp.NAttr])
			}
		}
		for name := range wantAttr {
			if count[name] != 1 {
				t.Errorf("window %d stage %s: %d spans, want exactly 1",
					tree.Window, tracez.NameString(name), count[name])
			}
		}
	}
}

// TestInstrumentNilSafe makes sure an uninstrumented runtime (the default)
// and a nil-registry instrumentation both process windows normally.
func TestInstrumentNilSafe(t *testing.T) {
	g, train := buildWorkload(t, 3000, 3)
	qs := []*query.Query{q1(100)}
	cfg := pisa.DefaultConfig()
	plan := planFor(t, qs, train, cfg, planner.ModeSonata)
	rt, err := NewWithOptions(plan, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rt.Instrument(nil, nil)
	rep := rt.ProcessWindow(framesOf(g.WindowRecords(2)))
	if rep.Switch.PacketsIn == 0 {
		t.Fatal("window did not process")
	}
}

// TestKeySetChanged drives the refinement-transition detector window by
// window: a transition is a change of the key set, whatever its order. Keys
// arrive in one reused buffer, as planner.Link.Keys hands them over.
func TestKeySetChanged(t *testing.T) {
	links := make([]link, 2)
	a, b, c := tuple.Str("a"), tuple.U64(0), tuple.U64(1<<64-1)
	steps := []struct {
		link    int
		keys    []tuple.Value
		changed bool
		why     string
	}{
		{0, nil, false, "the empty set is where every link starts"},
		{0, []tuple.Value{b, a, c}, true, "a changed set is one transition"},
		{0, []tuple.Value{c, b, a}, false, "order-independent: the same set reordered"},
		{0, []tuple.Value{a, b, c}, false, "the same set twice is no transition"},
		{1, []tuple.Value{a, b, c}, true, "distinct links are independent"},
		{0, []tuple.Value{a, b}, true, "a shrunk set is a transition"},
		{1, []tuple.Value{a, b, c}, false, "link 1 kept its set while link 0 moved"},
		{1, []tuple.Value{a, tuple.Str(""), c}, true, "the empty name is not the number 0"},
		{0, []tuple.Value{}, true, "emptying the set is a transition"},
		{0, nil, false, "nil and empty are the same set"},
	}
	var buf []tuple.Value
	for i, st := range steps {
		buf = append(buf[:0], st.keys...)
		if got := links[st.link].changed(buf); got != st.changed {
			t.Errorf("step %d (link %d, %v): changed=%v, want %v — %s",
				i, st.link, st.keys, got, st.changed, st.why)
		}
	}
}
