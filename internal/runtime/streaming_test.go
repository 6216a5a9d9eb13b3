package runtime

import (
	"testing"

	"repro/internal/pisa"
	"repro/internal/planner"
	"repro/internal/query"
	"repro/internal/telemetry"
)

// TestStreamingAPIMatchesBatch checks that feeding frames one at a time via
// Process + CloseWindow produces the same report as ProcessWindow — the
// runtime must not care how the window's packets arrive.
func TestStreamingAPIMatchesBatch(t *testing.T) {
	g, train := buildWorkload(t, 4000, 4)
	plan := planFor(t, []*query.Query{q1(100)}, train, pisa.DefaultConfig(), planner.ModeSonata)

	batch, err := NewWithOptions(plan, pisa.DefaultConfig(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	streaming, err := NewWithOptions(plan, pisa.DefaultConfig(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for w := 2; w < g.Windows(); w++ {
		frames := g.WindowRecords(w).Frames()
		repA := batch.ProcessWindow(frames)
		for _, f := range frames {
			streaming.Process(f)
		}
		repB := streaming.CloseWindow()
		if repA.TuplesToSP != repB.TuplesToSP {
			t.Errorf("window %d: tuples %d vs %d", w, repA.TuplesToSP, repB.TuplesToSP)
		}
		if len(repA.Results) != len(repB.Results) {
			t.Errorf("window %d: results %d vs %d", w, len(repA.Results), len(repB.Results))
		}
		if repA.Switch.PacketsIn != repB.Switch.PacketsIn {
			t.Errorf("window %d: packets %d vs %d", w, repA.Switch.PacketsIn, repB.Switch.PacketsIn)
		}
	}
}

// TestStreamingShardedMatchesBatch repeats the streaming contract against a
// sharded runtime: frames fed one at a time through the fan-out path must
// close to the same report as the sequential batch runtime.
func TestStreamingShardedMatchesBatch(t *testing.T) {
	g, train := buildWorkload(t, 4000, 4)
	plan := planFor(t, []*query.Query{q1(100)}, train, pisa.DefaultConfig(), planner.ModeSonata)

	batch, err := NewWithOptions(plan, pisa.DefaultConfig(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	streaming, err := NewWithOptions(plan, pisa.DefaultConfig(), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for w := 2; w < g.Windows(); w++ {
		frames := g.WindowRecords(w).Frames()
		repA := batch.ProcessWindow(frames)
		for _, f := range frames {
			streaming.Process(f)
		}
		repB := streaming.CloseWindow()
		if repA.TuplesToSP != repB.TuplesToSP {
			t.Errorf("window %d: tuples %d vs %d", w, repA.TuplesToSP, repB.TuplesToSP)
		}
		if len(repA.Results) != len(repB.Results) {
			t.Errorf("window %d: results %d vs %d", w, len(repA.Results), len(repB.Results))
		}
		if repA.Switch.PacketsIn != repB.Switch.PacketsIn {
			t.Errorf("window %d: packets %d vs %d", w, repA.Switch.PacketsIn, repB.Switch.PacketsIn)
		}
		if repA.EmitterFrames != repB.EmitterFrames {
			t.Errorf("window %d: emitter frames %d vs %d", w, repA.EmitterFrames, repB.EmitterFrames)
		}
	}
}

// TestStreamingWindowHistogramAnchoring pins the windowNS contract for
// streaming use: the duration measurement anchors at the first Process call
// of each window, one observation lands per closed window, and a window
// closed without any frames contributes no observation (there is no start
// to measure from) while still counting as a window.
func TestStreamingWindowHistogramAnchoring(t *testing.T) {
	g, train := buildWorkload(t, 3000, 4)
	plan := planFor(t, []*query.Query{q1(100)}, train, pisa.DefaultConfig(), planner.ModeSonata)

	for _, workers := range []int{1, 4} {
		rt, err := NewWithOptions(plan, pisa.DefaultConfig(), Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		reg := telemetry.NewRegistry()
		rt.Instrument(reg, nil)

		const nWindows = 2
		for w := 0; w < nWindows; w++ {
			for _, f := range g.WindowRecords(w).Frames() {
				rt.Process(f)
			}
			rt.CloseWindow()
		}
		// An empty window: no frames, so no duration anchor.
		rt.CloseWindow()

		s := reg.Snapshot()
		hv := s.Histograms["sonata_runtime_window_ns"]
		if hv.Count != nWindows {
			t.Errorf("workers=%d: window_ns count = %d, want %d (empty window must not observe)",
				workers, hv.Count, nWindows)
		}
		if hv.Sum == 0 {
			t.Errorf("workers=%d: window_ns sum = 0; streamed windows cannot take zero time", workers)
		}
		if got := s.Counter("sonata_runtime_windows_total"); got != nWindows+1 {
			t.Errorf("workers=%d: windows_total = %d, want %d (empty window still closes)",
				workers, got, nWindows+1)
		}
	}
}
