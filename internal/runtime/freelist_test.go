package runtime

import (
	goruntime "runtime"
	"testing"

	"repro/internal/pisa"
	"repro/internal/planner"
	"repro/internal/query"
)

// TestViewBatchesSurviveGC: the view batches a window hands its shards come
// back to the runtime's free list, which a garbage collection leaves alone,
// so a window right after two collections allocates no more than a warm one
// — not a fresh 256-view batch (64 KB) as it would if the batches sat in a
// sync.Pool, which two collections empty.
func TestViewBatchesSurviveGC(t *testing.T) {
	g, train := buildWorkload(t, 3000, 3)
	cfg := pisa.DefaultConfig()
	rt, err := NewWithOptions(planFor(t, []*query.Query{q1(100)}, train, cfg, planner.ModeSonata), cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	frames := g.WindowRecords(2).Frames()
	window := func() uint64 {
		var before, after goruntime.MemStats
		goruntime.ReadMemStats(&before)
		rt.ProcessWindow(frames)
		goruntime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	for range 4 {
		window()
	}
	warm := min(window(), window())
	goruntime.GC()
	goruntime.GC()
	if got := window(); got > warm+warm/4+1024 {
		t.Errorf("window after two GCs allocated %d bytes, a warm one %d", got, warm)
	}
}
