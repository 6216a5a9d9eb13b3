package runtime

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/pisa"
	"repro/internal/planner"
	"repro/internal/query"
	"repro/internal/tracez"
)

// treeShape reduces a retained tree to a sorted list of structural span
// descriptors — (name, qid, level, parent-name) — dropping everything that
// legitimately varies across worker counts: shard attribution, span IDs,
// timings, and attribute values.
func treeShape(t *testing.T, tree *tracez.Tree) []string {
	t.Helper()
	byID := make(map[uint32]tracez.Span, len(tree.Spans))
	for _, sp := range tree.Spans {
		byID[sp.ID] = sp
	}
	shape := make([]string, 0, len(tree.Spans))
	for _, sp := range tree.Spans {
		parent := "root"
		if sp.Parent != 0 {
			p, ok := byID[sp.Parent]
			if !ok {
				t.Fatalf("window %d: span %s has dangling parent %d",
					tree.Window, tracez.NameString(sp.Name), sp.Parent)
			}
			parent = tracez.NameString(p.Name)
		}
		shape = append(shape, fmt.Sprintf("%s q%d/%d < %s",
			tracez.NameString(sp.Name), sp.QID, sp.Level, parent))
	}
	sort.Strings(shape)
	return shape
}

// TestTraceTreeDifferentialWorkers runs the same workload at 1, 2, and 8
// workers with head sampling set to retain every window, then asserts the
// retained span-tree structure is identical across worker counts. Query
// instances are owner-partitioned across shards, so even the span multiset
// must match — only shard attribution and timings may differ. The streaming
// path (Process per frame, then CloseWindow) at 1 and 2 workers must build
// the same trees as ProcessWindow.
func TestTraceTreeDifferentialWorkers(t *testing.T) {
	g, train := buildWorkload(t, 4000, 5)
	qs := []*query.Query{q1(100)}
	cfg := pisa.DefaultConfig()
	plan := planFor(t, qs, train, cfg, planner.ModeSonata)

	const nWindows = 4
	type run struct {
		workers   int
		streaming bool
	}
	runs := []run{{1, false}, {2, false}, {8, false}, {1, true}, {2, true}}
	shapes := map[run]map[int][]string{} // run -> window -> shape
	for _, c := range runs {
		rt, err := NewWithOptions(plan, cfg, Options{Workers: c.workers})
		if err != nil {
			t.Fatal(err)
		}
		tz := tracez.New(tracez.Options{HeadEvery: 1})
		rt.Instrument(nil, tz)
		for w := 0; w < nWindows; w++ {
			frames := g.WindowRecords(w).Frames()
			if !c.streaming {
				rt.ProcessWindow(frames)
				continue
			}
			for _, f := range frames {
				rt.Process(f)
			}
			rt.CloseWindow()
		}
		rt.Close()
		trees := tz.Trees()
		if len(trees) != nWindows {
			t.Fatalf("%+v: retained %d trees, want %d (HeadEvery=1)",
				c, len(trees), nWindows)
		}
		shapes[c] = map[int][]string{}
		for _, tree := range trees {
			shapes[c][tree.Window] = treeShape(t, tree)
		}
	}

	for w := 0; w < nWindows; w++ {
		base := shapes[runs[0]][w]
		if len(base) == 0 {
			t.Fatalf("window %d missing from sequential run", w)
		}
		// Sanity: the tree holds the lifecycle stages and per-instance op
		// spans parented under stream_eval, not just a bare root. (Coarse
		// refinement levels run on the switch; only stream-resident
		// instances get op spans.)
		want := map[string]bool{
			"window q0/0 < root":          false,
			"switch_pass q0/0 < window":   false,
			"stream_eval q0/0 < window":   false,
			"filter_update q0/0 < window": false,
		}
		opSpans := 0
		for _, s := range base {
			if _, ok := want[s]; ok {
				want[s] = true
			}
			if strings.HasPrefix(s, "op_eval q1/") && strings.HasSuffix(s, "< stream_eval") {
				opSpans++
			}
		}
		for s, seen := range want {
			if !seen {
				t.Errorf("window %d: sequential tree missing span %q; got %v", w, s, base)
			}
		}
		if opSpans == 0 {
			t.Errorf("window %d: no op_eval spans under stream_eval; got %v", w, base)
		}
		for _, c := range runs[1:] {
			got := shapes[c][w]
			if len(got) != len(base) {
				t.Errorf("window %d: %+v retained %d spans, sequential %d\nseq: %v\ngot: %v",
					w, c, len(got), len(base), base, got)
				continue
			}
			for i := range base {
				if got[i] != base[i] {
					t.Errorf("window %d %+v: span[%d] = %q, sequential %q",
						w, c, i, got[i], base[i])
				}
			}
		}
	}
}

// slowSink inflates one window's publish latency so its root close time
// spikes far above the rolling quantile.
type slowSink struct {
	slowAt int
	delay  time.Duration
}

func (s *slowSink) Publish(rep *WindowReport) ([]uint64, int) {
	if rep.Index == s.slowAt {
		time.Sleep(s.delay)
	}
	return nil, 0
}

// TestLatencyTriggeredRetention is the acceptance check for the retention
// policy: with head sampling off, a window whose close latency is inflated
// well past the rolling p99 is retained in full (reason "latency"), while
// typical windows are not.
func TestLatencyTriggeredRetention(t *testing.T) {
	g, train := buildWorkload(t, 3000, 6)
	qs := []*query.Query{q1(100)}
	cfg := pisa.DefaultConfig()
	plan := planFor(t, qs, train, cfg, planner.ModeSonata)
	rt, err := NewWithOptions(plan, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tz := tracez.New(tracez.Options{HeadEvery: -1, MinWindows: 8})
	rt.Instrument(nil, tz)

	const nWindows = 24
	const slowWin = 16
	rt.SetResultSink(&slowSink{slowAt: slowWin, delay: 100 * time.Millisecond})
	for w := 0; w < nWindows; w++ {
		rt.ProcessWindow(g.WindowRecords(w % g.Windows()).Frames())
	}

	if !tz.Has(slowWin) {
		t.Fatalf("inflated window %d was not retained", slowWin)
	}
	var slow *tracez.Tree
	retained := tz.Trees()
	for _, tree := range retained {
		if tree.Window == slowWin {
			slow = tree
		}
	}
	if slow.Reason != "latency" {
		t.Errorf("slow window retained with reason %q, want \"latency\"", slow.Reason)
	}
	if slow.ThresholdNS <= 0 {
		t.Errorf("slow window threshold = %d, want > 0 (estimator past warm-up)", slow.ThresholdNS)
	}
	if slow.CloseNS < (50 * time.Millisecond).Nanoseconds() {
		t.Errorf("slow window close = %dns, want >= the injected 100ms delay's order", slow.CloseNS)
	}
	// The tree is complete: root, stages, and the per-instance op spans.
	names := map[string]int{}
	for _, sp := range slow.Spans {
		names[tracez.NameString(sp.Name)]++
	}
	for _, n := range []string{"window", "switch_pass", "emitter_decode", "stream_eval", "filter_update", "publish", "op_eval"} {
		if names[n] == 0 {
			t.Errorf("slow window tree missing %q span (have %v)", n, names)
		}
	}
	// Selectivity: latency retention must not fire on most typical windows.
	// Scheduling jitter can legitimately tip a fast window over a rolling
	// power-of-two bucket boundary, so bound the count rather than pinning
	// individual windows.
	if len(retained) > nWindows/3 {
		t.Errorf("retained %d of %d windows; latency trigger is not selective", len(retained), nWindows)
	}
}
