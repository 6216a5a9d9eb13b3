package runtime_test

import (
	"slices"
	"testing"

	"repro/internal/fields"
	"repro/internal/pisa"
	"repro/internal/planner"
	"repro/internal/runtime"
	"repro/internal/tuple"
)

// TestJoinPublishesHandDown: over the evaluation workload and all eleven
// queries, the key set each join instance publishes at window close is the
// refinement rule's output over that window's left and right sub-pipeline
// outputs, each read through the schema its result carries.
func TestJoinPublishesHandDown(t *testing.T) {
	wl := smallVantageWorkload(t)
	rt, err := runtime.NewWithOptions(wl.plan, pisa.DefaultConfig(), runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	keyOf := make(map[uint16]fields.ID)
	for _, qp := range wl.plan.Queries {
		keyOf[qp.Query.ID] = qp.Key.Field
	}
	seen, handed := make(map[tuple.Value]int), 0
	for w, frames := range wl.frames {
		rep := rt.ProcessWindow(frames)
		for i, l := range rt.Links() {
			for _, res := range rep.AllResults {
				if res.QID != l.QID || res.Level != l.From || res.RightSchema == nil {
					continue
				}
				f := keyOf[l.QID]
				want := planner.HandDown(nil, seen, f, int(l.From),
					planner.KeyedRows{Rows: res.LeftOutputs, Col: res.LeftSchema.Index(f)},
					planner.KeyedRows{Rows: res.RightOutputs, Col: res.RightSchema.Index(f)})
				slices.SortFunc(want, tuple.Value.Compare)
				if got := rt.Published(i); !slices.Equal(got, want) {
					t.Errorf("window %d, q%d /%d to /%d: published %v, the rule gives %v", w, l.QID, l.From, l.To, got, want)
				}
				handed += len(want)
			}
		}
	}
	if handed == 0 {
		t.Fatal("no join instance handed a key down: the test is vacuous")
	}
}
