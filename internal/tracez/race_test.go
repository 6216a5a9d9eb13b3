package tracez

import (
	"fmt"
	"io"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
)

// TestCloseWindowAgainstReaders is the concurrency contract under -race
// (`make check-trace`): the close goroutine hands the tracer one tree per
// window, written into a single reused slice as the runtime does, while
// readers poll what /debug/trace and the flight recorder's trace cross-link
// call — the Handler in all three formats, Trees, Has and Stats. Every tree
// a reader sees must be whole: each span stamped with the tree's window,
// which fails if the tracer kept the caller's slice instead of a copy.
func TestCloseWindowAgainstReaders(t *testing.T) {
	const (
		windows = 200
		readers = 4
	)
	tz := New(Options{HeadEvery: 3, MinWindows: 10, RetainCap: 8})
	h := tz.Handler()
	var done atomic.Bool
	errs := make(chan error, readers)
	report := func(err error) { // keeps the first few; readers carry on
		select {
		case errs <- err:
		default:
		}
	}
	// ready holds the second half of the windows back until every reader
	// has made a pass, so the readers overlap the closes.
	var wg, ready sync.WaitGroup
	ready.Add(readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			formats := []string{"", "?format=text", "?format=chrome"}
			for n := 0; !done.Load(); n++ {
				if n == 1 {
					ready.Done()
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace"+formats[(i+n)%3], nil))
				io.Copy(io.Discard, rec.Body)
				tz.Has(n % windows)
				if st := tz.Stats(); st.Retained > 8 {
					report(fmt.Errorf("stats report %d retained trees past the capacity of 8", st.Retained))
				}
				for _, tr := range tz.Trees() {
					for _, sp := range tr.Spans {
						if int(sp.Window) != tr.Window {
							report(fmt.Errorf("tree of window %d holds a span of window %d", tr.Window, sp.Window))
						}
					}
				}
			}
		}(i)
	}

	spans := make([]Span, 0, 16)
	for w := 0; w < windows; w++ {
		if w == windows/2 {
			ready.Wait()
		}
		spans = append(spans[:0], window(w, int64(1000+w%7))...)
		for op := 0; op < 8; op++ {
			sp := Span{Name: NameOpEval, Parent: 2, Shard: int16(op % 2), QID: uint16(op + 1)}.
				With(AttrTuplesIn, uint64(op))
			sp.ID, sp.Window = uint32(len(spans)+1), int32(w)
			spans = append(spans, sp)
		}
		tz.CloseWindow(w, spans)
	}
	done.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := tz.Stats()
	if st.Windows != windows || st.Spans != windows*11 {
		t.Fatalf("windows/spans = %d/%d, want %d/%d", st.Windows, st.Spans, windows, windows*11)
	}
	if st.Retained != 8 {
		t.Fatalf("retained = %d, want the capacity 8", st.Retained)
	}
	for _, tr := range tz.Trees() {
		if len(tr.Spans) != 11 || !tz.Has(tr.Window) {
			t.Fatalf("window %d: %d spans retained, want 11", tr.Window, len(tr.Spans))
		}
		for _, sp := range tr.Spans {
			if int(sp.Window) != tr.Window {
				t.Fatalf("tree of window %d holds a span of window %d", tr.Window, sp.Window)
			}
		}
	}
}
