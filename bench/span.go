package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call the benchmark made into a layer. IDs start at 1;
// Parent 0 marks a root. Times are nanoseconds since the tracer's epoch.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Window int    `json:"window"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the plain run takes the same code path untraced.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span from clock reads the caller already took and
// returns its id.
func (t *tracer) add(name string, parent, window int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Window: window,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	return id
}

// setEnd moves the end of a span recorded before its children were.
func (t *tracer) setEnd(id int, end time.Time) {
	if t != nil {
		t.spans[id-1].End = end.Sub(t.epoch).Nanoseconds()
	}
}

// selfTimes returns each span's duration minus the time its direct children
// cover, indexed like spans. Children of one parent do not overlap (the
// benchmark is one goroutine), so their durations add.
func selfTimes(spans []span) []int64 {
	index := make(map[int]int, len(spans))
	self := make([]int64, len(spans))
	for i, s := range spans {
		index[s.ID] = i
		self[i] = s.End - s.Start
	}
	for _, s := range spans {
		if pi, ok := index[s.Parent]; ok {
			self[pi] -= s.End - s.Start
		}
	}
	return self
}

// selfByName sums self time per span name.
func selfByName(spans []span) map[string]int64 {
	ns := map[string]int64{}
	for i, d := range selfTimes(spans) {
		ns[spans[i].Name] += d
	}
	return ns
}

// perWindowMs returns, for spans of the given name, their durations in
// milliseconds in recording order.
func perWindowMs(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// write stores the spans as JSON under dir.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
