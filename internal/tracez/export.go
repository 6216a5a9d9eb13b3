package tracez

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"repro/internal/telemetry"
)

// spanJSON is one span in the /debug/trace JSON schema: interned ids
// resolved to strings, attributes as a name→value object.
type spanJSON struct {
	ID      uint32            `json:"id"`
	Parent  uint32            `json:"parent"`
	Name    string            `json:"name"`
	Shard   int16             `json:"shard"`
	QID     uint16            `json:"qid,omitempty"`
	Level   uint8             `json:"level,omitempty"`
	StartNS int64             `json:"start_ns"`
	DurNS   int64             `json:"dur_ns"`
	Attrs   map[string]uint64 `json:"attrs,omitempty"`
}

type treeJSON struct {
	Window      int        `json:"window"`
	StartNS     int64      `json:"start_ns"`
	CloseNS     int64      `json:"close_ns"`
	ThresholdNS int64      `json:"threshold_ns"`
	Reason      string     `json:"reason"`
	Spans       []spanJSON `json:"spans"`
}

type traceJSON struct {
	Stats
	Trees []treeJSON `json:"trees"`
}

func exportSpan(sp *Span) spanJSON {
	out := spanJSON{
		ID: sp.ID, Parent: sp.Parent, Name: NameString(sp.Name),
		Shard: sp.Shard, QID: sp.QID, Level: sp.Level,
		StartNS: sp.StartNS, DurNS: sp.DurNS,
	}
	if sp.NAttr > 0 {
		out.Attrs = make(map[string]uint64, sp.NAttr)
		for j := 0; j < int(sp.NAttr); j++ {
			out.Attrs[AttrKeyString(sp.Attrs[j].Key)] = sp.Attrs[j].Val
		}
	}
	return out
}

// Handler serves the retained trace buffer as /debug/trace:
//
//	/debug/trace                 JSON: tracer stats + retained trees (newest first)
//	/debug/trace?window=N        only window N's tree
//	/debug/trace?n=K             at most K trees
//	/debug/trace?format=text     text waterfall view
//	/debug/trace?format=chrome   Chrome trace-event JSON (load in Perfetto
//	                             or chrome://tracing)
func (t *Tracer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		trees := t.Trees()
		if v := q.Get("window"); v != "" {
			win, err := strconv.Atoi(v)
			if err != nil {
				http.Error(w, "tracez: bad window parameter", http.StatusBadRequest)
				return
			}
			var filtered []*Tree
			for _, tr := range trees {
				if tr.Window == win {
					filtered = append(filtered, tr)
				}
			}
			trees = filtered
		}
		if v := q.Get("n"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				http.Error(w, "tracez: bad n parameter", http.StatusBadRequest)
				return
			}
			if n < len(trees) {
				trees = trees[:n]
			}
		}
		switch q.Get("format") {
		case "chrome":
			w.Header().Set("Content-Type", "application/json")
			WriteChrome(w, trees)
		case "text":
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			io.WriteString(w, RenderWaterfall(t.Stats(), trees))
		default:
			w.Header().Set("Content-Type", "application/json")
			out := traceJSON{Stats: t.Stats(), Trees: make([]treeJSON, 0, len(trees))}
			for _, tr := range trees {
				tj := treeJSON{Window: tr.Window, StartNS: tr.StartNS,
					CloseNS: tr.CloseNS, ThresholdNS: tr.ThresholdNS,
					Reason: tr.Reason, Spans: make([]spanJSON, 0, len(tr.Spans))}
				for i := range tr.Spans {
					tj.Spans = append(tj.Spans, exportSpan(&tr.Spans[i]))
				}
				out.Trees = append(out.Trees, tj)
			}
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(&out)
		}
	})
}

// spanLabel renders a span's display label: name plus (query, level)
// attribution when present.
func spanLabel(sp *Span) string {
	if sp.QID == 0 && sp.Level == 0 {
		return NameString(sp.Name)
	}
	return fmt.Sprintf("%s q%d/%d", NameString(sp.Name), sp.QID, sp.Level)
}

// WriteChrome serializes retained trees in the Chrome trace-event format
// ("X" complete events, microsecond timestamps) that Perfetto and
// chrome://tracing load directly. Shards map to tids: tid 0 is the window
// close path (the orchestration goroutine), tid i+1 worker shard i. The
// output is deterministic for a given tree set (fixed field and attribute
// order), so a golden file can pin the schema.
func WriteChrome(w io.Writer, trees []*Tree) {
	io.WriteString(w, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")
	io.WriteString(w, `{"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"sonata window pipeline"}}`)
	fmt.Fprintf(w, ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"thread_name\",\"args\":{\"name\":\"close path\"}}")
	// Name every worker shard that appears in the tree set.
	shards := map[int16]bool{}
	for _, tr := range trees {
		for i := range tr.Spans {
			if s := tr.Spans[i].Shard; s >= 0 && !shards[s] {
				shards[s] = true
			}
		}
	}
	ordered := make([]int, 0, len(shards))
	for s := range shards {
		ordered = append(ordered, int(s))
	}
	sort.Ints(ordered)
	for _, s := range ordered {
		fmt.Fprintf(w, ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"name\":\"thread_name\",\"args\":{\"name\":\"shard %d\"}}", s+1, s)
	}
	for _, tr := range trees {
		for i := range tr.Spans {
			sp := &tr.Spans[i]
			dur := max(sp.DurNS, 0)
			fmt.Fprintf(w, ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"name\":%q,\"cat\":%q,\"ts\":%.3f,\"dur\":%.3f,\"args\":{",
				int(sp.Shard)+1, spanLabel(sp), tr.Reason,
				float64(sp.StartNS)/1e3, float64(dur)/1e3)
			fmt.Fprintf(w, "\"window\":%d,\"span\":%d,\"parent\":%d", sp.Window, sp.ID, sp.Parent)
			if sp.QID != 0 || sp.Level != 0 {
				fmt.Fprintf(w, ",\"qid\":%d,\"level\":%d", sp.QID, sp.Level)
			}
			for j := 0; j < int(sp.NAttr); j++ {
				fmt.Fprintf(w, ",%q:%d", AttrKeyString(sp.Attrs[j].Key), sp.Attrs[j].Val)
			}
			io.WriteString(w, "}}")
		}
	}
	io.WriteString(w, "\n]}\n")
}

// RenderWaterfall renders retained trees as an indented text waterfall:
// one line per span with its offset from the tree root and duration,
// children indented under parents.
func RenderWaterfall(st Stats, trees []*Tree) string {
	var b strings.Builder
	fmt.Fprintf(&b, "tracez: %d windows, %d spans, %d retained trees, close p50 %s p99 %s\n",
		st.Windows, st.Spans, st.Retained,
		telemetry.HumanNS(st.CloseP50NS), telemetry.HumanNS(st.CloseP99NS))
	if len(trees) == 0 {
		b.WriteString("no retained trees\n")
		return b.String()
	}
	for _, tr := range trees {
		fmt.Fprintf(&b, "\nwindow %d  close %s  reason %s",
			tr.Window, telemetry.HumanNS(tr.CloseNS), tr.Reason)
		if tr.ThresholdNS >= 0 {
			fmt.Fprintf(&b, "  (threshold %s)", telemetry.HumanNS(tr.ThresholdNS))
		}
		b.WriteByte('\n')
		children := map[uint32][]*Span{}
		for i := range tr.Spans {
			sp := &tr.Spans[i]
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
		for _, kids := range children {
			sort.SliceStable(kids, func(a, b int) bool {
				return kids[a].StartNS < kids[b].StartNS
			})
		}
		var walk func(parent uint32, depth int)
		walk = func(parent uint32, depth int) {
			for _, sp := range children[parent] {
				fmt.Fprintf(&b, "  %s+%-9s %-9s %s",
					strings.Repeat("  ", depth),
					telemetry.HumanNS(sp.StartNS-tr.StartNS), telemetry.HumanNS(max(sp.DurNS, 0)),
					spanLabel(sp))
				if sp.Shard >= 0 {
					fmt.Fprintf(&b, " [shard %d]", sp.Shard)
				}
				for j := 0; j < int(sp.NAttr); j++ {
					fmt.Fprintf(&b, " %s=%d",
						AttrKeyString(sp.Attrs[j].Key), sp.Attrs[j].Val)
				}
				b.WriteByte('\n')
				walk(sp.ID, depth+1)
			}
		}
		walk(0, 0)
	}
	return b.String()
}
