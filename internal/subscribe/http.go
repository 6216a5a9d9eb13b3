package subscribe

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"text/tabwriter"
)

// SubSnapshot describes one attached subscriber for /debug/subscribers.
type SubSnapshot struct {
	ID             uint64   `json:"id"`
	Mode           string   `json:"mode"`
	Policy         string   `json:"policy"`
	SampleInterval string   `json:"sample_interval,omitempty"`
	Queries        []uint16 `json:"queries,omitempty"` // empty = all
	AllLevels      bool     `json:"all_levels"`
	QueueLen       int      `json:"queue_len"`
	QueueCap       int      `json:"queue_cap"`
	Highwater      int      `json:"highwater"`
	Delivered      uint64   `json:"delivered"`
	Dropped        uint64   `json:"dropped"`
}

// Snapshot is the /debug/subscribers document.
type Snapshot struct {
	Active      int           `json:"active"`
	Instances   int           `json:"instances"` // (query, level) keys with retained state
	Subscribers []SubSnapshot `json:"subscribers"`
}

// Snapshot captures the current subscriber set, ordered by id.
func (s *Server) Snapshot() Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := Snapshot{
		Active:      len(s.subs),
		Instances:   len(s.last),
		Subscribers: make([]SubSnapshot, 0, len(s.subs)),
	}
	for _, sub := range s.subs { // attach order is id order
		ss := SubSnapshot{
			ID:        sub.id,
			Mode:      sub.req.Mode.String(),
			Policy:    sub.req.Policy.String(),
			Queries:   sub.req.Queries,
			AllLevels: sub.req.AllLevels,
			QueueLen:  len(sub.pending),
			QueueCap:  sub.req.QueueCap,
			Highwater: sub.highwater,
			Delivered: sub.delivered,
			Dropped:   sub.dropped,
		}
		if sub.req.SampleInterval > 0 {
			ss.SampleInterval = sub.req.SampleInterval.String()
		}
		snap.Subscribers = append(snap.Subscribers, ss)
	}
	return snap
}

// Handler serves the subscriber set as /debug/subscribers:
//
//	/debug/subscribers           JSON Snapshot
//	/debug/subscribers?fmt=text  aligned table, one row per subscriber
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		snap := s.Snapshot()
		if r.URL.Query().Get("fmt") == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprint(w, renderSubscribers(&snap))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(&snap)
	})
}

func renderSubscribers(snap *Snapshot) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d subscriber(s), %d instance(s) with retained state\n",
		snap.Active, snap.Instances)
	if len(snap.Subscribers) == 0 {
		return b.String()
	}
	tw := tabwriter.NewWriter(&b, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "ID\tMODE\tPOLICY\tINTERVAL\tQUERIES\tLEVELS\tQUEUE\tHIWAT\tDELIVERED\tDROPPED\t")
	for i := range snap.Subscribers {
		ss := &snap.Subscribers[i]
		iv := "-"
		if ss.SampleInterval != "" {
			iv = ss.SampleInterval
		}
		qs := "all"
		if len(ss.Queries) > 0 {
			parts := make([]string, len(ss.Queries))
			for j, q := range ss.Queries {
				parts[j] = fmt.Sprint(q)
			}
			qs = strings.Join(parts, ",")
		}
		levels := "finest"
		if ss.AllLevels {
			levels = "all"
		}
		fmt.Fprintf(tw, "%d\t%s\t%s\t%s\t%s\t%s\t%d/%d\t%d\t%d\t%d\t\n",
			ss.ID, ss.Mode, ss.Policy, iv, qs, levels,
			ss.QueueLen, ss.QueueCap, ss.Highwater, ss.Delivered, ss.Dropped)
	}
	tw.Flush()
	return b.String()
}
