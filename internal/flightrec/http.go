package flightrec

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"text/tabwriter"

	"repro/internal/telemetry"
)

// Handler serves the recorder as /debug/queries:
//
//	/debug/queries             JSON Snapshot (latest window)
//	/debug/queries?n=K         include up to K older windows as history
//	/debug/queries?fmt=text    aligned table, one row per (qid, level)
//	/debug/queries?fmt=text&ops=1   plus per-op in/out rows
func (rec *Recorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		history := 0
		if v := q.Get("n"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				http.Error(w, "flightrec: bad n parameter", http.StatusBadRequest)
				return
			}
			history = n
		}
		s := rec.Snapshot(history)
		if q.Get("fmt") == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprint(w, RenderText(&s, q.Get("ops") == "1"))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(&s)
	})
}

// RenderText renders a snapshot as an aligned human-readable table, one row
// per (qid, level) instance; showOps adds an indented in/out row per
// pipeline op.
func RenderText(s *Snapshot, showOps bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "window %d  (%d committed, capacity %d, evicted %d)\n",
		s.Window, s.Committed, s.Capacity, s.Evicted)
	if s.WindowP99NS > 0 || s.FreshP99NS > 0 {
		fmt.Fprintf(&b, "close p50 %s p99 %s   fresh p50 %s p99 %s\n",
			telemetry.HumanNS(s.WindowP50NS), telemetry.HumanNS(s.WindowP99NS),
			telemetry.HumanNS(s.FreshP50NS), telemetry.HumanNS(s.FreshP99NS))
	}
	if s.TraceURL != "" {
		fmt.Fprintf(&b, "trace: %s\n", s.TraceURL)
	}
	if len(s.Queries) == 0 {
		b.WriteString("no committed windows\n")
		return b.String()
	}
	tw := tabwriter.NewWriter(&b, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "QID\tLVL\tSHD\tTUPLES\tREDUCE\tMIRROR\tBYTES\tDELIV\tCOLL\tDUMPS\tREG\tEST\tOBS\tDRIFT\tBUSY\tEVAL\tFRESH\tRESULTS\tREFINE\t")
	for i := range s.Queries {
		r := &s.Queries[i]
		reg := "-"
		if r.RegCapacity > 0 {
			reg = fmt.Sprintf("%d/%d", r.RegUsed, r.RegCapacity)
		}
		ref := "-"
		if r.RefFrom >= 0 {
			ref = fmt.Sprintf("/%d:%dk", r.RefFrom, r.RefKeys)
			if r.RefChanged {
				ref += "*"
			}
		}
		fmt.Fprintf(tw, "%d\t/%d\t%d\t%d\t%s\t%d\t%s\t%s\t%d\t%d\t%s\t%d\t%d\t%.2f\t%s\t%s\t%s\t%d\t%s\t\n",
			r.QID, r.Level, r.Shard, r.TuplesToSP, humanFactor(r.Reduction),
			r.Mirrored, humanBytes(r.MirrorBytes), humanBytes(r.DeliveredBytes),
			r.Collisions, r.DumpTuples,
			reg, r.EstWork, r.ObsWork, r.Drift,
			telemetry.HumanNS(r.BusyNS), telemetry.HumanNS(r.EvalNS), telemetry.HumanNS(r.FreshNS), r.Results, ref)
		if showOps {
			for _, op := range r.Ops {
				fmt.Fprintf(tw, "\t\t\t\t\t\t\t\t\t\t\t\t\t\t\t\t\t\t%s in=%d out=%d\t\n",
					op.Label, op.In, op.Out)
			}
		}
	}
	tw.Flush()
	return b.String()
}

// RenderTop renders a refreshing top-style view from two consecutive polls:
// cur supplies the latest window, prev (which may be nil on the first
// frame) the cumulative baselines for rate columns. elapsedSec is the poll
// interval in seconds.
func RenderTop(prev, cur *Snapshot, elapsedSec float64) string {
	var b strings.Builder
	var totTuples, totPkts, totBytes uint64
	for i := range cur.Queries {
		totTuples += cur.Queries[i].TuplesToSP
		totBytes += cur.Queries[i].MirrorBytes
	}
	if len(cur.Queries) > 0 {
		totPkts = cur.Queries[0].PacketsIn
	}
	den := totTuples
	if den == 0 {
		den = 1
	}
	fmt.Fprintf(&b, "sonata top — window %d   %d pkts -> %d tuples (overall reduction %s)   %s to SP\n",
		cur.Window, totPkts, totTuples, humanFactor(float64(totPkts)/float64(den)),
		humanBytes(totBytes))
	fmt.Fprintf(&b, "windows committed %d   ring %d   evicted %d   close p50 %s p99 %s   fresh p50 %s p99 %s\n\n",
		cur.Committed, cur.Capacity, cur.Evicted,
		telemetry.HumanNS(cur.WindowP50NS), telemetry.HumanNS(cur.WindowP99NS),
		telemetry.HumanNS(cur.FreshP50NS), telemetry.HumanNS(cur.FreshP99NS))
	tw := tabwriter.NewWriter(&b, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "QID\tLVL\tSHD\tTUPLES\tTUP/S\tREDUCE\tREG%\tCOLL\tDRIFT\tBUSY\tFRESH\tREFINE\t")
	prevCum := map[[2]uint16]uint64{}
	if prev != nil {
		for i := range prev.Queries {
			r := &prev.Queries[i]
			prevCum[[2]uint16{r.QID, uint16(r.Level)}] = r.CumTuples
		}
	}
	for i := range cur.Queries {
		r := &cur.Queries[i]
		rate := "-"
		if prev != nil && elapsedSec > 0 {
			d := r.CumTuples - prevCum[[2]uint16{r.QID, uint16(r.Level)}]
			rate = fmt.Sprintf("%.0f", float64(d)/elapsedSec)
		}
		regPct := "-"
		if r.RegCapacity > 0 {
			regPct = fmt.Sprintf("%.0f%%", 100*float64(r.RegUsed)/float64(r.RegCapacity))
		}
		ref := "-"
		if r.RefFrom >= 0 {
			ref = fmt.Sprintf("/%d:%dk", r.RefFrom, r.RefKeys)
			if r.RefChanged {
				ref += "*"
			}
		}
		fmt.Fprintf(tw, "%d\t/%d\t%d\t%d\t%s\t%s\t%s\t%d\t%.2f\t%s\t%s\t%s\t\n",
			r.QID, r.Level, r.Shard, r.TuplesToSP, rate,
			humanFactor(r.Reduction), regPct, r.Collisions, r.Drift,
			telemetry.HumanNS(r.BusyNS), telemetry.HumanNS(r.FreshNS), ref)
	}
	tw.Flush()
	if cur.TraceURL != "" {
		fmt.Fprintf(&b, "\ntrace: %s\n", cur.TraceURL)
	}
	return b.String()
}

// humanFactor renders a tuple-reduction factor compactly (e.g. "21000x").
func humanFactor(f float64) string {
	switch {
	case f >= 1000:
		return fmt.Sprintf("%.0fx", f)
	case f >= 10:
		return fmt.Sprintf("%.1fx", f)
	default:
		return fmt.Sprintf("%.2fx", f)
	}
}

// humanBytes renders a byte count with a unit suffix.
func humanBytes(n uint64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fkB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
