package runtime

import (
	"sort"
	"strconv"

	"repro/internal/telemetry"
	"repro/internal/tracez"
)

// runtimeMetrics is the orchestration slice of the registry. The
// per-window numbers in WindowReport are produced by the same increments
// that feed these cumulative series, so a registry snapshot and a sum of
// reports can never disagree.
type runtimeMetrics struct {
	windows        *telemetry.Counter
	tuplesToSP     *telemetry.Counter
	filterUpdates  *telemetry.Counter
	refTransitions *telemetry.Counter
	windowNS       *telemetry.Histogram
	filterUpdateNS *telemetry.Histogram
	publishNS      *telemetry.Histogram
	windowIndex    *telemetry.Gauge
	// freshNS is the freshness watermark: first frame of a window to
	// publish completion, the staleness a subscriber observes. freshByQID
	// carries the same observation per query for `sonata -top`.
	freshNS    *telemetry.Histogram
	freshByQID map[uint16]*telemetry.Histogram
	// packets feeds sonata_switch_packets_total: the runtime parses each
	// frame once and the shard switches never see Process, so the parse side
	// owns the count (the registry hands back the handle the switches hold).
	packets *telemetry.Counter
}

// freshHelp is shared with flightrec, which re-fetches the family to render
// quantiles; registration returns the existing handle only when help matches
// first registration, so the string lives in one place per package pair.
const freshHelp = "Result freshness per window in nanoseconds: first frame to publish completion."

// Instrument registers the whole deployment against reg and attaches the
// span tracer (either may be nil). It threads the registry through every
// shard's switches, emitter, and stream engine — counter series fold into
// the same totals, the register gauges split per switch (deployment index
// shard×VantagePoints+vp, the shard number at one vantage point) — so one
// call lights up the full pipeline. The tracer's lanes are wired the same
// way: lane 0 carries the orchestration (window root and lifecycle stages),
// lane i+1 carries shard i's op spans. Replan runs it again for the new
// shard set, so the series carry on across a re-plan.
func (r *Runtime) Instrument(reg *telemetry.Registry, tz *tracez.Tracer) {
	r.reg, r.tz = reg, tz
	r.lane = tz.Lane(0)
	for i, s := range r.shards {
		for vp, sw := range s.sws {
			sw.Instrument(reg, i*len(s.sws)+vp)
		}
		s.engine.Instrument(reg)
		// The shard's lane is cached so the close path can re-parent it
		// without taking the tracer's lane mutex every window. The lane
		// outlives every window: the shard writes spans into it during each
		// close, with the close barrier ordering its writes against the
		// runtime's SetContext.
		s.lane = tz.Lane(i + 1)
		s.engine.AttachTracez(s.lane)
		s.em.Instrument(reg)
	}
	if a, ok := r.sink.(TracezAttacher); ok && r.lane != nil {
		a.AttachTracez(r.lane)
	}
	if reg == nil {
		return
	}
	r.m = runtimeMetrics{
		packets: reg.Counter("sonata_switch_packets_total",
			"Frames processed by the data plane."),
		windows: reg.Counter("sonata_runtime_windows_total",
			"Query windows processed since deployment."),
		tuplesToSP: reg.Counter("sonata_runtime_tuples_to_sp_total",
			"Tuples delivered to the stream processor (the paper's headline metric)."),
		filterUpdates: reg.Counter("sonata_runtime_filter_updates_total",
			"Dynamic filter entries written at window boundaries."),
		refTransitions: reg.Counter("sonata_runtime_refinement_transitions_total",
			"Window boundaries at which a refinement link's key set changed."),
		windowNS: reg.Histogram("sonata_runtime_window_ns",
			"End-to-end wall time per window in nanoseconds.",
			telemetry.DurationBuckets),
		filterUpdateNS: reg.Histogram("sonata_runtime_filter_update_ns",
			"Wall time spent writing refinement filter updates per window.",
			telemetry.DurationBuckets),
		publishNS: reg.Histogram("sonata_runtime_publish_ns",
			"Wall time spent publishing window results to the result sink.",
			telemetry.DurationBuckets),
		windowIndex: reg.Gauge("sonata_runtime_window_index",
			"Index of the most recently closed window."),
		freshNS: reg.Histogram("sonata_freshness_ns", freshHelp,
			telemetry.DurationBuckets),
		freshByQID: make(map[uint16]*telemetry.Histogram, len(r.plan.Queries)),
	}
	for _, qp := range r.plan.Queries {
		qid := qp.Query.ID
		r.m.freshByQID[qid] = reg.Histogram("sonata_freshness_ns", freshHelp,
			telemetry.DurationBuckets, "qid", strconv.Itoa(int(qid)))
	}
}

// keySetChanged reports whether link li's refinement key set differs from
// the previous window's, updating the stored fingerprint when it does. The
// fingerprint is the sorted keys joined by NUL, built without steady-state
// allocations: keys are sorted in place (safe — every consumer has already
// copied what it keeps), the canonical form is built in a reused byte
// scratch, the comparison against the stored fingerprint allocates nothing,
// and a string is materialized only on an actual transition.
func (r *Runtime) keySetChanged(li int, keys []string) bool {
	sort.Strings(keys)
	fp := r.fpScratch[:0]
	for i, k := range keys {
		if i > 0 {
			fp = append(fp, 0)
		}
		fp = append(fp, k...)
	}
	r.fpScratch = fp
	if string(fp) == r.lastKeys[li] {
		return false
	}
	r.lastKeys[li] = string(fp)
	return true
}
