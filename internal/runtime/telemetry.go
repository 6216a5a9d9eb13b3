package runtime

import (
	"sort"
	"strconv"
	"time"

	"repro/internal/telemetry"
	"repro/internal/tracez"
)

// runtimeMetrics is the deployment's slice of the registry: every series
// the switches, emitters, stream engines and the orchestration export. None
// is touched while packets flow; observe advances them all from the
// WindowReport at window close, so a registry snapshot and a sum of reports
// can never disagree.
type runtimeMetrics struct {
	// The data plane. switches is indexed by switch number and keeps every
	// switch ever registered, so a re-plan onto fewer switches zeroes the
	// register gauges of the ones it dropped.
	packets, mirrored, collisions, dumpTuples, dynUpdates *telemetry.Counter
	switches                                              []switchSeries
	// The stream processor; insts is parallel to WindowReport.Instances.
	spTuplesIn, spResults, flushes, flushRows *telemetry.Counter
	spEvalNS                                  *telemetry.Histogram
	insts                                     []instanceSeries
	// The monitoring port.
	emFrames, emMalformed, emBytes, emBatches, emDeepDecodes, emDumps *telemetry.Counter
	// The orchestration. freshNS is the freshness watermark: first frame of
	// a window to publish completion, the staleness a subscriber observes;
	// freshByQID carries the same observation per query for `sonata -top`.
	// ringFull and workerParks are the shards' back-pressure, by shard.
	windows, tuplesToSP, filterUpdates, refTransitions *telemetry.Counter
	windowNS, filterUpdateNS, publishNS, freshNS       *telemetry.Histogram
	windowIndex                                        *telemetry.Gauge
	freshByQID                                         []*telemetry.Histogram
	ringFull, workerParks                              []*telemetry.Counter
}

// switchSeries is one switch's labeled series.
type switchSeries struct {
	screened, entered *telemetry.Counter
	regUsed, regCap   *telemetry.Gauge
}

// instanceSeries is one (query, level) instance's labeled series.
type instanceSeries struct {
	tuplesIn, results *telemetry.Counter
	evalNS            *telemetry.Histogram
}

// freshHelp is shared with flightrec, which re-fetches the family to render
// quantiles; registration returns the existing handle only when help matches
// first registration, so the string lives in one place per package pair.
const freshHelp = "Result freshness per window in nanoseconds: first frame to publish completion."

// Instrument registers the whole deployment against reg and attaches the
// span tracer (either may be nil). Counter series fold every shard into one
// total; the register gauges and prescreen counters split per switch
// (deployment index shard×VantagePoints+vp, the shard number at one vantage
// point), the stream series per (query, level) instance and the
// back-pressure counters per shard. The series advance once per window, at
// close (observe): a scrape taken mid-window reads the previous close's
// totals. The tracer's lanes are wired here too: lane 0 carries the
// orchestration (window root and lifecycle stages), lane i+1 carries shard
// i's op spans. Replan runs it again for the new shard set, so the series
// carry on across a re-plan.
func (r *Runtime) Instrument(reg *telemetry.Registry, tz *tracez.Tracer) {
	stale := r.m.switches
	if reg != r.reg {
		stale = nil
	}
	r.reg, r.tz = reg, tz
	r.lane = tz.Lane(0)
	for i, s := range r.shards {
		// The shard's lane is cached so the close path can re-parent it
		// without taking the tracer's lane mutex every window. The lane
		// outlives every window: the shard writes spans into it during each
		// close, with the close barrier ordering its writes against the
		// runtime's SetContext.
		s.lane = tz.Lane(i + 1)
		s.engine.AttachTracez(s.lane)
	}
	if a, ok := r.sink.(TracezAttacher); ok && r.lane != nil {
		a.AttachTracez(r.lane)
	}
	r.m = runtimeMetrics{}
	if reg == nil {
		return
	}
	m := &r.m
	// Registration order is exposition order: shard by shard, its switches,
	// stream engine and emitter, then the orchestration.
	m.insts = make([]instanceSeries, len(r.infos))
	for i, s := range r.shards {
		for vp := range s.sws {
			label := strconv.Itoa(i*len(s.sws) + vp)
			m.packets = reg.Counter("sonata_switch_packets_total",
				"Frames processed by the data plane.")
			m.mirrored = reg.Counter("sonata_switch_mirrored_total",
				"Mirror reports sent out the monitoring port.")
			m.collisions = reg.Counter("sonata_switch_collisions_total",
				"Stateful updates that overflowed all register chains.")
			m.dumpTuples = reg.Counter("sonata_switch_dump_tuples_total",
				"Aggregated (key, value) pairs dumped at window boundaries.")
			m.dynUpdates = reg.Counter("sonata_switch_dyn_table_updates_total",
				"Dynamic filter entries written by refinement updates.")
			m.switches = append(m.switches, switchSeries{
				screened: reg.Counter("sonata_pisa_prescreen_frames_total",
					"Runnable frames offered to instances guarded by leading filters, summed over those instances.", "shard", label),
				entered: reg.Counter("sonata_pisa_prescreen_entered_total",
					"Frames that passed an instance's leading filters into its first table behind them.", "shard", label),
				regUsed: reg.Gauge("sonata_switch_register_entries_used",
					"Register slots occupied at the last window boundary.", "shard", label),
				regCap: reg.Gauge("sonata_switch_register_entries_capacity",
					"Total register slots across all installed banks.", "shard", label),
			})
		}
		m.spTuplesIn = reg.Counter("sonata_stream_tuples_in_total",
			"Tuples (or mirrored packets) ingested by the stream processor.")
		m.spResults = reg.Counter("sonata_stream_result_tuples_total",
			"Result tuples produced across all query instances.")
		m.spEvalNS = reg.Histogram("sonata_stream_eval_ns",
			"Per-instance window-close evaluation time in nanoseconds.",
			telemetry.DurationBuckets)
		m.flushes = reg.Counter("sonata_stream_batch_flushes_total",
			"Column-batch flushes run by the batched executor.")
		m.flushRows = reg.Counter("sonata_stream_batch_rows_total",
			"Tuples processed through column-batch flushes (rows per flush = ratio to flushes).")
		for _, slot := range s.slots {
			key := r.infos[slot].key
			labels := []string{
				"qid", strconv.Itoa(int(key.QID)),
				"level", strconv.Itoa(int(key.Level)),
			}
			m.insts[slot] = instanceSeries{
				tuplesIn: reg.Counter("sonata_stream_query_tuples_in_total",
					"Tuples ingested by one (query, level) instance.", labels...),
				results: reg.Counter("sonata_stream_query_result_tuples_total",
					"Result tuples produced by one (query, level) instance.", labels...),
				evalNS: reg.Histogram("sonata_stream_query_eval_ns",
					"Window-close evaluation time of one (query, level) instance.",
					telemetry.DurationBuckets, labels...),
			}
		}
		m.emFrames = reg.Counter("sonata_emitter_frames_total",
			"Telemetry frames decoded off the monitoring port.")
		m.emMalformed = reg.Counter("sonata_emitter_malformed_total",
			"Telemetry frames (or embedded packets) that failed to parse, or that no installed instance takes.")
		m.emBytes = reg.Counter("sonata_emitter_bytes_total",
			"Encoded telemetry bytes crossing the monitoring port.")
		m.emBatches = reg.Counter("sonata_emitter_batches_total",
			"Mirror batches handed over in process (frames per batch is the mean run the stream processor sees).")
		m.emDeepDecodes = reg.Counter("sonata_emitter_deep_decodes_total",
			"Mirrored packets whose DNS layer was deep-decoded, which happens only while an installed query reads a DNS field: once per view per batch in process, once per frame on the wire path.")
		m.emDumps = reg.Counter("sonata_emitter_dump_tuples_total",
			"Register-dump tuples converted into pre-aggregated records.")
	}
	if len(stale) > len(m.switches) {
		m.switches = append(m.switches, stale[len(m.switches):]...)
	}
	m.windows = reg.Counter("sonata_runtime_windows_total",
		"Query windows processed since deployment.")
	m.tuplesToSP = reg.Counter("sonata_runtime_tuples_to_sp_total",
		"Tuples delivered to the stream processor (the paper's headline metric).")
	m.filterUpdates = reg.Counter("sonata_runtime_filter_updates_total",
		"Dynamic filter entries written at window boundaries.")
	m.refTransitions = reg.Counter("sonata_runtime_refinement_transitions_total",
		"Window boundaries at which a refinement link's key set changed.")
	m.windowNS = reg.Histogram("sonata_runtime_window_ns",
		"End-to-end wall time per window in nanoseconds.",
		telemetry.DurationBuckets)
	m.filterUpdateNS = reg.Histogram("sonata_runtime_filter_update_ns",
		"Wall time spent writing refinement filter updates per window.",
		telemetry.DurationBuckets)
	m.publishNS = reg.Histogram("sonata_runtime_publish_ns",
		"Wall time spent publishing window results to the result sink.",
		telemetry.DurationBuckets)
	m.windowIndex = reg.Gauge("sonata_runtime_window_index",
		"Index of the most recently closed window.")
	m.freshNS = reg.Histogram("sonata_freshness_ns", freshHelp,
		telemetry.DurationBuckets)
	for _, qp := range r.plan.Queries {
		m.freshByQID = append(m.freshByQID, reg.Histogram("sonata_freshness_ns", freshHelp,
			telemetry.DurationBuckets, "qid", strconv.Itoa(int(qp.Query.ID))))
	}
	for i := range r.shards {
		m.ringFull = append(m.ringFull, reg.Counter("sonata_runtime_ring_full_total",
			"Times the dispatch side parked on a shard's full ring.", "shard", strconv.Itoa(i)))
	}
	for i := range r.shards {
		m.workerParks = append(m.workerParks, reg.Counter("sonata_runtime_worker_parks_total",
			"Times a shard's worker parked on its empty ring.", "shard", strconv.Itoa(i)))
	}
}

// closeTotals is what a window close measures beside its report.
type closeTotals struct {
	// transitions counts the refinement links whose key set changed,
	// switchEntries the filter entries written to switch tables.
	transitions   uint64
	switchEntries uint64
	// window is the first frame to the refinement update, fresh the first
	// frame to publish completion (both only when timed: the window saw a
	// frame), publish the sink's Publish (when published).
	window, fresh, publish time.Duration
	timed, published       bool
}

// observe advances every registry series by one closed window: rep and the
// shards' close results it was merged from.
func (r *Runtime) observe(rep *WindowReport, ct *closeTotals) {
	if r.reg == nil {
		return
	}
	m := &r.m
	sw := &rep.Switch
	m.packets.Add(sw.PacketsIn)
	m.mirrored.Add(sw.Mirrored)
	m.collisions.Add(sw.Collisions)
	m.dumpTuples.Add(sw.DumpTuples)
	m.dynUpdates.Add(ct.switchEntries)
	d := 0
	for _, s := range r.shards {
		cr := &s.cr
		for vp := range cr.sws {
			st, ss := &cr.sws[vp], &m.switches[d]
			d++
			ss.screened.Add(st.Screened)
			ss.entered.Add(st.Entered)
			ss.regUsed.Set(int64(st.RegUsed))
			ss.regCap.Set(int64(st.RegCapacity))
		}
		m.flushes.Add(cr.metrics.Flushes)
		m.flushRows.Add(cr.metrics.FlushRows)
		m.emBatches.Add(cr.em.Batches)
		m.emDeepDecodes.Add(cr.em.DeepDecodes)
	}
	for _, ss := range m.switches[d:] {
		ss.regUsed.Set(0)
		ss.regCap.Set(0)
	}
	m.spTuplesIn.Add(rep.TuplesToSP)
	for i := range rep.Instances {
		c, is := &rep.Instances[i], &m.insts[i]
		eval := time.Duration(c.EvalNS)
		is.tuplesIn.Add(c.TuplesToSP)
		is.results.Add(c.Results)
		is.evalNS.ObserveDuration(eval)
		m.spResults.Add(c.Results)
		m.spEvalNS.ObserveDuration(eval)
		m.emBytes.Add(c.MirrorBytes)
	}
	m.emFrames.Add(rep.EmitterFrames)
	m.emMalformed.Add(rep.EmitterMalformed)
	m.emDumps.Add(sw.DumpTuples)

	m.windows.Inc()
	m.windowIndex.Set(int64(rep.Index))
	m.tuplesToSP.Add(rep.TuplesToSP)
	m.filterUpdates.Add(uint64(rep.FilterUpdates))
	m.refTransitions.Add(ct.transitions)
	m.filterUpdateNS.ObserveDuration(rep.UpdateDuration)
	if ct.timed {
		m.windowNS.ObserveDuration(ct.window)
		m.freshNS.ObserveDuration(ct.fresh)
		for _, h := range m.freshByQID {
			h.ObserveDuration(ct.fresh)
		}
	}
	if ct.published {
		m.publishNS.ObserveDuration(ct.publish)
	}
	for i := range r.shards {
		m.ringFull[i].Add(rep.RingFull[i])
		m.workerParks[i].Add(rep.WorkerParks[i])
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
