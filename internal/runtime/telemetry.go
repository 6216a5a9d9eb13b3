package runtime

import (
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
	// a window to publish completion, the staleness a subscriber observes.
	// ringFull and workerParks are the shards' back-pressure, by shard.
	windows, tuplesToSP, filterUpdates, refTransitions *telemetry.Counter
	windowNS, filterUpdateNS, publishNS, freshNS       *telemetry.Histogram
	windowIndex                                        *telemetry.Gauge
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
// totals. The tracer is handed each window's span tree at close (trace).
// Replan runs it again for the new shard set, so the series carry on across
// a re-plan.
func (r *Runtime) Instrument(reg *telemetry.Registry, tz *tracez.Tracer) {
	stale := r.m.switches
	if reg != r.reg {
		stale = nil
	}
	r.reg, r.tz = reg, tz
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
	published              bool
	// The stage boundaries: start is the window's first frame (zero when
	// untimed), closed the close's entry, merged the end of the shard
	// barrier and its merge, updated the start of the refinement update and
	// pubAt that of Publish. updates and subscribers are what Publish
	// fanned out.
	start, closed, merged, updated, pubAt time.Time
	updates, subscribers                  uint64
}

// timed reports whether the window saw a frame, which anchors its start.
func (ct *closeTotals) timed() bool { return !ct.start.IsZero() }

// trace writes the window's span tree into the reused r.spans and hands it
// to the tracer, which scores it for retention. The tree comes from the
// report and the close's stage boundaries: the window root, the lifecycle
// stages under it, the sink's fan-out under publish, then one op_eval per
// instance under stream_eval, shard by shard in engine order, timed by the
// engine's own close. Span ids are positions in the slice, from 1.
func (r *Runtime) trace(rep *WindowReport, ct *closeTotals) {
	if r.tz == nil {
		return
	}
	const root, streamEval, publish = 1, 4, 6
	start := ct.start
	if !ct.timed() {
		start = ct.closed // a zero-frame window's tree starts at its close
	}
	sps := append(r.spans[:0],
		stage(tracez.NameWindow, 0, start, time.Since(start)),
		stage(tracez.NameSwitchPass, root, start, ct.closed.Sub(start)).
			With(tracez.AttrFrames, rep.Switch.PacketsIn),
		stage(tracez.NameEmitterDecode, root, ct.closed, ct.merged.Sub(ct.closed)).
			With(tracez.AttrDumpTuples, rep.Switch.DumpTuples),
		stage(tracez.NameStreamEval, root, ct.closed, ct.merged.Sub(ct.closed)).
			With(tracez.AttrTuplesIn, rep.TuplesToSP),
		stage(tracez.NameFilterUpdate, root, ct.updated, rep.UpdateDuration).
			With(tracez.AttrEntries, uint64(rep.FilterUpdates)))
	if ct.published {
		var bytes uint64
		for i := range rep.Instances {
			bytes += rep.Instances[i].DeliveredBytes
		}
		sps = append(sps, stage(tracez.NamePublish, root, ct.pubAt, ct.publish),
			stage(tracez.NameSubscribeFanout, publish, ct.pubAt, ct.publish).
				With(tracez.AttrSubscribers, ct.subscribers).
				With(tracez.AttrUpdates, ct.updates).
				With(tracez.AttrBytes, bytes))
	}
	for si, s := range r.shards {
		for j, slot := range s.slots {
			c, is := &rep.Instances[slot], &s.cr.metrics.Instances[j]
			sp := stage(tracez.NameOpEval, streamEval, is.EvalStart, is.Eval).
				With(tracez.AttrTuplesIn, c.TuplesToSP).
				With(tracez.AttrResults, c.Results)
			sp.Shard, sp.QID, sp.Level = int16(si), c.QID, c.Level
			sps = append(sps, sp)
		}
	}
	for i := range sps {
		sps[i].ID, sps[i].Window = uint32(i+1), int32(rep.Index)
	}
	r.spans = sps
	r.tz.CloseWindow(rep.Index, sps)
}

// stage is a span of the orchestration goroutine: name under parent, from
// start for d.
func stage(name uint16, parent uint32, start time.Time, d time.Duration) tracez.Span {
	return tracez.Span{Name: name, Parent: parent, Shard: -1,
		StartNS: start.UnixNano(), DurNS: d.Nanoseconds()}
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
	if ct.timed() {
		m.windowNS.ObserveDuration(ct.window)
		m.freshNS.ObserveDuration(ct.fresh)
	}
	if ct.published {
		m.publishNS.ObserveDuration(ct.publish)
	}
	for i := range r.shards {
		m.ringFull[i].Add(rep.RingFull[i])
		m.workerParks[i].Add(rep.WorkerParks[i])
	}
}
