package main

import (
	"fmt"
	"io"
	"math"
	goruntime "runtime"
	"time"
)

const (
	warmupWindows = 8  // replayed before any clock that feeds a metric
	taxRounds     = 10 // windows per configuration in the observer differentials
)

// config is what the command line fixes for every run.
type config struct {
	seed    int64
	seconds float64
	quick   bool
	outDir  string
	log     io.Writer // progress and the human-readable tables
}

// result is one run of one workload, plain or traced.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Windows   int               `json:"windows"`
	Metrics   map[string]metric `json:"metrics"`
	// Digests are the steady-cycle window digests (hex), Gates the
	// correctness gates that failed, Notes anything else worth a line.
	Digests []string `json:"digests"`
	Gates   []string `json:"gates,omitempty"`
	Notes   []string `json:"notes,omitempty"`
}

// setupTimes splits one set-up: train, plan, deploy + attach, warm-up.
type setupTimes struct {
	trainS, planMs, deployMs, warmupMs, totalS float64
}

// replayer feeds the evaluation windows cyclically to one pipeline and
// checks every window it closes. A window is one attempted operation; it
// fails when the switch did not see exactly the frames offered, the emitter
// called a frame malformed, or the results differ from the same window one
// cycle earlier.
type replayer struct {
	pl   *pipeline
	ts   *traceSet
	next int                 // windows replayed so far
	ref  [evalWindows]uint64 // steady-cycle digests, set by the warm-up

	attempted, failed int
	gates             []string
}

// windowSample is one replayed window: the three clock reads, as two
// durations, and the report summary.
type windowSample struct {
	ingest, close time.Duration
	info          windowInfo
}

func (s *windowSample) wall() time.Duration { return s.ingest + s.close }

func (r *replayer) frames() [][]byte { return r.ts.eval[r.next%evalWindows] }

// window replays the next window. With a tracer it also records the window
// and its two calls as spans, from the same clock reads.
func (r *replayer) window(tr *tracer) windowSample {
	frames, slot, win := r.frames(), r.next%evalWindows, r.next
	r.next++
	t0 := time.Now()
	r.pl.ingest(frames)
	t1 := time.Now()
	r.pl.closeWindow()
	t2 := time.Now()
	root := tr.add("window", 0, win, t0, t2)
	tr.add("runtime.ingest", root, win, t0, t1)
	tr.add("runtime.close", root, win, t1, t2)

	s := windowSample{ingest: t1.Sub(t0), close: t2.Sub(t1), info: r.pl.info()}
	r.attempted++
	switch {
	case s.info.packetsIn != uint64(len(frames)):
		r.fail("window %d: switch saw %d packets, %d offered", win, s.info.packetsIn, len(frames))
	case s.info.malformed != 0:
		r.fail("window %d: emitter reported %d malformed frames", win, s.info.malformed)
	case win >= warmupWindows && s.info.digest != r.ref[slot]:
		r.fail("window %d: digest %016x differs from the previous cycle's %016x", win, s.info.digest, r.ref[slot])
	}
	if win >= warmupWindows-evalWindows && win < warmupWindows {
		r.ref[slot] = s.info.digest
	}
	return s
}

// warmReplayer replays the warm-up windows on a fresh deployment, which
// also fixes the steady-cycle digests.
func warmReplayer(pl *pipeline, ts *traceSet) *replayer {
	r := &replayer{pl: pl, ts: ts}
	for i := 0; i < warmupWindows; i++ {
		r.window(nil)
	}
	return r
}

func (r *replayer) fail(format string, args ...any) {
	r.failed++
	if len(r.gates) < 8 {
		r.gates = append(r.gates, fmt.Sprintf(format, args...))
	}
}

// setUp trains, plans, deploys with every observer attached and replays the
// warm-up windows: what an operator waits for before the first answer, and
// again at every adaptive re-plan.
func setUp(ts *traceSet, w workload) (*replayer, *trained, *planned, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	tn, err := train(ts)
	if err != nil {
		return nil, nil, nil, st, err
	}
	t1 := time.Now()
	pn, err := tn.plan(w.allSP)
	if err != nil {
		return nil, nil, nil, st, err
	}
	t2 := time.Now()
	pl, err := deploy(pn, w.workers, obsAll, w.subs)
	if err != nil {
		return nil, nil, nil, st, err
	}
	t3 := time.Now()
	r := warmReplayer(pl, ts)
	t4 := time.Now()
	st = setupTimes{trainS: t1.Sub(t0).Seconds(), planMs: ms(t2.Sub(t1)), deployMs: ms(t3.Sub(t2)),
		warmupMs: ms(t4.Sub(t3)), totalS: t4.Sub(t0).Seconds()}
	return r, tn, pn, st, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// phase is a run of consecutive windows with the heap counters around it.
type phase struct {
	samples               []windowSample
	allocBytes, mallocs   uint64
	gcCycles              uint32
	pkts                  uint64
	wallNs, ingestNs      float64
	tuples, mirrored      uint64
	dumps, collisions     uint64
	frames                uint64
	results, filterUpdate int
}

// run replays whole cycles until seconds have passed or maxWindows (if
// positive) are done. after, if set, runs untimed after each window.
func (r *replayer) run(seconds float64, maxWindows int, tr *tracer, after func(win int, frames [][]byte)) *phase {
	// Room for a minute of the smallest windows, so that appends do not
	// reallocate inside the measured heap delta.
	capacity := 1 << 16
	if maxWindows > 0 {
		capacity = maxWindows + evalWindows
	}
	p := &phase{samples: make([]windowSample, 0, capacity)}
	t0 := time.Now()
	var before, afterMem goruntime.MemStats
	goruntime.ReadMemStats(&before)
	for {
		done := len(p.samples)
		if done%evalWindows == 0 && done > 0 &&
			(time.Since(t0).Seconds() >= seconds || (maxWindows > 0 && done >= maxWindows)) {
			break
		}
		frames, win := r.frames(), r.next
		p.samples = append(p.samples, r.window(tr))
		if after != nil {
			after(win, frames)
		}
	}
	goruntime.ReadMemStats(&afterMem)
	p.allocBytes = afterMem.TotalAlloc - before.TotalAlloc
	p.mallocs = afterMem.Mallocs - before.Mallocs
	p.gcCycles = afterMem.NumGC - before.NumGC
	for i := range p.samples {
		s := &p.samples[i]
		p.pkts += s.info.packetsIn
		p.wallNs += float64(s.wall().Nanoseconds())
		p.ingestNs += float64(s.ingest.Nanoseconds())
		p.tuples += s.info.tuplesToSP
		p.mirrored += s.info.mirrored
		p.dumps += s.info.dumpTuples
		p.collisions += s.info.collisions
		p.frames += s.info.frames
		p.results += s.info.results
		p.filterUpdate += s.info.filterUpdates
	}
	return p
}

func (p *phase) windows() float64 { return float64(len(p.samples)) }

// cycleRates returns, per replay cycle, packets ÷ seconds spent in Process
// and CloseWindow. Every cycle offers the same frames, so the median over
// cycles is the sustained rate with a neighbour's bursts left out.
func (p *phase) cycleRates() []float64 {
	var rates []float64
	for i := 0; i+evalWindows <= len(p.samples); i += evalWindows {
		var pkts uint64
		var wall time.Duration
		for _, s := range p.samples[i : i+evalWindows] {
			pkts += s.info.packetsIn
			wall += s.wall()
		}
		rates = append(rates, float64(pkts)/wall.Seconds())
	}
	return rates
}

// series extracts one per-window quantity in milliseconds.
func (p *phase) series(f func(*windowSample) time.Duration) []float64 {
	out := make([]float64, len(p.samples))
	for i := range p.samples {
		out[i] = ms(f(&p.samples[i]))
	}
	return out
}

// recall compares the deployed plan's answers over one more cycle with the
// All-SP reference (same queries, same training, same frames, no
// observers): which reference keys the plan found, and which keys it
// reported that the reference does not have. A sharded deployment is first
// checked against a sequential one.
func (r *replayer) recall(tn *trained, pn *planned, w workload) (reference, missed, extra int, err error) {
	if w.workers > 1 {
		if err := r.checkSequential(pn); err != nil {
			return 0, 0, 0, err
		}
	}
	got := map[resultKey]bool{}
	for i := 0; i < evalWindows; i++ {
		slot := r.next % evalWindows
		r.window(nil)
		r.pl.addKeys(slot, got)
	}
	allSP, err := tn.plan(true)
	if err != nil {
		return 0, 0, 0, err
	}
	pl, err := deploy(allSP, 1, obsNone, 0)
	if err != nil {
		return 0, 0, 0, err
	}
	defer pl.close()
	ref := &replayer{pl: pl, ts: r.ts}
	want := map[resultKey]bool{}
	for i := 0; i < evalWindows; i++ {
		ref.window(nil)
		pl.addKeys(i, want)
	}
	r.attempted += ref.attempted
	r.failed += ref.failed
	r.gates = append(r.gates, ref.gates...)
	for k := range want {
		if !got[k] {
			missed++
		}
	}
	for k := range got {
		if !want[k] {
			extra++
		}
	}
	return len(want), missed, extra, nil
}

// checkSequential replays the warm-up on a sequential deployment of the
// same plan and requires the sharded run's steady-cycle digests to equal
// it.
func (r *replayer) checkSequential(pn *planned) error {
	pl, err := deploy(pn, 1, obsNone, 0)
	if err != nil {
		return err
	}
	defer pl.close()
	seq := warmReplayer(pl, r.ts)
	r.attempted++
	r.gates = append(r.gates, seq.gates...)
	if seq.ref != r.ref {
		r.fail("sharded digests %x differ from sequential %x", r.ref, seq.ref)
	}
	return nil
}

// observerTaxes replays the same windows on four sequential deployments of
// one plan (bare, + registry, + tracez, + flight recorder), interleaved so
// that drift hits all four alike, and returns what each observer adds in
// ns per packet.
func observerTaxes(pn *planned, ts *traceSet) (taxes [3]float64, err error) {
	var rs [4]*replayer
	for obs := obsNone; obs <= obsAll; obs++ {
		pl, err := deploy(pn, 1, obs, 0)
		if err != nil {
			return taxes, err
		}
		defer pl.close()
		rs[obs] = warmReplayer(pl, ts)
	}
	var nsPerPkt [4][]float64
	for round := 0; round < taxRounds; round++ {
		for i, r := range rs {
			s := r.window(nil)
			nsPerPkt[i] = append(nsPerPkt[i], float64(s.wall().Nanoseconds())/float64(s.info.packetsIn))
		}
	}
	for i := range taxes {
		taxes[i] = median(nsPerPkt[i+1]) - median(nsPerPkt[i])
	}
	return taxes, nil
}

// runPlain is the end-to-end run: no spans, three clock reads per window.
func runPlain(cfg config, w workload, ts *traceSet) (*result, error) {
	spinBefore := spin()
	var (
		r      *replayer
		tn     *trained
		pn     *planned
		setups []float64
	)
	for i := 0; i < w.setups; i++ {
		if r != nil {
			r.pl.close()
		}
		var st setupTimes
		var err error
		if r, tn, pn, st, err = setUp(ts, w); err != nil {
			return nil, err
		}
		setups = append(setups, st.totalS)
	}
	defer r.pl.close()

	p := r.run(cfg.seconds, 0, nil, nil)
	reference, missed, _, err := r.recall(tn, pn, w)
	if err != nil {
		return nil, err
	}

	wall := p.series((*windowSample).wall)
	vals := map[string]float64{
		"pkts_per_s":             median(p.cycleRates()),
		"window_ms_p90":          percentile(wall, 0.90),
		"close_ms_p50":           median(p.series(func(s *windowSample) time.Duration { return s.close })),
		"sp_tuples_per_window":   float64(p.tuples) / p.windows(),
		"found_share":            foundShare(reference, missed),
		"alloc_bytes_per_window": float64(p.allocBytes) / p.windows(),
		"setup_s":                median(setups),
	}
	res := r.result(cfg, w, false, len(p.samples), export(endToEnd, vals))
	n := len(wall)
	res.Notes = append(res.Notes, fmt.Sprintf("%d windows: %d samples beyond p90; highest percentile with ten beyond is p%d = %.3f ms",
		n, samplesBeyond(n, 0.90), highestPercentile(n, 10), percentile(wall, float64(highestPercentile(n, 10))/100)))
	res.noteNoise(spinBefore, spin())
	return res, nil
}

// foundShare is the share of reference keys the plan reported; a reference
// with no keys is found entirely.
func foundShare(reference, missed int) float64 {
	if reference == 0 {
		return 1
	}
	return 1 - float64(missed)/float64(reference)
}

// runTraced is the per-layer run: a short plain phase, then the same
// windows again with spans around the benchmark's calls and, after each
// window, the layer stages on standalone instances over that window's
// frames.
func runTraced(cfg config, w workload, ts *traceSet) (*result, error) {
	spinBefore := spin()
	r, tn, pn, st, err := setUp(ts, w)
	if err != nil {
		return nil, err
	}
	defer r.pl.close()
	stg, err := newStages(pn, w.subs)
	if err != nil {
		return nil, err
	}
	defer stg.close()
	stg.warm(ts.eval[0])

	plain := r.run(cfg.seconds, w.tracedWindows, nil, nil)
	tr := newTracer()
	var stageMirrored uint64
	var codecOps int
	traced := r.run(cfg.seconds, w.tracedWindows, tr, func(win int, frames [][]byte) {
		stageMirrored += stg.window(tr, win, frames)
		codecOps += stg.codec(tr, win)
		stg.publish(tr, win, r.pl)
	})
	if stg.bad > 0 {
		r.fail("codec stage: %d round trips failed to decode", stg.bad)
	}
	reference, missed, extra, err := r.recall(tn, pn, w)
	if err != nil {
		return nil, err
	}
	var taxes [3]float64
	if w.observerTaxes {
		if taxes, err = observerTaxes(pn, ts); err != nil {
			return nil, err
		}
	}

	self := selfByName(tr.spans)
	pkts := float64(traced.pkts)
	ingest := float64(self["runtime.ingest"]) / pkts
	parse := float64(self["packet.parse"]) / pkts
	sw := float64(self["pisa.switch"]) / pkts
	closeMs := perWindowMs(tr.spans, "runtime.close")
	dumpMs := median(perWindowMs(tr.spans, "pisa.dump"))
	refineMs := median(traced.series(func(s *windowSample) time.Duration { return s.info.refine }))
	publishMs := median(perWindowMs(tr.spans, "subscribe.publish"))
	var busySum, busyMax time.Duration
	for i := range traced.samples {
		var winMax time.Duration
		for _, b := range traced.samples[i].info.shardBusy {
			busySum += b
			winMax = max(winMax, b)
		}
		busyMax += winMax
	}
	fidelity := 1.0
	if traced.mirrored > 0 {
		fidelity = float64(stageMirrored) / float64(traced.mirrored)
	}

	vals := map[string]float64{
		"runtime.ingest_ns_per_pkt":   ingest,
		"runtime.close_ms":            median(closeMs),
		"runtime.close_ms_p90":        percentile(closeMs, 0.90),
		"runtime.refine_ms":           refineMs,
		"runtime.filter_updates":      float64(traced.filterUpdate) / traced.windows(),
		"runtime.allocs_per_window":   float64(plain.mallocs) / plain.windows(),
		"runtime.gc_cycles":           float64(plain.gcCycles),
		"runtime.deploy_ms":           st.deployMs,
		"runtime.warmup_ms":           st.warmupMs,
		"runtime.reference_keys":      float64(reference),
		"runtime.missed_keys":         float64(missed),
		"runtime.extra_keys":          float64(extra),
		"packet.parse_ns_per_pkt":     parse,
		"pisa.switch_ns_per_pkt":      sw,
		"pisa.stage_fidelity":         fidelity,
		"pisa.dump_ms":                dumpMs,
		"pisa.mirrored_per_window":    float64(traced.mirrored) / traced.windows(),
		"pisa.dump_tuples_per_window": float64(traced.dumps) / traced.windows(),
		"pisa.collisions_per_window":  float64(traced.collisions) / traced.windows(),
		"emitter.frames_per_window":   float64(traced.frames) / traced.windows(),
		"stream.eval_ms":              median(closeMs) - dumpMs - refineMs - publishMs,
		"stream.results_per_window":   float64(traced.results) / traced.windows(),
		"telemetry.tax_ns_per_pkt":    taxes[0],
		"tracez.tax_ns_per_pkt":       taxes[1],
		"flightrec.tax_ns_per_pkt":    taxes[2],
		"subscribe.publish_ms":        publishMs,
		"planner.train_s":             st.trainS,
		"planner.plan_ms":             st.planMs,
		"planner.instances":           float64(pn.instances),
		"planner.expected_n":          float64(pn.expectedN),
		"trace.gen_s":                 ts.genS,
		"trace.pkts_per_window":       ts.pktsPerWindow,
		"trace.bytes_per_pkt":         ts.bytesPerPkt,
		"bench.trace_overhead_pct":    (ingest/(plain.ingestNs/float64(plain.pkts)) - 1) * 100,
		"bench.windows":               traced.windows(),
		"bench.spin_ns_before":        spinBefore,
	}
	if codecOps > 0 {
		vals["emitter.codec_ns_per_mirror"] = float64(self["emitter.codec"]) / float64(codecOps)
	}
	if busyMax > 0 {
		vals["runtime.shard_busy_sum_ms"] = ms(busySum) / traced.windows()
		vals["runtime.shard_busy_max_ms"] = ms(busyMax) / traced.windows()
		vals["runtime.speedup_potential"] = float64(busySum) / float64(busyMax)
		vals["runtime.wall_over_critical"] = traced.wallNs / float64(busyMax.Nanoseconds())
	}
	// The mirror path is what ingest costs beyond parse and switch tables.
	// The subtraction only means something when the stage switch saw the
	// work the real one did and mirrors are frequent enough to carry the
	// remainder (11 per packet on All-SP, under 0.01 on Sonata plans).
	if math.Abs(fidelity-1) <= 0.01 && traced.mirrored >= traced.pkts {
		path := (ingest - parse - sw) * pkts / float64(traced.mirrored)
		vals["emitter.mirror_path_ns_per_mirror"] = path
		vals["stream.ingest_ns_per_tuple"] = path - vals["emitter.codec_ns_per_mirror"]
	}
	spinAfter := spin()
	vals["bench.spin_ns_after"] = spinAfter

	res := r.result(cfg, w, true, len(traced.samples), export(perLayer, vals))
	path, err := tr.write(cfg.outDir, w.name)
	if err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	res.Notes = append(res.Notes, fmt.Sprintf("%d spans in %s", len(tr.spans), path))
	res.noteNoise(spinBefore, spinAfter)
	return res, nil
}

func (r *replayer) result(cfg config, w workload, traced bool, windows int, metrics map[string]metric) *result {
	res := &result{Workload: w.name, Seed: cfg.seed, Traced: traced, Correct: r.failed == 0,
		Attempted: r.attempted, Failed: r.failed, Windows: windows, Metrics: metrics, Gates: r.gates}
	for _, d := range r.ref {
		res.Digests = append(res.Digests, fmt.Sprintf("%016x", d))
	}
	return res
}

// noteNoise marks a run whose spin probe moved by more than a tenth.
func (res *result) noteNoise(before, after float64) {
	if gap := math.Abs(after-before) / before; gap > 0.10 {
		res.Notes = append(res.Notes, fmt.Sprintf("noisy: spin probe moved %.0f%% (%.0f -> %.0f ns)", gap*100, before, after))
	}
}
