package main

// driver.go holds every call the benchmark makes into repro/internal/...;
// no other file in this directory imports those packages. README.md lists
// the signatures pinned here, so a refactor of the runtime, the switch model
// or the observers knows what the benchmark depends on.

import (
	"fmt"
	"io"
	"time"

	"repro/internal/emitter"
	"repro/internal/eval"
	"repro/internal/flightrec"
	"repro/internal/packet"
	"repro/internal/pisa"
	"repro/internal/planner"
	"repro/internal/queries"
	"repro/internal/query"
	"repro/internal/runtime"
	"repro/internal/subscribe"
	"repro/internal/telemetry"
	"repro/internal/tracez"
)

const (
	trainWindows = 2
	evalWindows  = 4 // replayed cyclically
	stageBatch   = 256
	// codecSample caps the mirrors kept for the codec stage, codecOps is how
	// many encode+decode round trips one timed codec span covers.
	codecSample = 4096
	codecOps    = 16384
)

var refinementLevels = []int{8, 16, 24}

// traceSet is one generated trace, materialised before any clock starts.
type traceSet struct {
	scale eval.Scale
	train []planner.Frames
	eval  [][][]byte
	genS  float64
	// pktsPerWindow and bytesPerPkt are means over the evaluation windows.
	pktsPerWindow, bytesPerPkt float64
}

func genTrace(pkts, hosts int, seed int64) (*traceSet, error) {
	t0 := time.Now()
	ts := &traceSet{scale: eval.Scale{PacketsPerWindow: pkts, Windows: trainWindows + evalWindows,
		TrainWindows: trainWindows, Hosts: hosts, Seed: seed}}
	w, err := eval.NewWorkload(ts.scale)
	if err != nil {
		return nil, fmt.Errorf("generating trace: %w", err)
	}
	w.Preload(2)
	ts.train = w.TrainingFrames()
	var frames, bytes int
	for _, i := range w.EvalWindowIndices() {
		win := w.Frames(i)
		ts.eval = append(ts.eval, win)
		frames += len(win)
		for _, f := range win {
			bytes += len(f)
		}
	}
	ts.genS = time.Since(t0).Seconds()
	ts.pktsPerWindow = float64(frames) / float64(len(ts.eval))
	ts.bytesPerPkt = float64(bytes) / float64(frames)
	return ts, nil
}

// trained is the planner's training output for the eight header queries.
type trained struct {
	qs []*query.Query
	tr *planner.TrainingResult
}

func train(ts *traceSet) (*trained, error) {
	qs := queries.TopEight(eval.ScaledParams(ts.scale))
	tr, err := planner.Train(qs, refinementLevels, ts.train)
	if err != nil {
		return nil, fmt.Errorf("training: %w", err)
	}
	return &trained{qs: qs, tr: tr}, nil
}

// planned is a plan with the two figures the per-layer table quotes.
type planned struct {
	plan      *planner.Plan
	instances int
	expectedN uint64
}

func (t *trained) plan(allSP bool) (*planned, error) {
	opts := planner.DefaultOptions()
	if allSP {
		opts.Mode = planner.ModeAllSP
	}
	plan, err := planner.PlanQueries(t.tr, t.qs, pisa.DefaultConfig(), opts)
	if err != nil {
		return nil, fmt.Errorf("planning: %w", err)
	}
	return &planned{plan: plan, instances: len(plan.Program.Instances), expectedN: plan.ExpectedN()}, nil
}

// observers says how many of cmd/sonata's always-attached observers a
// deployment gets. They are cumulative: the differential replays add the
// registry, then tracez, then the flight recorder (obsAll, the default).
type observers int

const (
	obsNone observers = iota
	obsRegistry
	obsTracez
	obsAll
)

// pipeline is one deployed runtime plus its subscription server, if any.
type pipeline struct {
	rt  *runtime.Runtime
	srv *subscribe.Server
	rep *runtime.WindowReport // the window closed last
}

// deploy builds the runtime and attaches observers and subscribers the way
// cmd/sonata does (registry, tracez and flight recorder always; the
// subscription server only with -subscribe-addr).
func deploy(p *planned, workers int, obs observers, subs int) (*pipeline, error) {
	rt, err := runtime.NewWithOptions(p.plan, pisa.DefaultConfig(), runtime.Options{Workers: workers})
	if err != nil {
		return nil, fmt.Errorf("deploying: %w", err)
	}
	var reg *telemetry.Registry
	var tz *tracez.Tracer
	if obs >= obsRegistry {
		reg = telemetry.NewRegistry()
		telemetry.RegisterBuildInfo(reg, time.Now())
	}
	if obs >= obsTracez {
		tz = tracez.New(tracez.Options{})
		tz.Instrument(reg)
	}
	if obs >= obsRegistry {
		rt.Instrument(reg, tz)
	}
	if obs >= obsAll {
		rec := flightrec.New(flightrec.DefaultCapacity, nil)
		rec.Instrument(reg)
		rec.AttachTraceIndex(tz.Has)
		rt.AttachFlightRecorder(rec)
	}
	pl := &pipeline{rt: rt}
	if subs > 0 {
		pl.srv, err = newSubscribeServer(subs)
		if err != nil {
			rt.Close()
			return nil, err
		}
		pl.srv.Instrument(reg)
		rt.SetResultSink(pl.srv)
	}
	return pl, nil
}

// newSubscribeServer returns a server with n sample-mode all-level
// subscribers draining to io.Discard: every window is encoded and enqueued
// for each of them, the worst case for the publish path.
func newSubscribeServer(n int) (*subscribe.Server, error) {
	srv := subscribe.NewServer()
	for i := 0; i < n; i++ {
		if _, err := srv.Attach(io.Discard, subscribe.SubscribeRequest{
			Mode: subscribe.Sample, AllLevels: true, QueueCap: 256}); err != nil {
			srv.Close()
			return nil, fmt.Errorf("attaching subscriber: %w", err)
		}
	}
	return srv, nil
}

// ingest hands every frame of a window to the runtime, one Process call
// each: the streaming API, closed loop.
func (pl *pipeline) ingest(frames [][]byte) {
	for _, f := range frames {
		pl.rt.Process(f)
	}
}

func (pl *pipeline) closeWindow() { pl.rep = pl.rt.CloseWindow() }

// close stops the shard workers and the subscriber writers and waits for
// them.
func (pl *pipeline) close() {
	pl.rt.Close()
	if pl.srv != nil {
		pl.srv.Close()
	}
}

// windowInfo is what the benchmark reads from a WindowReport.
type windowInfo struct {
	packetsIn, malformed, tuplesToSP         uint64
	mirrored, dumpTuples, collisions, frames uint64
	results, filterUpdates                   int
	refine                                   time.Duration
	shardBusy                                []time.Duration
	digest                                   uint64
}

// info summarises the window closed last. It allocates nothing, so calling
// it between timed windows leaves alloc_bytes_per_window to the program.
func (pl *pipeline) info() windowInfo {
	rep := pl.rep
	var d windowDigest
	results := 0
	for i := range rep.Results {
		res := &rep.Results[i]
		results += len(res.Tuples)
		for _, t := range res.Tuples {
			h := newRowHash(res.QID, res.Level)
			for _, v := range t {
				if v.Str {
					h = h.str(v.S)
				} else {
					h = h.u64(v.U)
				}
			}
			d.add(h)
		}
	}
	return windowInfo{
		packetsIn: rep.Switch.PacketsIn, malformed: rep.EmitterMalformed, tuplesToSP: rep.TuplesToSP,
		mirrored: rep.Switch.Mirrored, dumpTuples: rep.Switch.DumpTuples,
		collisions: rep.Switch.Collisions, frames: rep.EmitterFrames,
		results: results, filterUpdates: rep.FilterUpdates, refine: rep.UpdateDuration,
		shardBusy: rep.ShardBusy, digest: d.finish(rep.TuplesToSP),
	}
}

// resultKey names one reported answer: a key of a query in a window of the
// cycle. The key is the result tuple's first column, the convention the
// repository's own Sonata-vs-All-SP tests use.
type resultKey struct {
	window int
	qid    uint16
	key    string
}

// addKeys records the finest-level result keys of the window closed last.
func (pl *pipeline) addKeys(window int, into map[resultKey]bool) {
	for i := range pl.rep.Results {
		res := &pl.rep.Results[i]
		for _, t := range res.Tuples {
			if len(t) > 0 {
				into[resultKey{window, res.QID, t[0].String()}] = true
			}
		}
	}
}

// stages times single public functions of a layer on standalone instances
// built from the workload's plan, over the frames the real runtime just saw.
type stages struct {
	sw      *pisa.Switch
	parser  *packet.Parser
	views   []pisa.View
	capture bool
	sample  []pisa.Mirror
	buf     []byte
	dec     emitter.MirrorDecoder
	out     pisa.Mirror
	bad     int               // codec round trips that failed to decode
	pub     *subscribe.Server // standalone publish target; nil without subscribers
}

func newStages(p *planned, subs int) (*stages, error) {
	s := &stages{parser: packet.NewParser(packet.ParserOptions{}), views: make([]pisa.View, stageBatch)}
	sw, err := pisa.NewSwitch(pisa.DefaultConfig(), p.plan.Program, s.onMirror)
	if err != nil {
		return nil, fmt.Errorf("building stage switch: %w", err)
	}
	s.sw = sw
	if subs > 0 {
		if s.pub, err = newSubscribeServer(subs); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (s *stages) close() {
	if s.pub != nil {
		s.pub.Close()
	}
}

// onMirror is count-only (the switch counts) except during the warm-up
// pass, when it deep-copies mirrors for the codec stage.
func (s *stages) onMirror(m pisa.Mirror) {
	if !s.capture || len(s.sample) >= codecSample {
		return
	}
	m.Vals = append(m.Vals[:0:0], m.Vals...)
	m.Packet = append(m.Packet[:0:0], m.Packet...)
	m.Parsed = nil // a process-local sidecar the wire format never carries
	s.sample = append(s.sample, m)
}

// warm runs one untimed window through the stage switch, collecting the
// codec sample on the way.
func (s *stages) warm(frames [][]byte) {
	s.capture = true
	s.window(nil, 0, frames)
	s.capture = false
}

// window runs the parse, switch and dump stages over one window's frames,
// 256 at a time as the runtime batches them, and returns the stage switch's
// mirror count. The dynamic tables of the stage switch stay empty, so on a
// refined plan only the coarsest level does work.
func (s *stages) window(tr *tracer, win int, frames [][]byte) uint64 {
	start := time.Now()
	root := tr.add("stage.window", 0, win, start, start)
	for i := 0; i < len(frames); i += stageBatch {
		batch := frames[i:min(i+stageBatch, len(frames))]
		t0 := time.Now()
		for j, f := range batch {
			s.views[j].Prepare(s.parser, f)
		}
		t1 := time.Now()
		s.sw.ProcessViews(s.views[:len(batch)])
		t2 := time.Now()
		tr.add("packet.parse", root, win, t0, t1)
		tr.add("pisa.switch", root, win, t1, t2)
	}
	t0 := time.Now()
	_, st := s.sw.EndWindow()
	t1 := time.Now()
	tr.add("pisa.dump", root, win, t0, t1)
	tr.setEnd(root, t1)
	return st.Mirrored
}

// codec times EncodeMirror + MirrorDecoder.Decode over the sampled mirrors
// and returns the round trips done (0 when the stage switch mirrored
// nothing).
func (s *stages) codec(tr *tracer, win int) int {
	if len(s.sample) == 0 {
		return 0
	}
	passes := max(1, codecOps/len(s.sample))
	t0 := time.Now()
	for p := 0; p < passes; p++ {
		for i := range s.sample {
			s.buf = emitter.EncodeMirror(s.buf[:0], &s.sample[i])
			if err := s.dec.Decode(s.buf, &s.out); err != nil {
				s.bad++
			}
		}
	}
	tr.add("emitter.codec", 0, win, t0, time.Now())
	return passes * len(s.sample)
}

// publish times Server.Publish of the window pl closed last on the
// standalone server.
func (s *stages) publish(tr *tracer, win int, pl *pipeline) {
	if s.pub == nil {
		return
	}
	t0 := time.Now()
	s.pub.Publish(pl.rep)
	tr.add("subscribe.publish", 0, win, t0, time.Now())
}
