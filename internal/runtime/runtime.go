// Package runtime orchestrates one Sonata deployment: it installs the
// planner's output on the switch simulator and the stream engine, drives
// the per-window processing loop, applies dynamic-refinement filter updates
// at window boundaries (Section 4), reconciles register dumps, and reports
// the per-window load metrics the evaluation compares.
package runtime

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/emitter"
	"repro/internal/fields"
	"repro/internal/flightrec"
	"repro/internal/packet"
	"repro/internal/pisa"
	"repro/internal/planner"
	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/tracez"
	"repro/internal/tuple"
)

// WindowReport summarizes one processed window.
type WindowReport struct {
	Index int
	// Results holds the finest-level outputs of every query — the answers
	// the operator asked for.
	Results []stream.Result
	// AllResults includes every refinement level's outputs.
	AllResults []stream.Result
	// TuplesToSP is the number of tuples the stream processor ingested this
	// window: the paper's headline metric.
	TuplesToSP uint64
	// PerQuery breaks the load down by (query, level) instance.
	PerQuery map[stream.QueryKey]uint64
	// Switch carries the data-plane counters.
	Switch pisa.WindowStats
	// FilterUpdates counts dynamic filter entries written at the window
	// boundary, and UpdateDuration the wall time spent writing them — the
	// refinement-overhead micro-benchmark of Section 6.2.
	FilterUpdates  int
	UpdateDuration time.Duration
	// EmitterFrames / EmitterMalformed report the monitoring-port volume.
	EmitterFrames    uint64
	EmitterMalformed uint64
	// ShardBusy holds each shard's busy time inside this window, one entry
	// per shard. sum/max estimates the achievable parallel speedup
	// independently of how many cores the host actually has.
	ShardBusy []time.Duration
}

// ResultSink receives each WindowReport as the window closes, before the
// flight recorder seals it — so a sink that attributes delivery bytes via
// flightrec probes lands them in the same window's record. Publish is called
// from the runtime's close path and must not block: sinks fan out to slow
// consumers through bounded queues, never by stalling the pipeline. The
// report and its results are shared, not copied; sinks must treat them as
// read-only and must not retain the tuple slices past Publish unless they
// encode them first.
type ResultSink interface {
	Publish(rep *WindowReport)
}

// FlightRecAttacher is implemented by sinks that attribute their delivery
// volume to (query, level) flight-recorder records. The runtime forwards its
// probe lookup whenever both a recorder and a sink are attached, in either
// order.
type FlightRecAttacher interface {
	AttachFlightRec(lookup func(qid uint16, level uint8) *flightrec.Probe)
}

// TracezAttacher is implemented by sinks that record their fan-out work as
// spans in the window's trace tree. Publish runs on the runtime's close
// path, so the sink records into the orchestration lane; the runtime
// re-parents the lane to the publish span for the duration of the call.
type TracezAttacher interface {
	AttachTracez(r *tracez.Ring)
}

// SetResultSink installs (or, with nil, removes) the sink that receives each
// closed window's report. If a flight recorder or tracer is already attached
// and the sink wants probes or a span lane, they are wired immediately.
func (r *Runtime) SetResultSink(sink ResultSink) {
	r.sink = sink
	if a, ok := sink.(FlightRecAttacher); ok {
		a.AttachFlightRec(r.frLookup)
	}
	if a, ok := sink.(TracezAttacher); ok && r.lane != nil {
		a.AttachTracez(r.lane)
	}
}

// Options tunes a runtime's execution.
type Options struct {
	// Workers is the number of shards the installed (query, level) instances
	// are partitioned across. 0 or 1 builds one shard, which runs on the
	// calling goroutine (no worker is started); more start one persistent
	// worker per shard. Values above the instance count are clamped to it.
	Workers int
	// Scalar selects the reference execution the differential tests compare
	// against: every shard walks views one at a time through
	// pisa.Switch.ProcessView (unscreened, from table 0) and the stream
	// engines use the per-tuple interpreter instead of the columnar batched
	// executor, at any worker count. WindowReports are bit-identical either
	// way.
	Scalar bool
	// VantagePoints is the number of switches traffic enters through —
	// border routers, IXP ports — the network-wide extension the paper
	// leaves as future work (Section 8). Each shard owns one switch per
	// vantage point, all feeding its one emitter and engine, and ProcessAt
	// routes a frame to one of them; 0 or 1 deploys one. With more than one,
	// the switches dump raw partial aggregates (dropDumpThresholds), so a
	// heavy hitter split across vantage points is still detected.
	VantagePoints int
}

// DefaultBatchSize is the number of frames per view batch, the unit handed
// to the shards: large enough to amortize the handoff, small enough that
// shards stay busy inside one window.
const DefaultBatchSize = 256

// shard owns one slice of the deployment: the switch instances assigned to
// it (with their registers and dynamic tables) at every vantage point, a
// private emitter, and the matching stream-engine instances. Exactly one
// goroutine executes a shard's messages (exec): its persistent worker while
// the runtime has live workers, the runtime's caller otherwise. During a
// window (and the window close) only that goroutine touches this state, so
// the hot path takes no locks; the close barrier hands ownership back to the
// caller between windows.
type shard struct {
	// sws holds the shard's switch per vantage point, indexed by vp; their
	// mirrors and dumps all reach em.
	sws    []*pisa.Switch
	engine *stream.Engine
	em     *emitter.Emitter
	// slots[j] is the installation-order position (index into
	// Runtime.infos) of the j-th instance installed on this shard's engine,
	// which is also the position of its j-th window result.
	slots []int
	// q is the shard's inbound SPSC ring while workers are live: view
	// batches during the window, then a close (or stop) message acting as
	// the epoch barrier — FIFO order guarantees every batch of the window is
	// processed before the close runs.
	q spscRing
	// lane is the shard's tracez lane (lane index+1), cached at Instrument;
	// nil when tracing is off. The caller re-parents it before each close
	// barrier, exec records op spans into it during the close.
	lane *tracez.Ring
	// busy accumulates time spent processing batches this window; the close
	// publishes it to the runtime via cr.
	busy time.Duration
	// cr is the shard's close-phase output, written by exec before it
	// signals the barrier and read by the caller after.
	cr closeResult
}

// closeResult carries one shard's window-close products across the epoch
// barrier.
type closeResult struct {
	busy      time.Duration
	stats     pisa.WindowStats
	dumpCount int
	results   []stream.Result
	metrics   stream.Metrics
	emFrames  uint64
	emBad     uint64
}

// viewBatch is a refcounted batch of frames parsed once and shared
// read-only by every shard; the last shard to finish a batch recycles it.
// For the batched walk fanOut evaluates the runnable bitmap and the static
// leading-filter atoms once into masks and every shard consumes them
// read-only. vp is the vantage point whose switches walk it.
type viewBatch struct {
	views []pisa.View
	n     int
	vp    int
	masks pisa.PrescreenMasks
	refs  atomic.Int32
}

// Runtime binds a plan to executable components.
type Runtime struct {
	plan *planner.Plan
	cfg  pisa.Config
	opts Options
	// shards carries the execution state; every instance is owned by exactly
	// one (owner), and infos keeps global installation order so merged
	// results come out in the order one engine would produce them. parser is
	// the shared parse-once front end.
	shards    []*shard
	owner     map[stream.QueryKey]int
	parser    *packet.Parser
	batchPool *sync.Pool
	fill      []*viewBatch // batch being filled, one per vantage point (len is their count)
	framesIn  uint64       // frames ingested this window (PacketsIn)
	touched   uint32       // sink for fanOut's frame loads
	// pre is the shard switches' shared prescreen atom space; fanOut
	// evaluates it once per batch so shards only AND precomputed bitmaps.
	pre *pisa.Prescreen
	// live reports whether persistent workers are draining the shards'
	// rings: true from construction with more than one shard until Close has
	// joined them. While false, fanOut executes shard messages on the
	// calling goroutine. closeWG is the epoch barrier for window closes,
	// stopWG for worker shutdown.
	live    bool
	closeWG sync.WaitGroup
	stopWG  sync.WaitGroup

	links  []link
	finest map[uint16]uint8
	window int
	// infos preserves the flattened plan (installation order); the flight
	// recorder tracks one probe per entry. flight/frProbes are nil until
	// AttachFlightRecorder.
	infos    []instInfo
	flight   *flightrec.Recorder
	frProbes map[stream.QueryKey]*flightrec.Probe
	frLookup func(qid uint16, level uint8) *flightrec.Probe
	// sink receives each WindowReport at window close (nil until
	// SetResultSink); Publish runs on the close path and must not block.
	sink ResultSink
	// collisionSum tracks cumulative collisions for the re-planning signal.
	collisionSum uint64
	packetsSum   uint64
	// Telemetry: m holds registry handles (inert until Instrument).
	// windowStart anchors the window-duration histogram and the freshness
	// watermark; lastKeys fingerprints each link's refinement key set for
	// the transition counter.
	m           runtimeMetrics
	windowStart time.Time
	lastKeys    map[int]string
	fpScratch   []byte
	// Tracing: tz collects every window's span tree (nil when disabled).
	// lane is the orchestration lane (lane 0) carrying the window root and
	// lifecycle-stage spans; shard engines write op spans into lanes 1..N.
	// troot is the open window-root span, rootOpen whether one is open.
	tz       *tracez.Tracer
	lane     *tracez.Ring
	troot    tracez.Active
	rootOpen bool
}

// link is one dynamic-refinement edge of a plan (Section 4.1): the window
// results of query QID at level From decide which keys its level To admits
// in the next window.
type link struct {
	QID  uint16
	From uint8
	To   uint8
	// Table is level To's dynamic filter table name.
	Table    string
	keyCol   int
	field    fields.ID // the refinement key
	hasRight bool      // level To has a right (joined) pipeline
	// sp and tables are where the link's rule set is published: the stream
	// processor's filter and the switch-side tables of level To, resolved
	// once at construction (resolve).
	sp     *stream.DynTables
	tables []*pisa.DynTable
	// keyBuf and the side-key sets are keys' per-window scratch, reused
	// across windows.
	keyBuf []string
	rset   map[string]struct{}
	lset   map[string]struct{}
}

// planLinks derives a plan's refinement links, in installation order.
func planLinks(plan *planner.Plan) ([]link, error) {
	var links []link
	for _, qp := range plan.Queries {
		for li := 0; li+1 < len(qp.Levels); li++ {
			lp, next := &qp.Levels[li], &qp.Levels[li+1]
			keyCol := lp.Aug.FinalSchema().Index(qp.Key.Field)
			if keyCol < 0 {
				return nil, fmt.Errorf("runtime: q%d level %d: refinement key %s missing from result schema %s",
					qp.Query.ID, lp.Level, qp.Key.Field, lp.Aug.FinalSchema())
			}
			links = append(links, link{QID: qp.Query.ID,
				From: uint8(lp.Level), To: uint8(next.Level),
				Table:  planner.DynTableName(qp.Query.ID, next.Level),
				keyCol: keyCol, field: qp.Key.Field, hasRight: next.Right != nil})
		}
	}
	return links, nil
}

// resolve binds the link to the stream processor's tables and to every
// switch running level To — one per vantage point: the dynamic filter is op 0
// of each of the level's pipelines by construction of AugmentQuery, and a
// pipeline whose cut keeps it at the stream processor has no switch-side
// table to update. A switch that does not run level To at all is an error.
func (l *link) resolve(sp *stream.DynTables, switches ...*pisa.Switch) error {
	l.sp = sp
	sides := []pisa.Side{pisa.SideLeft}
	if l.hasRight {
		sides = append(sides, pisa.SideRight)
	}
	for _, sw := range switches {
		for _, side := range sides {
			t, err := sw.DynTable(l.QID, l.To, side, 0)
			if err != nil {
				return fmt.Errorf("runtime: refinement link q%d /%d to /%d: %w", l.QID, l.From, l.To, err)
			}
			if t != nil {
				l.tables = append(l.tables, t)
			}
		}
	}
	return nil
}

// publish installs keys (in stream.DynKeyFromValue's encoding) as what level
// To admits from the next window on — one rule set, built once and shared by
// the stream processor's filter and every switch-side table — and returns
// the number of filter entries written.
func (l *link) publish(keys []string) int {
	set := query.NewDynSet(keys)
	l.sp.Publish(l.Table, set)
	n := set.Len()
	for _, t := range l.tables {
		n += t.Publish(set)
	}
	return n
}

// instInfo is one planned (query, level) instance in installation order.
// cost is the instance's switch-side work proxy (its cut depth): every
// instance examines every frame, so per-packet work scales with how many
// tables run in the data plane.
type instInfo struct {
	key  stream.QueryKey
	aug  *query.Query
	part stream.Partition
	cost int
}

// New wires a one-shard runtime from a plan.
func New(plan *planner.Plan, cfg pisa.Config) (*Runtime, error) {
	return NewWithOptions(plan, cfg, Options{})
}

// NewWithOptions wires a runtime with explicit execution options.
func NewWithOptions(plan *planner.Plan, cfg pisa.Config, opts Options) (*Runtime, error) {
	r := &Runtime{plan: plan, cfg: cfg, opts: opts,
		fill:   make([]*viewBatch, max(1, opts.VantagePoints)),
		finest: make(map[uint16]uint8), lastKeys: make(map[int]string)}

	// Flatten the plan into installation-ordered instances.
	for _, qp := range plan.Queries {
		for li, lp := range qp.Levels {
			part := stream.Partition{
				LeftStart:  entryOp(&lp.Left),
				RightStart: 0,
			}
			if lp.Right != nil {
				part.RightStart = entryOp(lp.Right)
			}
			key := stream.QueryKey{QID: qp.Query.ID, Level: uint8(lp.Level)}
			r.infos = append(r.infos, instInfo{key: key, aug: lp.Aug, part: part,
				cost: instanceCost(&lp)})
			if li == len(qp.Levels)-1 {
				r.finest[qp.Query.ID] = key.Level
			}
		}
	}
	var err error
	if r.links, err = planLinks(plan); err != nil {
		return nil, err
	}
	return r, r.buildShards(max(1, min(opts.Workers, len(r.infos))))
}

// buildShards partitions the instances across n shards. Each shard gets the
// switch program slice (on one switch per vantage point), emitter, and
// engine instances for the keys it owns; both sides of a join instance share
// a key and so land on the same shard.
//
// Assignment is greedy longest-processing-time over each instance's cost:
// instance costs are heavily skewed (a coarse level with a deep cut runs
// many tables over every packet, a dyn-gated fine level drops almost
// everything at op 0), so round-robin leaves some shards nearly idle. The
// result is deterministic — ties break on installation order and lowest
// shard index — so a given plan always shards the same way.
func (r *Runtime) buildShards(n int) error {
	infos := r.infos
	r.owner = make(map[stream.QueryKey]int, len(infos))
	ord := make([]int, len(infos))
	for i := range ord {
		ord[i] = i
	}
	sort.SliceStable(ord, func(a, b int) bool { return infos[ord[a]].cost > infos[ord[b]].cost })
	load := make([]int, n)
	for _, idx := range ord {
		best := 0
		for s := 1; s < n; s++ {
			if load[s] < load[best] {
				best = s
			}
		}
		load[best] += infos[idx].cost
		r.owner[infos[idx].key] = best
	}
	prog := r.plan.Program
	if len(r.fill) > 1 {
		prog = dropDumpThresholds(prog)
	}
	progs := make([]*pisa.Program, n)
	for i := range progs {
		progs[i] = &pisa.Program{}
	}
	for _, spec := range prog.Instances {
		si, ok := r.owner[stream.QueryKey{QID: spec.QID, Level: spec.Level}]
		if !ok {
			return fmt.Errorf("runtime: program instance %s has no planned level", spec.Name())
		}
		progs[si].Instances = append(progs[si].Instances, spec)
	}
	r.pre = pisa.NewPrescreen()
	for i := 0; i < n; i++ {
		engine := stream.NewEngine(stream.NewDynTables())
		engine.SetScalar(r.opts.Scalar)
		s := &shard{engine: engine, em: emitter.New(engine)}
		for range r.fill {
			sw, err := pisa.NewSwitchShared(r.cfg, progs[i], s.em, r.pre)
			if err != nil {
				return fmt.Errorf("runtime: installing shard %d program: %w", i, err)
			}
			s.sws = append(s.sws, sw)
		}
		r.shards = append(r.shards, s)
	}
	for i, in := range infos {
		s := r.shards[r.owner[in.key]]
		if err := s.engine.Install(in.aug, in.key.Level, in.part); err != nil {
			return fmt.Errorf("runtime: installing q%d level %d: %w", in.key.QID, in.key.Level, err)
		}
		s.slots = append(s.slots, i)
	}
	for li := range r.links {
		l := &r.links[li]
		s := r.shards[r.owner[stream.QueryKey{QID: l.QID, Level: l.To}]]
		if err := l.resolve(s.engine.Dyn(), s.sws...); err != nil {
			return err
		}
	}
	r.parser = packet.NewParser(packet.ParserOptions{})
	r.batchPool = &sync.Pool{New: func() any {
		return &viewBatch{views: make([]pisa.View, DefaultBatchSize)}
	}}
	// Persistent workers, when there is more than one shard: spawned once
	// here, joined only by Close. Windows are delimited by close messages
	// through the rings (the epoch barrier), not by goroutine teardown. One
	// shard gains nothing from a second goroutine and runs on the caller's.
	r.live = n > 1
	if r.live {
		for _, s := range r.shards {
			s.q.init(shardQueueDepth)
			r.stopWG.Add(1)
			go s.run(r)
		}
	}
	return nil
}

// dropDumpThresholds copies the program with threshold filters removed from
// dump-boundary stateful tables. A per-switch threshold would suppress keys
// whose traffic is split across vantage points and only crosses the
// threshold in aggregate — the defining difficulty of network-wide heavy
// hitter detection. Switches instead dump raw partial aggregates; the
// stream engine's drain path re-applies the original threshold after
// merging, so results are identical to a single switch observing the union
// of the traffic.
func dropDumpThresholds(prog *pisa.Program) *pisa.Program {
	out := &pisa.Program{Instances: make([]*pisa.InstanceSpec, len(prog.Instances))}
	for i, spec := range prog.Instances {
		c := *spec
		c.Tables = slices.Clone(spec.Tables)
		if c.CutAt > 0 && c.Tables[c.CutAt-1].Stateful {
			c.Tables[c.CutAt-1].MergedFilterOp = -1
		}
		out.Instances[i] = &c
	}
	return out
}

// instanceCost is the weight the shard balancer assigns an instance: the
// planner's trained per-window work estimate (tuples entering each pipeline
// stage, gates applied — see InstancePlan.EstWork). A floor of 1 keeps
// zero-traffic instances schedulable.
func instanceCost(lp *planner.LevelPlan) int {
	cost := lp.Left.EstWork
	if lp.Right != nil {
		cost += lp.Right.EstWork
	}
	if cost == 0 {
		return 1
	}
	return int(cost)
}

// entryOp maps an instance plan's cut to the stream processor's resume op.
func entryOp(inst *planner.InstancePlan) int {
	return inst.Pipe.EntryFor(inst.Cut).StartOp
}

// Plan returns the installed plan.
func (r *Runtime) Plan() *planner.Plan { return r.plan }

// Workers returns the number of shards.
func (r *Runtime) Workers() int { return len(r.shards) }

// ProcessWindow pushes one window of frames through the data plane, closes
// the window on both components, applies refinement updates for the next
// window, and reports.
func (r *Runtime) ProcessWindow(frames [][]byte) *WindowReport {
	r.markWindowStart()
	sp := r.lane.Start(tracez.NameSwitchPass)
	for _, f := range frames {
		r.Process(f)
	}
	sp.Attr(tracez.AttrFrames, uint64(len(frames)))
	sp.End()
	return r.closeWindow()
}

// Process pushes a single frame through vantage point 0: ProcessAt(0, frame).
func (r *Runtime) Process(frame []byte) { r.ProcessAt(0, frame) }

// ProcessAt pushes a single frame into vantage point vp, which must be below
// Options.VantagePoints (streaming use; pair with CloseWindow): it adds the
// frame to vp's filling view batch and hands a full batch — parsed once, in
// fanOut — to every shard, whose switch at vp walks it. The parsed views
// alias the frame and outlive this call, so the caller must not modify it
// until the window closes.
func (r *Runtime) ProcessAt(vp int, frame []byte) {
	r.markWindowStart()
	r.framesIn++
	r.m.packets.Inc()
	b := r.fill[vp]
	if b == nil {
		b = r.batchPool.Get().(*viewBatch)
		b.n, b.vp = 0, vp
		r.fill[vp] = b
	}
	b.views[b.n].Frame = frame
	b.n++
	if b.n == len(b.views) {
		r.fanOut(r.takeFill(vp), msgBatch)
	}
}

// takeFill detaches vp's filling batch (nil when no frame is buffered). The
// batch is read-only from here on; the last shard to finish it returns it
// to the pool.
func (r *Runtime) takeFill(vp int) *viewBatch {
	b := r.fill[vp]
	r.fill[vp] = nil
	return b
}

// fanOut hands a message (optionally carrying a batch) to every shard:
// through its ring while workers are live, by executing it here otherwise.
// The batch is parsed here, a batch at a time: the frames of a replay are
// cold, so the header lines of every frame are loaded first, back to back —
// independent loads whose cache misses overlap, the RegisterBank.touch idiom
// — and the parser then finds them on their way in. The batch's runnable and
// static leading-filter bitmaps and its header-field columns are computed
// once here too — on the dispatch side — so every shard's batched walk only
// ANDs the masks its own instances reference and reads columns.
func (r *Runtime) fanOut(b *viewBatch, kind uint8) {
	if b != nil {
		views := b.views[:b.n]
		for i := range views {
			// Ethernet, IP and transport headers end within the first two lines.
			if f := views[i].Frame; len(f) > 0 {
				r.touched += uint32(f[0]) + uint32(f[min(len(f)-1, 64)])
			}
		}
		for i := range views {
			views[i].Prepare(r.parser, views[i].Frame)
		}
		if !r.opts.Scalar {
			r.pre.Eval(views, &b.masks)
		}
		b.refs.Store(int32(len(r.shards)))
	}
	m := shardMsg{batch: b, kind: kind}
	for _, s := range r.shards {
		if r.live {
			s.q.push(m)
		} else {
			s.exec(r, m)
		}
	}
}

// run is a shard's persistent worker loop. Ring FIFO order is what makes the
// close a barrier: every batch pushed before the close message is executed
// before the close runs.
func (s *shard) run(r *Runtime) {
	defer r.stopWG.Done()
	for s.exec(r, s.q.pop()) {
	}
}

// exec executes one shard message on the calling goroutine: run the owned
// instances over the batch, if any, on the batch's vantage-point switch; on
// a close message, additionally close the window on this shard's state and
// signal the epoch barrier. It reports false once the message was a stop.
func (s *shard) exec(r *Runtime, m shardMsg) bool {
	if b := m.batch; b != nil {
		t0 := time.Now()
		views, sw := b.views[:b.n], s.sws[b.vp]
		if r.opts.Scalar {
			for i := range views {
				sw.ProcessView(&views[i])
			}
		} else {
			sw.ProcessViewsPre(views, &b.masks)
		}
		s.busy += time.Since(t0)
		if b.refs.Add(-1) == 0 {
			r.batchPool.Put(b)
		}
	}
	switch m.kind {
	case msgClose:
		t0 := time.Now()
		s.closeShard()
		s.cr.busy += time.Since(t0)
		r.closeWG.Done()
	case msgStop:
		return false
	}
	return true
}

// closeShard runs the window close on this shard's slice of the pipeline:
// register dump and dump decode into the shard engine, switch by switch in
// vantage-point order, then stream-engine window evaluation and emitter
// stats — concurrent across shards while workers are live. The products
// land in s.cr; busy is published alongside and reset for the next window.
func (s *shard) closeShard() {
	cr := &s.cr
	cr.dumpCount, cr.stats = 0, pisa.WindowStats{}
	for _, sw := range s.sws {
		dumps, st := sw.EndWindow()
		s.em.HandleDumps(dumps)
		cr.dumpCount += len(dumps)
		cr.stats.Merge(st)
	}
	cr.results, cr.metrics = s.engine.EndWindow()
	cr.emFrames, cr.emBad = s.em.WindowStats()
	cr.busy, s.busy = s.busy, 0
}

// markWindowStart anchors the window-duration measurement and the window
// root span at the first frame of each window.
func (r *Runtime) markWindowStart() {
	if r.windowStart.IsZero() {
		r.windowStart = time.Now()
	}
	r.openRoot()
}

// openRoot starts the window's root span and re-parents the orchestration
// lane under it, so every subsequent stage span becomes its child. Inert
// when tracing is off (nil lane).
func (r *Runtime) openRoot() {
	if r.rootOpen {
		return
	}
	r.lane.SetContext(r.window, 0)
	r.troot = r.lane.Start(tracez.NameWindow)
	r.lane.SetContext(r.window, r.troot.ID())
	r.rootOpen = true
}

// CloseWindow ends the current window explicitly.
func (r *Runtime) CloseWindow() *WindowReport { return r.closeWindow() }

// Close stops the persistent workers, if any, and is safe to call at any
// point, including mid-window and more than once. Frames already handed to
// the workers are fully processed before they exit (the stop message rides
// the same FIFO rings as the batches), frames still in the filling batch
// stay buffered, and the runtime remains usable afterwards: with no live
// workers every shard message executes on the caller's goroutine, so a
// window spanning a Close still produces the exact report it would have
// produced without one. A one-shard runtime never had workers; Close is a
// no-op there.
func (r *Runtime) Close() {
	if !r.live {
		return
	}
	r.fanOut(nil, msgStop)
	r.stopWG.Wait()
	r.live = false
}

func (r *Runtime) closeWindow() *WindowReport {
	r.openRoot() // zero-frame windows still get a (short) trace tree
	// Each shard runs register dump, dump decode, and stream-engine
	// evaluation on the state it owns — in parallel on the workers while
	// they are live — and the barrier hands ownership of every shard back to
	// this goroutine. Every vantage point's tail batch goes out first; the
	// last one rides the close message.
	// Both stage spans wrap the whole barrier (the phases overlap across
	// shards), and each shard lane is re-parented before the close message
	// so op spans recorded during the close nest under this window's
	// stream_eval span — the ring handoff publishes the lane context to the
	// worker.
	ed := r.lane.Start(tracez.NameEmitterDecode)
	se := r.lane.Start(tracez.NameStreamEval)
	for _, s := range r.shards {
		s.lane.SetContext(r.window, se.ID())
	}
	last := len(r.fill) - 1
	for vp := range last {
		if b := r.takeFill(vp); b != nil {
			r.fanOut(b, msgBatch)
		}
	}
	r.closeWG.Add(len(r.shards))
	r.fanOut(r.takeFill(last), msgClose)
	r.closeWG.Wait()
	// Deterministic merge, on this side of the barrier: shard order for the
	// commutative counters, installation order for results. What the engines
	// handed over is theirs again at the next close, so the report gets its
	// own per-query map and results slice.
	var (
		stats     pisa.WindowStats
		dumpCount int
		emFrames  uint64
		emBad     uint64
	)
	metrics := stream.Metrics{PerQuery: make(map[stream.QueryKey]uint64)}
	shardBusy := make([]time.Duration, len(r.shards))
	results := make([]stream.Result, len(r.infos))
	for i, s := range r.shards {
		cr := &s.cr
		shardBusy[i] = cr.busy
		dumpCount += cr.dumpCount
		stats.Merge(cr.stats)
		emFrames += cr.emFrames
		emBad += cr.emBad
		metrics.Merge(cr.metrics)
		// Each shard's results go to the slots fixed at construction, which
		// is the order one engine holding every instance would produce.
		for j := range cr.results {
			results[s.slots[j]] = cr.results[j]
		}
	}
	// Shards do not count PacketsIn (each saw every frame); the parse side
	// owns the count.
	stats.PacketsIn = r.framesIn
	r.framesIn = 0
	ed.Attr(tracez.AttrDumpTuples, uint64(dumpCount))
	ed.End()
	se.Attr(tracez.AttrTuplesIn, metrics.TuplesIn)
	se.End()
	// Register dumps become tuples at the stream processor; count them into
	// the headline metric like any other delivered tuple.
	rep := &WindowReport{
		Index:      r.window,
		AllResults: results,
		TuplesToSP: metrics.TuplesIn,
		PerQuery:   metrics.PerQuery,
		Switch:     stats,
		ShardBusy:  shardBusy,
	}
	r.collisionSum += stats.Collisions
	r.packetsSum += stats.PacketsIn
	rep.EmitterFrames, rep.EmitterMalformed = emFrames, emBad

	for _, res := range results {
		if r.finest[res.QID] == res.Level {
			rep.Results = append(rep.Results, res)
		}
	}

	// Dynamic refinement: level From's results gate level To next window.
	fu := r.lane.Start(tracez.NameFilterUpdate)
	start := time.Now()
	for li := range r.links {
		l := &r.links[li]
		gated := stream.QueryKey{QID: l.QID, Level: l.To}
		keys := l.keys(results)
		rep.FilterUpdates += l.publish(keys)
		changed := r.keySetChanged(li, keys)
		if changed {
			r.m.refTransitions.Inc()
		}
		// The flight recorder attributes the transition to the gated (finer)
		// instance: how many keys now admit its traffic, and whether the set
		// moved this window.
		if p := r.frProbes[gated]; p != nil {
			p.Refined(uint64(len(keys)), changed)
		}
	}
	rep.UpdateDuration = time.Since(start)
	fu.Attr(tracez.AttrEntries, uint64(rep.FilterUpdates))
	fu.End()

	// Feed the registry with the same values the report carries.
	r.m.windows.Inc()
	r.m.windowIndex.Set(int64(rep.Index))
	r.m.tuplesToSP.Add(rep.TuplesToSP)
	r.m.filterUpdates.Add(uint64(rep.FilterUpdates))
	r.m.filterUpdateNS.ObserveDuration(rep.UpdateDuration)
	if !r.windowStart.IsZero() {
		r.m.windowNS.ObserveDuration(time.Since(r.windowStart))
	}
	// Fan the report out to subscribers before the flight recorder seals the
	// window, so delivery bytes are attributed to the window they belong to.
	// Publish must not block (sinks absorb slow consumers in bounded queues).
	if r.sink != nil {
		pub := r.lane.Start(tracez.NamePublish)
		r.lane.SetContext(r.window, pub.ID())
		pubStart := time.Now()
		r.sink.Publish(rep)
		r.m.publishNS.ObserveDuration(time.Since(pubStart))
		pub.End()
		r.lane.SetContext(r.window, r.troot.ID())
	}
	// Freshness watermark: first frame of the window → results published.
	// Observed after publish (unlike window_ns, which excludes fan-out) so
	// it measures what a subscriber experiences.
	if !r.windowStart.IsZero() {
		fresh := time.Since(r.windowStart)
		r.m.freshNS.ObserveDuration(fresh)
		for _, h := range r.m.freshByQID {
			h.ObserveDuration(fresh)
		}
		for _, p := range r.frProbes {
			p.Fresh(fresh.Nanoseconds())
		}
		r.windowStart = time.Time{}
	}
	// Close the window's trace tree; the tracer decides retention from the
	// root's close latency.
	if r.rootOpen {
		r.tz.CloseWindow(r.window, r.troot.End().Nanoseconds())
		r.rootOpen = false
	}
	// Seal the window into the flight recorder with the very values the
	// report carries (a nil recorder no-ops).
	r.flight.Commit(rep.Index, stats.PacketsIn, shardBusy)
	r.window++
	return rep
}

// keys extracts the dyn-table keys for level To from one window's results
// into the link's reused candidate slice (valid until the next call;
// consumers copy what they keep). For join queries the gate is the
// intersection of the sub-queries' outputs (the paper's Section 4.1: "their
// output at coarser levels determines which portion of traffic to process
// for the finer levels") — the final post-join condition (e.g. a payload
// keyword) must not gate refinement, or the victim would never be zoomed in
// on.
func (l *link) keys(results []stream.Result) []string {
	keys := l.keyBuf[:0]
	for i := range results {
		res := &results[i]
		if res.QID != l.QID || res.Level != l.From {
			continue
		}
		if res.RightOutputs == nil && res.LeftOutputs == nil {
			for _, t := range res.Tuples {
				if l.keyCol < len(t) {
					keys = append(keys, stream.DynKeyFromValue(l.field, t[l.keyCol], int(l.From)))
				}
			}
			continue
		}
		l.rset = sideKeySet(l.rset, res.RightOutputs, res.RightSchema, l.field, int(l.From))
		l.lset = sideKeySet(l.lset, res.LeftOutputs, res.LeftSchema, l.field, int(l.From))
		switch {
		case l.lset == nil:
			for k := range l.rset {
				keys = append(keys, k)
			}
		case l.rset == nil:
			for k := range l.lset {
				keys = append(keys, k)
			}
		default:
			for k := range l.rset {
				if _, ok := l.lset[k]; ok {
					keys = append(keys, k)
				}
			}
		}
	}
	l.keyBuf = keys
	return keys
}

// sideKeySet collects a sub-pipeline's refinement keys into the reused set
// (cleared each call); nil when the side has no outputs/schema
// (packet-phase left sides).
func sideKeySet(set map[string]struct{}, outs [][]tuple.Value, schema tuple.Schema, f fields.ID, level int) map[string]struct{} {
	if outs == nil || schema == nil {
		return nil
	}
	col := schema.Index(f)
	if col < 0 {
		return nil
	}
	if set == nil {
		set = make(map[string]struct{}, len(outs))
	} else {
		clear(set)
	}
	for _, t := range outs {
		if col < len(t) {
			set[stream.DynKeyFromValue(f, t[col], level)] = struct{}{}
		}
	}
	return set
}

// CollisionRate returns the cumulative fraction of packets whose stateful
// updates overflowed the registers — the signal that triggers re-planning
// when traffic drifts from the training data (Section 3.3).
func (r *Runtime) CollisionRate() float64 {
	if r.packetsSum == 0 {
		return 0
	}
	return float64(r.collisionSum) / float64(r.packetsSum)
}

// NeedsReplan reports whether the collision rate passed the threshold.
func (r *Runtime) NeedsReplan(threshold float64) bool {
	return r.CollisionRate() > threshold
}

// EntrySummary describes where each installed instance was cut, for logs
// and the DESIGN.md-style plan dumps in the examples.
func (r *Runtime) EntrySummary() []string {
	var out []string
	for _, qp := range r.plan.Queries {
		for _, lp := range qp.Levels {
			out = append(out, fmt.Sprintf("q%-2d %-24s level /%-2d cut=%d/%d spEntry=op%d expectedN=%d",
				qp.Query.ID, qp.Query.Name, lp.Level, lp.Left.Cut,
				len(lp.Left.Pipe.Tables), entryOp(&lp.Left), lp.ExpectedN))
		}
	}
	return out
}
