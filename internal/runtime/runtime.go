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
	"repro/internal/flightrec"
	"repro/internal/packet"
	"repro/internal/pisa"
	"repro/internal/planner"
	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/telemetry"
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
	// Instances breaks the window down by installed (query, level)
	// instance, in installation order (AllResults[i] is the output of
	// Instances[i]): its load on the switch, the monitoring port and the
	// stream processor, register occupancy, evaluation, the refinement
	// update that gates it and the bytes queued to subscribers. The records
	// are the runtime's and reused: like the result tuples, they stay valid
	// until the next close.
	Instances []flightrec.Counts
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
	// RingFull and WorkerParks are the back-pressure beside it, per shard:
	// the times the dispatch side parked on the shard's full ring, and the
	// times the shard's worker parked on its empty one. Both stay 0 on a
	// one-shard runtime, which has no worker.
	RingFull    []uint64
	WorkerParks []uint64
}

// ResultSink receives each WindowReport as the window closes. Publish is
// called from the runtime's close path and must not block: sinks fan out to
// slow consumers through bounded queues, never by stalling the pipeline. The
// report and its results are shared, not copied; sinks must treat them as
// read-only and must not retain the tuple slices past Publish unless they
// encode them first. Publish returns the bytes it queued for delivery per
// instance, in the order of rep.Instances (nil when it queued nothing), and
// the number of subscribers it fanned out to; the runtime writes the bytes
// into the records before the flight recorder seals the window, does not
// keep the slice, and puts both in the window's fan-out span.
type ResultSink interface {
	Publish(rep *WindowReport) (bytes []uint64, subscribers int)
}

// SetResultSink installs (or, with nil, removes) the sink that receives each
// closed window's report.
func (r *Runtime) SetResultSink(sink ResultSink) { r.sink = sink }

// Options tunes a runtime's execution.
type Options struct {
	// Workers is the number of shards the installed (query, level) instances
	// are partitioned across. 0 or 1 builds one shard, which runs on the
	// calling goroutine (no worker is started); more start one persistent
	// worker per shard. Values above the instance count are clamped to it.
	Workers int
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
	// which is also the position of its j-th window result. swSlots[k] is
	// the position of the k-th instance of the shard's switch program, and
	// swBase[k] where its ops start in the instance's stages (past the left
	// ops for a right side).
	slots   []int
	swSlots []int
	swBase  []int
	// q is the shard's inbound SPSC ring while workers are live: view
	// batches during the window, then a close (or stop) message acting as
	// the epoch barrier — FIFO order guarantees every batch of the window is
	// processed before the close runs.
	q spscRing
	// busy accumulates time spent processing batches this window; the close
	// publishes it to the runtime via cr.
	busy time.Duration
	// cr is the shard's close-phase output, written by exec before it
	// signals the barrier and read by the caller after.
	cr closeResult
}

// closeResult carries one shard's window-close products across the epoch
// barrier. The shard's instances' records (Runtime.counts) are filled in
// place.
type closeResult struct {
	busy  time.Duration
	parks uint64 // the worker's parks on its empty ring
	// sws holds each vantage point's switch stats, stats their merge.
	sws     []pisa.WindowStats
	stats   pisa.WindowStats
	results []stream.Result
	metrics stream.Metrics
	em      emitter.Stats
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
	// deployment is everything the installed plan compiled to; Replan swaps
	// it whole between windows. Embedded by value, so the hot path reaches
	// its shards with no extra pointer hop.
	deployment
	cfg  pisa.Config
	opts Options
	// parser is the shared parse-once front end.
	parser    *packet.Parser
	batchPool *sync.Pool
	fill      []*viewBatch // batch being filled, one per vantage point (len is their count)
	framesIn  uint64       // frames ingested this window (PacketsIn)
	touched   uint32       // sink for fanOut's frame loads
	// live reports whether persistent workers are draining the shards'
	// rings: true from start with more than one shard until Close has joined
	// them. While false, fanOut executes shard messages on the calling
	// goroutine. closeWG is the epoch barrier for window closes, stopWG for
	// worker shutdown.
	live    bool
	closeWG sync.WaitGroup
	stopWG  sync.WaitGroup

	window int
	// flight is nil until AttachFlightRecorder; it commits every report.
	flight *flightrec.Recorder
	// sink receives each WindowReport at window close (nil until
	// SetResultSink); Publish runs on the close path and must not block.
	sink ResultSink
	// Telemetry: reg is the registry Instrument wired (nil until then) and m
	// its handles (inert until Instrument). windowStart anchors the
	// window-duration histogram, the freshness watermark and the window's
	// span tree.
	reg         *telemetry.Registry
	m           runtimeMetrics
	windowStart time.Time
	// Tracing: tz scores every window's span tree (nil when disabled), which
	// trace writes into spans at close, reused window after window.
	tz    *tracez.Tracer
	spans []tracez.Span
}

// deployment is what compile makes of a plan: the flattened instances, their
// refinement links, the shard set they are bound to, and the state that
// means something only for this plan.
type deployment struct {
	plan *planner.Plan
	// shards carries the execution state; every instance is owned by exactly
	// one (owner), and infos keeps global installation order so merged
	// results come out in the order one engine would produce them.
	shards []*shard
	owner  map[stream.QueryKey]int
	infos  []instInfo
	// counts holds the per-instance records of WindowReport.Instances,
	// parallel to infos and refilled at every close.
	counts []flightrec.Counts
	// pre is the shard switches' shared prescreen atom space; fanOut
	// evaluates it once per batch so shards only AND precomputed bitmaps.
	pre    *pisa.Prescreen
	links  []link
	finest map[uint16]uint8
	// collisionSum and packetsSum accumulate since the plan was deployed:
	// the re-planning signal (CollisionRate).
	collisionSum uint64
	packetsSum   uint64
}

// link is one dynamic-refinement edge of a plan (planner.Link) as the
// runtime serves it.
type link struct {
	planner.Link
	// sp and tables are where the link's rule set is published: the stream
	// processor's filter and the switch-side tables of level To, resolved
	// once at construction (resolve).
	sp     *stream.DynTables
	tables []*pisa.DynTable
	// last is the key set published the window before, sorted: the
	// refinement-transition counter's memory (changed).
	last []tuple.Value
}

// planLinks derives a plan's refinement links, in installation order.
func planLinks(plan *planner.Plan) ([]link, error) {
	pl, err := plan.Links()
	if err != nil {
		return nil, err
	}
	links := make([]link, len(pl))
	for i := range pl {
		links[i].Link = pl[i]
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
	if l.HasRight {
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

// publish installs keys, masked to level From, as what level To admits from
// the next window on — one rule set, built once and shared by the stream
// processor's filter and every switch-side table — and returns the number of
// filter entries written, and how many of them were the switches'.
func (l *link) publish(keys []tuple.Value) (entries, onSwitch int) {
	set := query.NewDynSet(keys)
	l.sp.Publish(l.Table, set)
	for _, t := range l.tables {
		onSwitch += t.Publish(set)
	}
	return set.Len() + onSwitch, onSwitch
}

// changed reports whether keys, this window's refinement key set, differs
// from the previous window's, whatever its order, and keeps a copy when it
// does. It sorts keys in place: every consumer has copied what it keeps.
func (l *link) changed(keys []tuple.Value) bool {
	slices.SortFunc(keys, tuple.Value.Compare)
	if slices.Equal(keys, l.last) {
		return false
	}
	l.last = append(l.last[:0], keys...)
	return true
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

// NewWithOptions wires a runtime with explicit execution options.
func NewWithOptions(plan *planner.Plan, cfg pisa.Config, opts Options) (*Runtime, error) {
	d, err := compile(plan, cfg, opts)
	if err != nil {
		return nil, err
	}
	r := &Runtime{deployment: d, cfg: cfg, opts: opts,
		fill:   make([]*viewBatch, max(1, opts.VantagePoints)),
		parser: packet.NewParser(packet.ParserOptions{}),
		batchPool: &sync.Pool{New: func() any {
			return &viewBatch{views: make([]pisa.View, DefaultBatchSize)}
		}}}
	r.start()
	return r, nil
}

// Replan replaces the installed plan between windows, inside the live
// deployment: the new plan is compiled by the code NewWithOptions runs, so
// a plan that fails to build leaves the old one serving. Then the old
// workers stop, the new shard set takes over and starts its own, and what
// is attached — registry series and the flight recorder's instances — is
// set up for it again; the result sink needs nothing. Window indices carry
// on; the collision sums and refinement state start fresh, as in a new
// runtime. Frames buffered in an open window are an error.
func (r *Runtime) Replan(plan *planner.Plan) error {
	if r.framesIn != 0 {
		return fmt.Errorf("runtime: re-plan with %d frames of window %d buffered; re-plan between windows",
			r.framesIn, r.window)
	}
	d, err := compile(plan, r.cfg, r.opts)
	if err != nil {
		return err
	}
	r.Close()
	r.deployment = d
	r.start()
	r.Instrument(r.reg, r.tz)
	r.AttachFlightRecorder(r.flight)
	return nil
}

// compile flattens a plan into installation-ordered instances and their
// refinement links and binds them to a shard set (buildShards).
func compile(plan *planner.Plan, cfg pisa.Config, opts Options) (deployment, error) {
	d := deployment{plan: plan, finest: make(map[uint16]uint8)}
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
			d.infos = append(d.infos, instInfo{key: key, aug: lp.Aug, part: part,
				cost: instanceCost(&lp)})
			n := lp.Aug.NumOps()
			d.counts = append(d.counts, flightrec.Counts{QID: key.QID, Level: key.Level,
				OpInSw: make([]uint64, n), OpInSP: make([]uint64, n), OpOut: make([]uint64, n)})
			if li == len(qp.Levels)-1 {
				d.finest[qp.Query.ID] = key.Level
			}
		}
	}
	var err error
	if d.links, err = planLinks(plan); err != nil {
		return d, err
	}
	return d, d.buildShards(cfg, opts)
}

// buildShards partitions the instances across opts.Workers shards (at least
// one, at most one per instance). Each shard gets the switch program slice
// (on one switch per vantage point), emitter, and engine instances for the
// keys it owns; both sides of a join instance share a key and so land on the
// same shard.
//
// Assignment is greedy longest-processing-time over each instance's cost:
// instance costs are heavily skewed (a coarse level with a deep cut runs
// many tables over every packet, a dyn-gated fine level drops almost
// everything at op 0), so round-robin leaves some shards nearly idle. The
// result is deterministic — ties break on installation order and lowest
// shard index — so a given plan always shards the same way.
func (d *deployment) buildShards(cfg pisa.Config, opts Options) error {
	infos := d.infos
	n := max(1, min(opts.Workers, len(infos)))
	d.owner = make(map[stream.QueryKey]int, len(infos))
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
		d.owner[infos[idx].key] = best
	}
	vps := max(1, opts.VantagePoints)
	prog := d.plan.Program
	if vps > 1 {
		prog = dropDumpThresholds(prog)
	}
	progs := make([]*pisa.Program, n)
	for i := range progs {
		progs[i] = &pisa.Program{}
	}
	for _, spec := range prog.Instances {
		si, ok := d.owner[stream.QueryKey{QID: spec.QID, Level: spec.Level}]
		if !ok {
			return fmt.Errorf("runtime: program instance %s has no planned level", spec.Name())
		}
		progs[si].Instances = append(progs[si].Instances, spec)
	}
	slotOf := make(map[stream.QueryKey]int, len(infos))
	for i, in := range infos {
		slotOf[in.key] = i
	}
	d.pre = pisa.NewPrescreen()
	for i := 0; i < n; i++ {
		engine := stream.NewEngine(stream.NewDynTables())
		s := &shard{engine: engine, em: emitter.New(engine)}
		s.cr.sws = make([]pisa.WindowStats, vps)
		for _, spec := range progs[i].Instances {
			slot, base := slotOf[stream.QueryKey{QID: spec.QID, Level: spec.Level}], 0
			if spec.Side == pisa.SideRight {
				base = len(infos[slot].aug.Left.Ops)
			}
			s.swSlots, s.swBase = append(s.swSlots, slot), append(s.swBase, base)
		}
		for range vps {
			sw, err := pisa.NewSwitchShared(cfg, progs[i], s.em, d.pre)
			if err != nil {
				return fmt.Errorf("runtime: installing shard %d program: %w", i, err)
			}
			s.sws = append(s.sws, sw)
		}
		d.shards = append(d.shards, s)
	}
	for i, in := range infos {
		s := d.shards[d.owner[in.key]]
		if err := s.engine.Install(in.aug, in.key.Level, in.part); err != nil {
			return fmt.Errorf("runtime: installing q%d level %d: %w", in.key.QID, in.key.Level, err)
		}
		s.slots = append(s.slots, i)
	}
	for li := range d.links {
		l := &d.links[li]
		s := d.shards[d.owner[stream.QueryKey{QID: l.QID, Level: l.To}]]
		if err := l.resolve(s.engine.Dyn(), s.sws...); err != nil {
			return err
		}
	}
	return nil
}

// start spawns the persistent workers, when there is more than one shard:
// one per shard, joined only by Close. Windows are delimited by close
// messages through the rings (the epoch barrier), not by goroutine teardown.
// One shard gains nothing from a second goroutine and runs on the caller's.
func (r *Runtime) start() {
	r.live = len(r.shards) > 1
	if r.live {
		for _, s := range r.shards {
			s.q.init(shardQueueDepth)
			r.stopWG.Add(1)
			go s.run(r)
		}
	}
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
	r.markWindowStart() // a zero-frame window is timed too
	for _, f := range frames {
		r.Process(f)
	}
	return r.CloseWindow()
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
		r.pre.Eval(views, &b.masks)
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
		s.sws[b.vp].ProcessViewsPre(b.views[:b.n], &b.masks)
		s.busy += time.Since(t0)
		if b.refs.Add(-1) == 0 {
			r.batchPool.Put(b)
		}
	}
	switch m.kind {
	case msgClose:
		t0 := time.Now()
		s.closeShard(r.counts)
		s.cr.busy += time.Since(t0)
		s.cr.parks, s.q.parks = s.q.parks, 0
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
// land in s.cr and in the records of the shard's instances in counts,
// which no other shard touches; busy is published alongside and reset for
// the next window.
func (s *shard) closeShard(counts []flightrec.Counts) {
	for _, slot := range s.slots {
		c := &counts[slot]
		*c = flightrec.Counts{QID: c.QID, Level: c.Level, OpInSw: c.OpInSw, OpInSP: c.OpInSP, OpOut: c.OpOut}
		clear(c.OpInSw)
	}
	cr := &s.cr
	cr.stats = pisa.WindowStats{}
	for vp, sw := range s.sws {
		dumps, st := sw.EndWindow()
		s.em.HandleDumps(dumps)
		cr.sws[vp] = st
		cr.stats.Merge(st)
		for k := range st.Instances {
			is, c := &st.Instances[k], &counts[s.swSlots[k]]
			c.Mirrored += is.Mirrored
			c.Collisions += is.Collisions
			c.DumpTuples += is.DumpTuples
			c.RegUsed += is.RegUsed
			c.RegCapacity += is.RegCapacity
			for op, n := range is.OpIn {
				c.OpInSw[s.swBase[k]+op] += n
			}
		}
	}
	cr.results, cr.metrics = s.engine.EndWindow()
	for j := range cr.metrics.Instances {
		is, c := &cr.metrics.Instances[j], &counts[s.slots[j]]
		c.TuplesToSP, c.MirrorBytes = is.TuplesIn, is.WireBytes
		c.Results, c.EvalNS = is.Results, is.Eval.Nanoseconds()
		copy(c.OpInSP, is.OpIn)
		copy(c.OpOut, is.OpOut)
	}
	cr.em = s.em.WindowStats()
	cr.busy, s.busy = s.busy, 0
}

// markWindowStart anchors the window-duration measurement and the window's
// span tree at the first frame of each window.
func (r *Runtime) markWindowStart() {
	if r.windowStart.IsZero() {
		r.windowStart = time.Now()
	}
}

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

// CloseWindow ends the current window: it closes the window on every shard,
// applies the refinement updates for the next window, publishes, and
// reports.
func (r *Runtime) CloseWindow() *WindowReport {
	ct := closeTotals{start: r.windowStart, closed: time.Now()}
	r.windowStart = time.Time{}
	// Each shard runs register dump, dump decode, and stream-engine
	// evaluation on the state it owns — in parallel on the workers while
	// they are live — and the barrier hands ownership of every shard back to
	// this goroutine. Every vantage point's tail batch goes out first; the
	// last one rides the close message.
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
	// own results slice.
	var (
		stats    pisa.WindowStats
		em       emitter.Stats
		tuplesIn uint64
	)
	n := len(r.shards)
	shardBusy := make([]time.Duration, n)
	parks := make([]uint64, 2*n)
	results := make([]stream.Result, len(r.infos))
	for i, s := range r.shards {
		cr := &s.cr
		shardBusy[i] = cr.busy
		parks[i], s.q.fullParks = s.q.fullParks, 0
		parks[n+i] = cr.parks
		stats.Merge(cr.stats)
		em.Frames += cr.em.Frames
		em.Malformed += cr.em.Malformed
		tuplesIn += cr.metrics.TuplesIn
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
	ct.merged = time.Now()
	// Register dumps become tuples at the stream processor; count them into
	// the headline metric like any other delivered tuple.
	rep := &WindowReport{
		Index:            r.window,
		AllResults:       results,
		TuplesToSP:       tuplesIn,
		Instances:        r.counts,
		Switch:           stats,
		EmitterFrames:    em.Frames,
		EmitterMalformed: em.Malformed,
		ShardBusy:        shardBusy,
		RingFull:         parks[:n:n],
		WorkerParks:      parks[n:],
	}
	r.collisionSum += stats.Collisions
	r.packetsSum += stats.PacketsIn

	for _, res := range results {
		if r.finest[res.QID] == res.Level {
			rep.Results = append(rep.Results, res)
		}
	}

	// Dynamic refinement: level From's results gate level To next window.
	// The gated (finer) instance's record notes how many keys now admit its
	// traffic, and whether the set moved this window.
	ct.updated = time.Now()
	for li := range r.links {
		l := &r.links[li]
		keys := l.Keys(results)
		entries, onSwitch := l.publish(keys)
		rep.FilterUpdates += entries
		ct.switchEntries += uint64(onSwitch)
		c := &r.counts[l.Slot]
		c.RefKeys, c.RefChanged = uint64(len(keys)), l.changed(keys)
		if c.RefChanged {
			ct.transitions++
		}
	}
	rep.UpdateDuration = time.Since(ct.updated)

	if ct.timed() {
		ct.window = time.Since(ct.start)
	}
	// Fan the report out to subscribers; what they were queued lands in the
	// records before the flight recorder seals the window. Publish must not
	// block (sinks absorb slow consumers in bounded queues).
	if r.sink != nil {
		ct.pubAt = time.Now()
		bytes, subscribers := r.sink.Publish(rep)
		for i, b := range bytes {
			r.counts[i].DeliveredBytes = b
		}
		ct.publish, ct.published = time.Since(ct.pubAt), true
		ct.updates, ct.subscribers = uint64(len(bytes)), uint64(subscribers)
	}
	// Freshness watermark: first frame of the window → results published.
	// Taken after publish (unlike the window time, which excludes fan-out)
	// so it measures what a subscriber experiences.
	if ct.timed() {
		ct.fresh = time.Since(ct.start)
	}
	r.trace(rep, &ct)
	r.observe(rep, &ct)
	r.flight.Commit(rep.Index, stats.PacketsIn, ct.fresh.Nanoseconds(), shardBusy, r.counts)
	r.window++
	return rep
}

// CollisionRate returns the fraction of packets since the installed plan
// was deployed (NewWithOptions or the last Replan) whose stateful updates
// overflowed the registers — the signal that triggers re-planning when
// traffic drifts from the training data (Section 3.3).
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
