package pisa

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/compile"
	"repro/internal/fields"
	"repro/internal/flightrec"
	"repro/internal/packet"
	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/tuple"
)

// oracleProgram is a program that takes every branch the batched walk has:
// static leading filters (two instances sharing the SYN atom, one with a
// second clause), a populated and an unpopulated leading dynamic filter, an
// instance with no screenable prefix running a mid-pipeline distinct, the
// same pipeline over a small bank whose collision shunts interleave with
// its tail mirrors, a one-slot last-table bank that overflows, a distinct
// keyed on a string column (every key tagged), a mid-pipeline reduce whose
// merged threshold filter passes the running aggregate on to a map, and an
// All-SP instance with nothing on the switch.
func oracleProgram() *Program {
	full := func(q *query.Query, qid uint16, level uint8, regEntries int) *InstanceSpec {
		spec := specFor(q, len(compile.CompilePipeline(q.Left.Ops).Tables), regEntries)
		spec.QID, spec.Level = qid, level
		return spec
	}
	dynGated := func(table string) *query.Query {
		q := query1(1)
		q.Left.Ops = append([]query.Op{query.NewDynPacketFilter(table, fields.DstIP, 8)}, q.Left.Ops...)
		return q
	}
	spread := query.NewBuilder("spread", time.Second).
		Map(query.F(fields.SrcIP), query.F(fields.DstIP)).
		Distinct().
		Map(query.C(fields.SrcIP), query.ConstCol(1)).
		Reduce(query.AggSum, fields.SrcIP).
		Filter(query.Gt(fields.AggVal, 2)).
		MustBuild()
	web := query.NewBuilder("web_syn", time.Second).
		Filter(query.Eq(fields.TCPFlags, fields.FlagSYN), query.Eq(fields.DstPort, 80)).
		Map(query.F(fields.SrcIP), query.F(fields.DstIP)).
		MustBuild()

	overflow := full(query1(1), 1, 0, 1) // one slot per chain: most keys shunt
	populated := full(dynGated("q2.r8"), 2, 16, 512)
	unpopulated := full(dynGated("q3.r8"), 3, 16, 512)
	distinct := specFor(spread, 4, 1024) // cut after the second map: distinct is mid-pipeline
	distinct.QID = 4
	stateless := specFor(web, 2, 0)
	stateless.QID = 5
	allSP := specFor(query1(1), 0, 0)
	allSP.QID = 6
	shunting := specFor(spread, 4, 32) // the distinct's bank overflows mid-pipeline
	shunting.QID = 7
	payloads := query.NewBuilder("payloads", time.Second).
		Filter(query.Eq(fields.DstPort, 80)).
		Map(query.F(fields.SrcIP), query.F(fields.Payload)).
		Distinct().
		Map(query.C(fields.Payload), query.ConstCol(1)).
		MustBuild()
	strKey := specFor(payloads, 5, 64) // filter, map, hash, distinct, map
	strKey.QID = 8
	running := query.NewBuilder("running", time.Second).
		Map(query.F(fields.DstIP), query.ConstCol(1)).
		Reduce(query.AggSum, fields.DstIP).
		Filter(query.Gt(fields.AggVal, 3)).
		Map(query.C(fields.DstIP), query.C(fields.AggVal)).
		MustBuild()
	midReduce := specFor(running, 4, 256) // map, hash, reduce + merged filter, map
	midReduce.QID = 9
	return &Program{Instances: []*InstanceSpec{overflow, populated, unpopulated, distinct, stateless, allSP,
		shunting, strKey, midReduce}}
}

// oracleFrames mixes clean TCP frames over a small address space (so keys
// repeat and collide) with unsupported-layer frames, which still run the
// pipeline, and truncated ones, which do not.
func oracleFrames(r *rand.Rand, n int) [][]byte {
	frames := make([][]byte, n)
	for i := range frames {
		flags := byte(fields.FlagSYN)
		if r.Intn(3) == 0 {
			flags = fields.FlagACK
		}
		f := packet.BuildFrame(nil, &packet.FrameSpec{
			SrcIP: uint32(r.Intn(40) + 1), DstIP: packet.IPv4Addr(byte(9+r.Intn(3)), 1, 1, byte(r.Intn(30))),
			Proto: 6, SrcPort: uint16(r.Intn(100) + 1), DstPort: uint16(80 + r.Intn(2)),
			TCPFlags: flags, Payload: []byte{'p', byte('a' + r.Intn(4))}, Pad: 60})
		switch r.Intn(10) {
		case 0:
			f[12], f[13] = 0x08, 0x06 // ARP ethertype: unsupported layer
		case 1:
			f = f[:14+r.Intn(12)] // cut inside the IPv4 header: malformed
		}
		frames[i] = f
	}
	return frames
}

// oracleSink records every mirror a walk sends, expanding the batched walk's
// batches into their records, and counts the hand-offs.
type oracleSink struct {
	record func(Mirror)
	out    *oracleOutcome
}

func (s *oracleSink) HandleMirror(m Mirror) { s.record(m) }

func (s *oracleSink) HandleMirrorBatch(b *MirrorBatch) {
	s.out.batches++
	if b.Len() == 0 {
		s.out.emptyBatches++
	}
	b.records(s.record)
}

// oracleOutcome is everything a window's walk is observable through.
type oracleOutcome struct {
	mirrors map[string][]string // per instance, in emission order
	// batches counts the batched walk's sink calls, emptyBatches those that
	// carried nothing: an instance with an empty selection and an empty
	// shunt mask must make none.
	batches, emptyBatches int
	dumps                 []string
	stats                 WindowStats
	funnel                string // flight-recorder records; empty without probes
	// offered and entered are the window's prescreen counters (zero on the
	// frame-at-a-time walks, which have no prescreen); enteredOps is the same
	// quantity as entered read off the funnel instead: the entering count of
	// each guarded instance's first table behind its leading filters.
	offered, entered, enteredOps uint64
}

func (o *oracleOutcome) diff(want *oracleOutcome) string {
	for name, w := range want.mirrors {
		if g := o.mirrors[name]; strings.Join(g, "\n") != strings.Join(w, "\n") {
			return fmt.Sprintf("%s mirror sequence: got %d mirrors, want %d\ngot  %v\nwant %v", name, len(g), len(w), g, w)
		}
	}
	if len(o.mirrors) != len(want.mirrors) {
		return fmt.Sprintf("mirrors from %d instances, want %d", len(o.mirrors), len(want.mirrors))
	}
	if g, w := strings.Join(o.dumps, "\n"), strings.Join(want.dumps, "\n"); g != w {
		return fmt.Sprintf("dumps:\ngot\n%s\nwant\n%s", g, w)
	}
	if o.stats != want.stats {
		return fmt.Sprintf("stats: got %+v, want %+v", o.stats, want.stats)
	}
	if o.funnel != want.funnel {
		return fmt.Sprintf("funnel:\ngot\n%s\nwant\n%s", o.funnel, want.funnel)
	}
	return ""
}

// oracleRun replays the windows through a fresh switch, feeding each window
// with walk, and returns the outcome per window. The populated dynamic
// filter is written before the first window and rewritten between windows,
// as the runtime does at window close.
func oracleRun(t *testing.T, windows [][][]byte, probes bool,
	walk func(sw *Switch, ps *Prescreen, frames [][]byte)) []oracleOutcome {
	t.Helper()
	prog := oracleProgram()
	out := &oracleOutcome{}
	ps := NewPrescreen()
	sink := &oracleSink{record: func(m Mirror) {
		name := fmt.Sprintf("q%d/r%d", m.QID, m.Level)
		out.mirrors[name] = append(out.mirrors[name], fmt.Sprintf("ovf=%v merge=%d entry=%d vals=%v parsed=%v pkt=%x",
			m.Overflow, m.MergeOp, m.EntryOp, m.Vals, m.Parsed != nil, m.Packet))
	}}
	sw, err := NewSwitchShared(DefaultConfig(), prog, sink, ps)
	if err != nil {
		t.Fatal(err)
	}
	sw.Instrument(telemetry.NewRegistry(), 0)
	var rec *flightrec.Recorder
	if probes {
		rec = flightrec.New(len(windows), nil)
		byKey := map[[2]int]*flightrec.Probe{}
		for _, spec := range prog.Instances {
			stages := make([]flightrec.StageInfo, len(spec.Ops))
			for i := range stages {
				stages[i] = flightrec.StageInfo{Label: fmt.Sprintf("L%d", i), Stateful: spec.Ops[i].Stateful()}
			}
			for t := 0; t < spec.CutAt; t++ {
				stages[spec.Tables[t].OpIdx].OnSwitch = true
			}
			byKey[[2]int{int(spec.QID), int(spec.Level)}] = rec.Track(flightrec.TrackConfig{
				QID: spec.QID, Level: spec.Level, RefFrom: -1, NumLeft: len(stages), Stages: stages})
		}
		sw.AttachFlightRec(func(qid uint16, level uint8) *flightrec.Probe {
			return byKey[[2]int{int(qid), int(level)}]
		})
	}
	var outcomes []oracleOutcome
	for wi, frames := range windows {
		keys := []string{
			stream.DynKeyFromValue(fields.DstIP, tuple.U64(uint64(packet.IPv4Addr(byte(9+wi), 0, 0, 0))), 8)}
		if _, err := sw.UpdateDynTable(2, 16, SideLeft, 0, keys); err != nil {
			t.Fatal(err)
		}
		out = &oracleOutcome{mirrors: map[string][]string{}}
		sink.out = out
		offered, entered := sw.m.screenFrames.Value(), sw.m.screenEntered.Value()
		walk(sw, ps, frames)
		out.offered, out.entered = sw.m.screenFrames.Value()-offered, sw.m.screenEntered.Value()-entered
		dumps, stats := sw.EndWindow()
		for _, d := range dumps {
			out.dumps = append(out.dumps, fmt.Sprintf("q%d/r%d merge=%d key=%v val=%d", d.QID, d.Level, d.MergeOp, d.KeyVals, d.Val))
		}
		// Only Process counts PacketsIn; on the view paths the parse side
		// owns it.
		stats.PacketsIn = 0
		out.stats = stats
		if probes {
			rec.Commit(wi, uint64(len(frames)), nil)
			for _, r := range rec.Snapshot(0).Queries {
				out.funnel += fmt.Sprintf("q%d/r%d mirrored=%d collisions=%d dumps=%d reg=%d/%d ops=%v\n",
					r.QID, r.Level, r.Mirrored, r.Collisions, r.DumpTuples, r.RegUsed, r.RegCapacity, r.Ops)
				for _, st := range sw.insts {
					if spec := st.spec; spec.QID == r.QID && spec.Level == r.Level && st.screenTables > 0 {
						out.enteredOps += r.Ops[spec.Tables[st.screenTables].OpIdx].In
					}
				}
			}
		}
		outcomes = append(outcomes, *out)
	}
	return outcomes
}

// TestBatchedWalksMatchProcess is the switch-level oracle: every way of
// walking a batch of views — ProcessViews, dispatch-side Prescreen.Eval +
// ProcessViewsPre, and ProcessView per view — must be indistinguishable from
// frame-at-a-time Process in each instance's mirror sequence, the window's
// register dumps and its stats, at batch lengths on both sides of the bitmap
// word boundary. With flight-recorder probes attached the per-stage entering
// counts must match too — and the probed batched walks must have gone
// through the prescreen like the unprobed ones: their prescreen counters
// show every guarded instance was offered every runnable frame and let in
// exactly the frames the funnel says entered behind its leading filters.
func TestBatchedWalksMatchProcess(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	windows := [][][]byte{oracleFrames(r, 700), oracleFrames(r, 500)}

	batched := func(batch int, run func(sw *Switch, ps *Prescreen, views []View)) func(*Switch, *Prescreen, [][]byte) {
		parser := packet.NewParser(packet.ParserOptions{})
		views := make([]View, batch)
		return func(sw *Switch, ps *Prescreen, frames [][]byte) {
			for len(frames) > 0 {
				n := min(batch, len(frames))
				for i, f := range frames[:n] {
					views[i].Prepare(parser, f)
				}
				run(sw, ps, views[:n])
				frames = frames[n:]
			}
		}
	}
	// What the prescreen counters must add up to: every runnable frame of a
	// window, offered once to each instance with leading filters.
	const guarded = 5 // q1, q2, q3, q5 and q8 start with a filter
	runnable := make([]uint64, len(windows))
	parser := packet.NewParser(packet.ParserOptions{})
	for wi, frames := range windows {
		for _, f := range frames {
			var v View
			if v.Prepare(parser, f); v.Runnable {
				runnable[wi]++
			}
		}
	}
	var masks PrescreenMasks
	walks := []struct {
		name string
		run  func(sw *Switch, ps *Prescreen, views []View)
	}{
		{"ProcessViews", func(sw *Switch, _ *Prescreen, vs []View) { sw.ProcessViews(vs) }},
		{"ProcessViewsPre", func(sw *Switch, ps *Prescreen, vs []View) {
			ps.Eval(vs, &masks)
			sw.ProcessViewsPre(vs, &masks)
		}},
		{"ProcessView", func(sw *Switch, _ *Prescreen, vs []View) {
			for i := range vs {
				sw.ProcessView(&vs[i])
			}
		}},
	}

	for _, probes := range []bool{false, true} {
		want := oracleRun(t, windows, probes, func(sw *Switch, _ *Prescreen, frames [][]byte) {
			for _, f := range frames {
				sw.Process(f)
			}
		})
		// The program must actually take the branches it was built for.
		if probes {
			first := want[0]
			for _, name := range []string{"q1/r0", "q4/r0", "q5/r0", "q6/r0", "q7/r0", "q8/r0", "q9/r0"} {
				if len(first.mirrors[name]) == 0 {
					t.Fatalf("%s mirrored nothing; the oracle is vacuous", name)
				}
			}
			if first.stats.Collisions == 0 || len(first.dumps) == 0 {
				t.Fatalf("no collisions or no dumps (%+v); the oracle is vacuous", first.stats)
			}
			// q7's shunts and tail mirrors must alternate, or the emit pass's
			// frame order is not under test; q8's keys must be strings.
			flips := 0
			for i, m := range first.mirrors["q7/r0"][1:] {
				if strings.HasPrefix(m, "ovf=true") != strings.HasPrefix(first.mirrors["q7/r0"][i], "ovf=true") {
					flips++
				}
			}
			if flips < 4 {
				t.Fatalf("q7/r0 shunts and tail mirrors do not interleave (%d flips); the oracle is vacuous", flips)
			}
			if !strings.Contains(first.mirrors["q8/r0"][0], `"p`) {
				t.Fatalf("q8/r0 mirrors no string column: %s", first.mirrors["q8/r0"][0])
			}
			if !strings.Contains(strings.Join(first.dumps, "\n"), "q2/r16") ||
				strings.Contains(strings.Join(first.dumps, "\n"), "q3/r16") {
				t.Fatalf("dyn-gated instances: populated must dump, unpopulated must not:\n%v", first.dumps)
			}
		}
		for _, batch := range []int{1, 63, 64, 65, 256} {
			for _, w := range walks {
				got := oracleRun(t, windows, probes, batched(batch, w.run))
				for wi := range want {
					if d := got[wi].diff(&want[wi]); d != "" {
						t.Errorf("%s batch=%d probes=%v window %d diverged from Process: %s",
							w.name, batch, probes, wi, d)
					}
					if w.name == "ProcessView" {
						continue // the reference walk has no prescreen and no batches
					}
					if got[wi].emptyBatches != 0 || got[wi].batches == 0 {
						t.Errorf("%s batch=%d probes=%v window %d: %d of %d sink calls carried no record",
							w.name, batch, probes, wi, got[wi].emptyBatches, got[wi].batches)
					}
					if offered := guarded * runnable[wi]; got[wi].offered != offered {
						t.Errorf("%s batch=%d probes=%v window %d: prescreen offered %d frames, want %d",
							w.name, batch, probes, wi, got[wi].offered, offered)
					}
					if probes && (got[wi].entered != want[wi].enteredOps || got[wi].entered == 0) {
						t.Errorf("%s batch=%d window %d: prescreen let in %d frames, the funnel says %d",
							w.name, batch, wi, got[wi].entered, want[wi].enteredOps)
					}
				}
			}
		}
	}
}

// shuntTailSink records each record a walk sends and, on the batched walk,
// whether any hand-off carried a shunt bit at or above frame 192.
type shuntTailSink struct {
	got       []string
	highShunt bool
}

func (s *shuntTailSink) HandleMirror(m Mirror) {
	s.got = append(s.got, fmt.Sprintf("q%d ovf=%v merge=%d vals=%v pkt=%x", m.QID, m.Overflow, m.MergeOp, m.Vals, m.Packet))
}

func (s *shuntTailSink) HandleMirrorBatch(b *MirrorBatch) {
	if len(b.Shunt) > 3 && b.Shunt[3] != 0 {
		s.highShunt = true
	}
	b.records(s.HandleMirror)
}

// TestShuntMaskClearedAcrossBatchLengths walks a full batch whose last
// instance shunts in the top bitmap word, then a short batch, then a full one
// that shunts nothing, then a full one — the full / partial / full sequence
// every window close produces. The short batch's walks touch only the mask's
// low words, so a clear that is skipped when the previous instance shunted
// nothing would hand the third batch's instances the first batch's top-word
// shunts.
func TestShuntMaskClearedAcrossBatchLengths(t *testing.T) {
	program := func() *Program {
		allSP := specFor(query1(1), 0, 0)
		allSP.QID = 6
		overflow := specFor(query1(1), len(compile.CompilePipeline(query1(1).Left.Ops).Tables), 1)
		overflow.QID = 1
		return &Program{Instances: []*InstanceSpec{allSP, overflow}} // the shunting instance walks last
	}
	var frames [][]byte
	for i := 0; i < 256+10+256; i++ {
		build := synFrame
		if i >= 256 && i < 256+10 {
			// The short batch shunts nothing, so the walk's shunt count is zero
			// going into the third batch.
			build = ackFrame
		}
		frames = append(frames, build(uint32(i+1), packet.IPv4Addr(9, 1, byte(i>>8), byte(i))))
	}

	want := &shuntTailSink{}
	sw, err := NewSwitchShared(DefaultConfig(), program(), want, NewPrescreen())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range frames {
		sw.Process(f)
	}

	got := &shuntTailSink{}
	if sw, err = NewSwitchShared(DefaultConfig(), program(), got, NewPrescreen()); err != nil {
		t.Fatal(err)
	}
	parser := packet.NewParser(packet.ParserOptions{})
	views := make([]View, 256)
	rest := frames
	for _, n := range []int{256, 10, 256} {
		for i, f := range rest[:n] {
			views[i].Prepare(parser, f)
		}
		sw.ProcessViews(views[:n])
		rest = rest[n:]
	}
	if !got.highShunt {
		t.Fatal("no shunt at or above frame 192; the test is vacuous")
	}
	// Process interleaves the instances per frame, the batched walk per batch:
	// compare each instance's own sequence.
	for _, qid := range []string{"q6 ", "q1 "} {
		var g, w []string
		for _, m := range got.got {
			if strings.HasPrefix(m, qid) {
				g = append(g, m)
			}
		}
		for _, m := range want.got {
			if strings.HasPrefix(m, qid) {
				w = append(w, m)
			}
		}
		if strings.Join(g, "\n") != strings.Join(w, "\n") {
			t.Errorf("%smirror sequence: got %d records, want %d", qid, len(g), len(w))
		}
	}
}
