package pisa

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fields"
	"repro/internal/packet"
	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/tuple"
)

// The batch's header-field columns and the walk's dynamic-filter memo are
// per-batch state in storage that outlives the batch: these tests hold them
// to the frame-at-a-time walk across the batch lengths and rule-set updates
// that would expose a bit, a value or a bitmap left over from an earlier
// batch, and run two shards over one batch's columns under the race detector.

// columnsProgram gates two instances — SYNs and ACKs per destination, the
// shape of a join's two sides — behind dynamic filters that share one rule
// set, next to an ungated instance that reads four header fields into its
// tuples, one of which (the TCP window) non-TCP frames lack.
func columnsProgram() *Program {
	gated := func(qid uint16, flags uint64) *InstanceSpec {
		q := query.NewBuilder("gated", time.Second).
			Filter(query.Eq(fields.TCPFlags, flags)).
			Map(query.F(fields.DstIP), query.ConstCol(1)).
			Reduce(query.AggSum, fields.DstIP).
			MustBuild()
		q.ID = qid
		q.Left.Ops = append([]query.Op{query.NewDynPacketFilter("shared", fields.DstIP, 8)}, q.Left.Ops...)
		spec := specFor(q, 5, 1024)
		spec.Level = 16
		return spec
	}
	wide := query.NewBuilder("wide", time.Second).
		Filter(query.Gt(fields.PktLen, 0)).
		Map(query.MaskF(fields.SrcIP, 24), query.F(fields.DstPort), query.F(fields.TCPWin), query.RoundF(fields.PktLen, 16)).
		MustBuild()
	wide.ID = 3
	return &Program{Instances: []*InstanceSpec{gated(1, fields.FlagSYN), gated(2, fields.FlagACK), specFor(wide, 2, 0)}}
}

// publishShared installs one rule set admitting dst/8 in both gated tables,
// as the runtime's refinement links do for the two sides of a join.
func publishShared(t *testing.T, sw *Switch, dst uint32) {
	t.Helper()
	set := query.NewDynSet([]string{stream.DynKeyFromValue(fields.DstIP, tuple.U64(uint64(dst)), 8)})
	for _, qid := range []uint16{1, 2} {
		tab, err := sw.DynTable(qid, 16, SideLeft, 0)
		if err != nil || tab == nil {
			t.Fatalf("q%d dyn table: %v, %v", qid, tab, err)
		}
		tab.Publish(set)
	}
}

// columnsFrame is frame i of a run: TCP SYNs and ACKs to 9/8 and 10/8, with —
// when mixed — UDP (no flags, no window), ARP (runnable, nothing past
// Ethernet) and truncated frames (not runnable) among them.
func columnsFrame(i int, mixed bool) []byte {
	spec := packet.FrameSpec{SrcIP: uint32(i%23 + 1), DstIP: packet.IPv4Addr(byte(9+i%2), 1, 1, byte(i%7)),
		Proto: 6, SrcPort: uint16(1000 + i), DstPort: 80, TCPFlags: fields.FlagSYN, Window: uint16(i), Pad: 60 + i%40}
	if i%3 == 0 {
		spec.TCPFlags = fields.FlagACK
	}
	if !mixed {
		return packet.BuildFrame(nil, &spec)
	}
	switch i % 5 {
	case 1:
		spec.Proto = 17
	case 2:
		f := packet.BuildFrame(nil, &spec)
		f[12], f[13] = 0x08, 0x06
		return f
	case 3:
		return packet.BuildFrame(nil, &spec)[:20]
	}
	return packet.BuildFrame(nil, &spec)
}

// recordingSink keeps each instance's records in emission order.
type recordingSink struct{ got map[uint16][]string }

func (s *recordingSink) HandleMirror(m Mirror) {
	s.got[m.QID] = append(s.got[m.QID], fmt.Sprintf("ovf=%v vals=%v pkt=%x", m.Overflow, m.Vals, m.Packet))
}
func (s *recordingSink) HandleMirrorBatch(b *MirrorBatch) { b.records(s.HandleMirror) }

func dumpStrings(dumps []RegDump) string {
	var sb strings.Builder
	for _, d := range dumps {
		fmt.Fprintf(&sb, "q%d key=%v val=%d\n", d.QID, d.KeyVals, d.Val)
	}
	return sb.String()
}

// TestFieldColumnsClearedAcrossBatchLengths is TestShuntMaskClearedAcross-
// BatchLengths for the columns: a full batch of TCP frames sets every field's
// carried-by bit up to frame 255, a three-frame batch rewrites only the low
// word, and the next full batch has frames without TCP (or without IPv4, or
// not runnable at all) where the first had flags and windows. After each
// Eval every column must say what Packet.Field says and nothing about frames
// the batch does not have; and the walks over the three batches must report
// what frame-at-a-time Process reports.
func TestFieldColumnsClearedAcrossBatchLengths(t *testing.T) {
	var frames [][]byte
	for i := 0; i < 256+3+256; i++ {
		frames = append(frames, columnsFrame(i, i >= 256))
	}
	want := &recordingSink{got: map[uint16][]string{}}
	ref, err := NewSwitchShared(DefaultConfig(), columnsProgram(), want, nil)
	if err != nil {
		t.Fatal(err)
	}
	publishShared(t, ref, packet.IPv4Addr(9, 0, 0, 0))
	for _, f := range frames {
		ref.Process(f)
	}
	wantDumps, _ := ref.EndWindow()

	got := &recordingSink{got: map[uint16][]string{}}
	ps := NewPrescreen()
	sw, err := NewSwitchShared(DefaultConfig(), columnsProgram(), got, ps)
	if err != nil {
		t.Fatal(err)
	}
	publishShared(t, sw, packet.IPv4Addr(9, 0, 0, 0))
	read := []fields.ID{fields.DstIP, fields.TCPFlags, fields.PktLen, fields.SrcIP, fields.DstPort, fields.TCPWin}
	parser := packet.NewParser(packet.ParserOptions{})
	views := make([]View, 256)
	var masks PrescreenMasks
	rest := frames
	lacking := 0
	for _, n := range []int{256, 3, 256} {
		for i, f := range rest[:n] {
			views[i].Prepare(parser, f)
		}
		ps.Eval(views[:n], &masks)
		for _, f := range read {
			vals, has, ok := masks.batch.Column(f)
			if !ok || len(vals) != n || len(has) != (n+63)>>6 {
				t.Fatalf("batch of %d, %s: column of %d values, %d bitmap words, extracted %v", n, f, len(vals), len(has), ok)
			}
			for i := 0; i < len(has)*64; i++ {
				var v tuple.Value
				carried := false
				if i < n && views[i].Runnable {
					v, carried = views[i].Pkt.Field(f)
				}
				if has[i>>6]>>uint(i&63)&1 != 0 != carried || carried && vals[i] != v.U {
					t.Fatalf("batch of %d, %s, frame %d: column says %d carried=%v, Packet.Field %v carried=%v",
						n, f, i, vals[i], has[i>>6]>>uint(i&63)&1 != 0, v, carried)
				}
				if i < n && !carried {
					lacking++
				}
			}
		}
		sw.ProcessViewsPre(views[:n], &masks)
		rest = rest[n:]
	}
	if lacking == 0 {
		t.Fatal("every frame carried every field; the test is vacuous")
	}
	gotDumps, _ := sw.EndWindow()
	if g, w := dumpStrings(gotDumps), dumpStrings(wantDumps); g != w || g == "" {
		t.Errorf("dumps:\ngot\n%swant\n%s", g, w)
	}
	if g, w := strings.Join(got.got[3], "\n"), strings.Join(want.got[3], "\n"); g != w || g == "" {
		t.Errorf("q3 mirror sequence: got %d records, want %d", len(got.got[3]), len(want.got[3]))
	}
}

// TestDynFilterProbesThePublishedSet is the memo's contract: a match bitmap
// answers for one batch and one rule set. Two tables share each set, so the
// second is answered from the memo; the same set gates consecutive batches of
// different frames, so a bitmap kept past its batch would admit by position;
// and a set published at window close must be what the next window's first
// batch probes. Every window's dumps must be those of frame-at-a-time
// Process under the same publishes.
func TestDynFilterProbesThePublishedSet(t *testing.T) {
	windows := [][][]byte{{}, {}}
	for i := 0; i < 3*256; i++ {
		// i/256 shifts each batch's frames by one: frame p of a batch is to
		// the other /8 than frame p of the batch before.
		windows[0] = append(windows[0], columnsFrame(i*7+i/256, false))
		windows[1] = append(windows[1], columnsFrame(i*11+i/256+5, false))
	}
	admit := []uint32{packet.IPv4Addr(9, 0, 0, 0), packet.IPv4Addr(10, 0, 0, 0)}
	run := func(feed func(sw *Switch, frames [][]byte)) []string {
		sw, err := NewSwitchShared(DefaultConfig(), columnsProgram(), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for wi, frames := range windows {
			publishShared(t, sw, admit[wi]) // the window close before this window
			feed(sw, frames)
			dumps, _ := sw.EndWindow()
			gated := map[uint16]bool{}
			for _, d := range dumps {
				if gated[d.QID] = true; uint32(d.KeyVals[0].U)>>24 != admit[wi]>>24 {
					t.Fatalf("window %d: q%d dumped %s, which the window's set does not admit", wi, d.QID, d.KeyVals[0].IPString())
				}
			}
			if !gated[1] || !gated[2] {
				t.Fatalf("window %d: both gated instances must dump: %v", wi, gated)
			}
			out = append(out, dumpStrings(dumps))
		}
		return out
	}
	want := run(func(sw *Switch, frames [][]byte) {
		for _, f := range frames {
			sw.Process(f)
		}
	})
	parser := packet.NewParser(packet.ParserOptions{})
	views := make([]View, 256)
	got := run(func(sw *Switch, frames [][]byte) {
		for ; len(frames) > 0; frames = frames[256:] {
			for i, f := range frames[:256] {
				views[i].Prepare(parser, f)
			}
			sw.ProcessViews(views)
		}
	})
	for wi := range want {
		if got[wi] != want[wi] {
			t.Errorf("window %d dumps:\ngot\n%swant\n%s", wi, got[wi], want[wi])
		}
	}
}

// TestShardsShareColumns runs two shards — two switches over halves of one
// program, sharing a prescreen — concurrently over the same batches: the
// views, the masks and the field columns are written by the dispatch side
// between batches and only read by the shards, which the race detector
// checks. Together they must dump what one switch running everything dumps.
func TestShardsShareColumns(t *testing.T) {
	var frames [][]byte
	for i := 0; i < 4*256; i++ {
		frames = append(frames, columnsFrame(i, true))
	}
	whole, err := NewSwitchShared(DefaultConfig(), columnsProgram(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ps := NewPrescreen()
	prog := columnsProgram()
	var shards []*Switch
	for _, insts := range [][]*InstanceSpec{prog.Instances[:1], prog.Instances[1:]} {
		sw, err := NewSwitchShared(DefaultConfig(), &Program{Instances: insts}, nil, ps)
		if err != nil {
			t.Fatal(err)
		}
		shards = append(shards, sw)
	}
	set := query.NewDynSet([]string{stream.DynKeyFromValue(fields.DstIP, tuple.U64(uint64(packet.IPv4Addr(9, 0, 0, 0))), 8)})
	for _, sw := range append(shards, whole) {
		for _, qid := range []uint16{1, 2} {
			if tab, err := sw.DynTable(qid, 16, SideLeft, 0); err == nil && tab != nil {
				tab.Publish(set)
			}
		}
	}
	parser := packet.NewParser(packet.ParserOptions{})
	views := make([]View, 256)
	var masks PrescreenMasks
	for rest := frames; len(rest) > 0; rest = rest[256:] {
		for i, f := range rest[:256] {
			views[i].Prepare(parser, f)
		}
		whole.ProcessViews(views)
		ps.Eval(views, &masks)
		var wg sync.WaitGroup
		for _, sw := range shards {
			wg.Add(1)
			go func(sw *Switch) {
				defer wg.Done()
				sw.ProcessViewsPre(views, &masks)
			}(sw)
		}
		wg.Wait()
	}
	wantDumps, _ := whole.EndWindow()
	var got string
	for _, sw := range shards {
		dumps, _ := sw.EndWindow()
		got += dumpStrings(dumps)
	}
	if want := dumpStrings(wantDumps); got != want || got == "" {
		t.Errorf("dumps:\ngot\n%swant\n%s", got, want)
	}
}
