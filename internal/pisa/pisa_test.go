package pisa

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/compile"
	"repro/internal/fields"
	"repro/internal/packet"
	"repro/internal/query"
	"repro/internal/tuple"
)

// retainMirror deep-copies a mirror's Vals so a test may keep it past the
// callback, which the Switch contract otherwise forbids (Vals may alias
// per-instance scratch reused by the next packet).
func retainMirror(m Mirror) Mirror {
	m.Vals = append([]tuple.Value(nil), m.Vals...)
	return m
}
func query1(th uint64) *query.Query {
	q := query.NewBuilder("q1", time.Second).
		Filter(query.Eq(fields.TCPFlags, fields.FlagSYN)).
		Map(query.F(fields.DstIP), query.ConstCol(1)).
		Reduce(query.AggSum, fields.DstIP).
		Filter(query.Gt(fields.AggVal, th)).
		MustBuild()
	q.ID = 1
	return q
}

// specFor builds an InstanceSpec with cutTables tables on the switch and
// first-fit stage assignment (one table per stage).
func specFor(q *query.Query, cutTables int, regEntries int) *InstanceSpec {
	cp := compile.CompilePipeline(q.Left.Ops)
	spec := &InstanceSpec{QID: q.ID, Ops: q.Left.Ops, Tables: cp.Tables, CutAt: cutTables}
	spec.StageOf = make([]int, len(cp.Tables))
	spec.RegEntries = make([]int, len(cp.Tables))
	for i := range cp.Tables {
		spec.StageOf[i] = i
		if cp.Tables[i].Stateful {
			spec.RegEntries[i] = regEntries
		}
	}
	return spec
}

func synFrame(src, dst uint32) []byte {
	return packet.BuildFrame(nil, &packet.FrameSpec{
		SrcIP: src, DstIP: dst, Proto: 6, SrcPort: 9, DstPort: 80,
		TCPFlags: fields.FlagSYN, Pad: 60})
}

func ackFrame(src, dst uint32) []byte {
	return packet.BuildFrame(nil, &packet.FrameSpec{
		SrcIP: src, DstIP: dst, Proto: 6, SrcPort: 9, DstPort: 80,
		TCPFlags: fields.FlagACK, Pad: 60})
}

func TestCompileQuery1Tables(t *testing.T) {
	cp := compile.CompilePipeline(query1(40).Left.Ops)
	kinds := []compile.TableKind{compile.TableFilter, compile.TableMap,
		compile.TableHashIndex, compile.TableStateUpdate}
	if len(cp.Tables) != len(kinds) {
		t.Fatalf("tables = %d, want %d", len(cp.Tables), len(kinds))
	}
	for i, k := range kinds {
		if cp.Tables[i].Kind != k {
			t.Errorf("table %d kind = %v, want %v", i, cp.Tables[i].Kind, k)
		}
	}
	upd := cp.Tables[3]
	if !upd.Stateful || upd.MergedFilterOp != 3 || upd.KeyBits != 32 {
		t.Errorf("state update table = %+v", upd)
	}
	if cp.CapPrefix != 4 {
		t.Errorf("CapPrefix = %d", cp.CapPrefix)
	}
	pts := cp.ValidPartitionPoints()
	want := []int{0, 1, 2, 4} // cannot cut between hash-index and update
	if fmt.Sprint(pts) != fmt.Sprint(want) {
		t.Errorf("partition points = %v, want %v", pts, want)
	}
	spec := &InstanceSpec{Ops: query1(40).Left.Ops, Tables: cp.Tables, CutAt: 4}
	if op := spec.EntryOp(); op != 4 {
		t.Errorf("entry op = %d, want 4 (past the merged threshold)", op)
	}
}

// TestEntryOpStatelessCut: the stream processor resumes right after the
// last switch table's op when the cut is stateless, and at op 0 when nothing
// runs on the switch.
func TestEntryOpStatelessCut(t *testing.T) {
	q := query1(40)
	cp := compile.CompilePipeline(q.Left.Ops)
	spec := &InstanceSpec{Ops: q.Left.Ops, Tables: cp.Tables, CutAt: 2} // filter+map on switch
	if op := spec.EntryOp(); op != 2 {
		t.Errorf("entry op = %d, want 2", op)
	}
	spec.CutAt = 0
	if op := spec.EntryOp(); op != 0 {
		t.Errorf("zero-cut entry op = %d, want 0", op)
	}
}

func TestSwitchRunsQuery1Fully(t *testing.T) {
	q := query1(3)
	spec := specFor(q, 4, 1024)
	var mirrors []Mirror
	sw, err := NewSwitch(DefaultConfig(), &Program{Instances: []*InstanceSpec{spec}},
		func(m Mirror) { mirrors = append(mirrors, retainMirror(m)) })
	if err != nil {
		t.Fatal(err)
	}
	victim := packet.IPv4Addr(9, 9, 9, 9)
	for i := 0; i < 10; i++ {
		sw.Process(synFrame(uint32(i+1), victim))
	}
	sw.Process(synFrame(1, packet.IPv4Addr(8, 8, 8, 8))) // 1 SYN: below Th
	sw.Process(ackFrame(1, victim))                      // not a SYN
	dumps, stats := sw.EndWindow()
	if len(mirrors) != 0 {
		t.Errorf("stateful tail should not mirror per packet; got %d", len(mirrors))
	}
	if len(dumps) != 1 {
		t.Fatalf("dumps = %+v", dumps)
	}
	d := dumps[0]
	if d.KeyVals[0].U != uint64(victim) || d.Val != 10 || d.MergeOp != 2 {
		t.Errorf("dump = %+v", d)
	}
	if stats.PacketsIn != 12 || stats.DumpTuples != 1 {
		t.Errorf("stats = %+v", stats)
	}
	// Registers reset between windows.
	sw.Process(synFrame(1, victim))
	dumps, _ = sw.EndWindow()
	if len(dumps) != 0 {
		t.Error("register state leaked across windows")
	}
}

func TestSwitchStatelessCut(t *testing.T) {
	// Cut after filter+map: every SYN mirrors a tuple.
	q := query1(3)
	spec := specFor(q, 2, 0)
	var mirrors []Mirror
	sw, err := NewSwitch(DefaultConfig(), &Program{Instances: []*InstanceSpec{spec}},
		func(m Mirror) { mirrors = append(mirrors, retainMirror(m)) })
	if err != nil {
		t.Fatal(err)
	}
	sw.Process(synFrame(1, 42))
	sw.Process(ackFrame(1, 42))
	if len(mirrors) != 1 {
		t.Fatalf("mirrors = %d", len(mirrors))
	}
	m := mirrors[0]
	if m.EntryOp != 2 || m.Overflow || len(m.Vals) != 2 || m.Vals[0].U != 42 || m.Vals[1].U != 1 {
		t.Errorf("mirror = %+v", m)
	}
	if m.Packet != nil {
		t.Error("tuple-phase mirror should not carry the frame unless requested")
	}
}

func TestSwitchAllSPMirrorsEverything(t *testing.T) {
	q := query1(3)
	spec := specFor(q, 0, 0)
	count := 0
	sw, err := NewSwitch(DefaultConfig(), &Program{Instances: []*InstanceSpec{spec}},
		func(m Mirror) {
			count++
			if m.Packet == nil || m.EntryOp != 0 {
				t.Errorf("All-SP mirror = %+v", m)
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	sw.Process(synFrame(1, 42))
	sw.Process(ackFrame(1, 42)) // even non-matching packets mirror: SP does the filtering
	if count != 2 {
		t.Errorf("mirrored %d of 2", count)
	}
}

func TestSwitchOverflowShunts(t *testing.T) {
	q := query1(0)
	spec := specFor(q, 4, 1) // one slot per chain: guaranteed collisions
	var overflow int
	sw, err := NewSwitch(DefaultConfig(), &Program{Instances: []*InstanceSpec{spec}},
		func(m Mirror) {
			if m.Overflow {
				overflow++
				if m.MergeOp != 2 || len(m.Vals) != 2 {
					t.Errorf("overflow mirror = %+v", m)
				}
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	// d=3 chains x 1 slot: the 4th distinct key (and all its packets) must
	// overflow ... but single-slot chains hash every key to slot 0, so keys
	// beyond the first 3 spill.
	distinct := 8
	for i := 0; i < distinct; i++ {
		sw.Process(synFrame(1, uint32(1000+i)))
	}
	dumps, stats := sw.EndWindow()
	if overflow == 0 {
		t.Fatal("no overflow with 1-slot registers")
	}
	if int(stats.Collisions) != overflow {
		t.Errorf("collisions = %d, overflow mirrors = %d", stats.Collisions, overflow)
	}
	if len(dumps)+overflow != distinct {
		t.Errorf("dumps %d + overflow %d != %d distinct keys", len(dumps), overflow, distinct)
	}
}

func TestSwitchMidPipelineDistinct(t *testing.T) {
	// Superspreader-style: map, distinct on switch; reduce on SP.
	q := query.NewBuilder("spread", time.Second).
		Map(query.F(fields.SrcIP), query.F(fields.DstIP)).
		Distinct().
		Map(query.C(fields.SrcIP), query.ConstCol(1)).
		Reduce(query.AggSum, fields.SrcIP).
		Filter(query.Gt(fields.AggVal, 2)).
		MustBuild()
	q.ID = 3
	cp := compile.CompilePipeline(q.Left.Ops)
	// Tables: map, hash, distinct-update, map, hash, reduce-update(+filter).
	// Cut after the second map (table 3): distinct passes first occurrences
	// through to the map, which mirrors per-tuple; the SP runs the reduce.
	spec := &InstanceSpec{QID: 3, Ops: q.Left.Ops, Tables: cp.Tables, CutAt: 4,
		StageOf: []int{0, 1, 2, 3, 4, 5}, RegEntries: []int{0, 0, 1024, 0, 0, 1024}}
	var mirrors []Mirror
	sw, err := NewSwitch(DefaultConfig(), &Program{Instances: []*InstanceSpec{spec}},
		func(m Mirror) { mirrors = append(mirrors, retainMirror(m)) })
	if err != nil {
		t.Fatal(err)
	}
	// Same (src,dst) five times: only the first passes distinct.
	for i := 0; i < 5; i++ {
		sw.Process(synFrame(7, 100))
	}
	sw.Process(synFrame(7, 101))
	if len(mirrors) != 2 {
		t.Fatalf("distinct passed %d tuples, want 2", len(mirrors))
	}
	if mirrors[0].EntryOp != 3 {
		t.Errorf("entry op = %d, want 3 (the SP-side reduce)", mirrors[0].EntryOp)
	}
	if len(mirrors[0].Vals) != 2 || mirrors[0].Vals[0].U != 7 || mirrors[0].Vals[1].U != 1 {
		t.Errorf("mirror tuple = %+v", mirrors[0].Vals)
	}

	// Cut at the distinct itself (table 3 exclusive): keys arrive via the
	// end-of-window register dump instead.
	spec2 := &InstanceSpec{QID: 3, Ops: q.Left.Ops, Tables: cp.Tables, CutAt: 3,
		StageOf: []int{0, 1, 2, 3, 4, 5}, RegEntries: []int{0, 0, 1024, 0, 0, 1024}}
	sw2, err := NewSwitch(DefaultConfig(), &Program{Instances: []*InstanceSpec{spec2}},
		func(m Mirror) { t.Errorf("unexpected mirror %+v", m) })
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		sw2.Process(synFrame(7, 100))
	}
	sw2.Process(synFrame(7, 101))
	dumps, _ := sw2.EndWindow()
	if len(dumps) != 2 {
		t.Fatalf("distinct dump = %d keys, want 2", len(dumps))
	}
	if dumps[0].MergeOp != 1 {
		t.Errorf("dump merge op = %d, want 1 (the distinct)", dumps[0].MergeOp)
	}
}

func TestSwitchDynFilterGates(t *testing.T) {
	q := query1(0)
	aug := q.Clone()
	dynOp := query.NewDynPacketFilter("q1.r8", fields.DstIP, 8)
	aug.Left.Ops = append([]query.Op{dynOp}, aug.Left.Ops...)
	cp := compile.CompilePipeline(aug.Left.Ops)
	spec := &InstanceSpec{QID: 1, Level: 16, Ops: aug.Left.Ops, Tables: cp.Tables,
		CutAt: len(cp.Tables)}
	spec.StageOf = []int{0, 1, 2, 3, 4}
	spec.RegEntries = make([]int, len(cp.Tables))
	for i, tab := range cp.Tables {
		if tab.Stateful {
			spec.RegEntries[i] = 512
		}
	}
	sw, err := NewSwitch(DefaultConfig(), &Program{Instances: []*InstanceSpec{spec}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	in := packet.IPv4Addr(9, 1, 1, 1)
	out := packet.IPv4Addr(10, 1, 1, 1)
	// Empty dyn table: nothing counted.
	sw.Process(synFrame(1, in))
	if dumps, _ := sw.EndWindow(); len(dumps) != 0 {
		t.Error("empty dyn table let packets through")
	}
	key := query.MaskValue(fields.DstIP, tuple.U64(uint64(in)), 8)
	if _, err := sw.UpdateDynTable(1, 16, SideLeft, 0, []tuple.Value{key}); err != nil {
		t.Fatal(err)
	}
	sw.Process(synFrame(1, in))
	sw.Process(synFrame(1, out))
	dumps, _ := sw.EndWindow()
	if len(dumps) != 1 || dumps[0].KeyVals[0].U != uint64(in) {
		t.Fatalf("dyn-gated dumps = %+v", dumps)
	}
	if sw.TableUpdates() != 1 {
		t.Errorf("TableUpdates = %d", sw.TableUpdates())
	}
}

func TestProgramValidationConstraints(t *testing.T) {
	q := query1(3)
	base := func() (*InstanceSpec, Config) {
		return specFor(q, 4, 1024), DefaultConfig()
	}

	// C3: stage beyond S.
	spec, cfg := base()
	cfg.Stages = 3
	if err := (&Program{Instances: []*InstanceSpec{spec}}).Validate(cfg); err == nil {
		t.Error("stage overflow accepted (C3)")
	}

	// C4: non-increasing stages.
	spec, cfg = base()
	spec.StageOf = []int{0, 0, 1, 2}
	if err := (&Program{Instances: []*InstanceSpec{spec}}).Validate(cfg); err == nil {
		t.Error("non-increasing stages accepted (C4)")
	}

	// C2: stateful actions per stage.
	cfg = DefaultConfig()
	cfg.StatefulPerStage = 1
	specs := []*InstanceSpec{specFor(q, 4, 1024), specFor(q, 4, 1024)}
	specs[1].QID = 2
	if err := (&Program{Instances: specs}).Validate(cfg); err == nil {
		t.Error("stateful overflow accepted (C2)")
	}

	// C1: register bits per stage.
	spec, cfg = base()
	cfg.RegisterBitsPerStage = 100
	cfg.MaxRegisterBitsPerOp = 100
	if err := (&Program{Instances: []*InstanceSpec{spec}}).Validate(cfg); err == nil {
		t.Error("register overflow accepted (C1)")
	}

	// Per-op register cap.
	spec, cfg = base()
	cfg.MaxRegisterBitsPerOp = 64
	if err := (&Program{Instances: []*InstanceSpec{spec}}).Validate(cfg); err == nil {
		t.Error("per-op register overflow accepted")
	}

	// C5: metadata budget.
	spec, cfg = base()
	cfg.MetadataBits = 8
	if err := (&Program{Instances: []*InstanceSpec{spec}}).Validate(cfg); err == nil {
		t.Error("metadata overflow accepted (C5)")
	}

	// Valid program passes.
	spec, cfg = base()
	if err := (&Program{Instances: []*InstanceSpec{spec}}).Validate(cfg); err != nil {
		t.Errorf("valid program rejected: %v", err)
	}
}

// TestProgramValidationRejectsMalformed: a program whose switch tables
// reference what its instance does not carry — the shapes a corrupted or
// hostile install message decodes to — is an error naming the instance and
// the table, never a panic in NewSwitch.
func TestProgramValidationRejectsMalformed(t *testing.T) {
	cases := []struct {
		name, want string
		mutate     func(p *Program)
	}{
		{"nil instance", "instance 1 is nil", func(p *Program) { p.Instances = append(p.Instances, nil) }},
		{"op index", "q1/r0/s0 table 1: op 99", func(p *Program) { p.Instances[0].Tables[1].OpIdx = 99 }},
		{"no ops", "q1/r0/s0 table 0: op 0", func(p *Program) { p.Instances[0].Ops = nil }},
		{"merged filter op", "q1/r0/s0 table 3: merged filter op 99", func(p *Program) { p.Instances[0].Tables[3].MergedFilterOp = 99 }},
		{"register sizes", "q1/r0/s0 table 3: 0 register sizes", func(p *Program) { p.Instances[0].RegEntries = nil }},
		// 3 chains × 2^62 entries × 64 bits wraps to 0 bits, under the cap.
		{"register size overflow", "q1/r0/s0 table 3: 4611686018427387904 entries of 64 bits in 3 chains exceed per-op cap",
			func(p *Program) { p.Instances[0].RegEntries[3] = 1 << 62 }},
		// A slot of no bits fits any number of entries under the cap.
		{"empty register slot", "q1/r0/s0 table 3: 1099511627776 register entries of 0 key and 0 value bits", func(p *Program) {
			p.Instances[0].Tables[3].KeyBits, p.Instances[0].Tables[3].ValBits = 0, 0
			p.Instances[0].RegEntries[3] = 1 << 40
		}},
		{"no register entries", "q1/r0/s0 table 3: 0 register entries", func(p *Program) { p.Instances[0].RegEntries[3] = 0 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			prog := &Program{Instances: []*InstanceSpec{specFor(query1(3), 4, 1024)}}
			if err := prog.Validate(DefaultConfig()); err != nil {
				t.Fatalf("the unmutated program is rejected: %v", err)
			}
			c.mutate(prog)
			if err := prog.Validate(DefaultConfig()); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("Validate = %v, want an error containing %q", err, c.want)
			}
			if _, err := NewSwitch(DefaultConfig(), prog, nil); err == nil {
				t.Error("NewSwitch installed the program")
			}
		})
	}
}

// TestCheckLoweringHoldsTablesToTheirOps: an instance's switch tables must
// be its ops' lowering — a table of another kind, op or slot width, or ops
// the evaluator cannot run, is an error — except that the last switch table
// may leave its merged threshold to the stream processor.
func TestCheckLoweringHoldsTablesToTheirOps(t *testing.T) {
	cases := []struct {
		name, want string
		mutate     func(s *InstanceSpec)
	}{
		{"lowering", "", func(*InstanceSpec) {}},
		{"dump threshold left to the stream processor", "", func(s *InstanceSpec) { s.Tables[3].MergedFilterOp = -1 }},
		{"table kind", "q1/r0/s0 table 1", func(s *InstanceSpec) { s.Tables[1].Kind = compile.TableFilter }},
		{"slot width", "q1/r0/s0 table 3", func(s *InstanceSpec) { s.Tables[3].KeyBits = 1 }},
		{"ops", "q1/r0/s0: query: op 2", func(s *InstanceSpec) { s.Ops[2].KeyCols = []int{9} }},
		{"nil instance", "instance 0 is nil", nil},
	}
	for _, c := range cases {
		spec := specFor(query1(3), 4, 1024)
		prog := &Program{Instances: []*InstanceSpec{spec}}
		if c.mutate == nil {
			prog.Instances[0] = nil
		} else {
			c.mutate(spec)
		}
		err := prog.CheckLowering()
		if c.want == "" && err != nil || c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)) {
			t.Errorf("%s: CheckLowering = %v, want %q", c.name, err, c.want)
		}
	}
}

func TestRegisterBankBasics(t *testing.T) {
	b := NewRegisterBank(64, 2, []int{32})
	vals := []tuple.Value{tuple.U64(5)}
	if _, newKey, ok := b.Update(vals, []int{0}, 3, query.AggSum); !ok || !newKey {
		t.Fatal("first insert failed")
	}
	if v, newKey, ok := b.Update(vals, []int{0}, 4, query.AggSum); !ok || newKey || v != 7 {
		t.Fatalf("second update: v=%d newKey=%v ok=%v", v, newKey, ok)
	}
	if b.Stored() != 1 || b.Capacity() != 128 {
		t.Errorf("Stored = %d, Capacity = %d", b.Stored(), b.Capacity())
	}
	if e := b.Entry(0); e.Val != 7 || len(e.KeyVals) != 1 || e.KeyVals[0].U != 5 {
		t.Errorf("Entry(0) = %+v", e)
	}
	if col := b.Reset(); col != 0 {
		t.Errorf("collisions = %d", col)
	}
	if b.Stored() != 0 {
		t.Error("Reset did not clear")
	}
	if v, newKey, ok := b.Update(vals, []int{0}, 1, query.AggSum); !ok || !newKey || v != 1 {
		t.Errorf("update after Reset: v=%d newKey=%v ok=%v, want a fresh key", v, newKey, ok)
	}
}

// TestCollisionRateMatchesFigure3 checks the qualitative properties of
// Figure 3: collision rate grows with incoming keys relative to the
// register size and shrinks as the number of chained registers d grows.
func TestCollisionRateMatchesFigure3(t *testing.T) {
	n := 1024
	rate := func(d int, loadFactor float64) float64 {
		b := NewRegisterBank(n, d, []int{64})
		r := rand.New(rand.NewSource(42))
		keys := int(loadFactor * float64(n))
		fails := 0
		for i := 0; i < keys; i++ {
			kv := []tuple.Value{tuple.U64(r.Uint64())}
			if _, _, ok := b.Update(kv, []int{0}, 1, query.AggSum); !ok {
				fails++
			}
		}
		return float64(fails) / float64(keys)
	}
	// More chains, fewer collisions at the same load.
	r1, r2, r4 := rate(1, 1.0), rate(2, 1.0), rate(4, 1.0)
	if !(r1 > r2 && r2 > r4) {
		t.Errorf("collision rates not decreasing in d: %v %v %v", r1, r2, r4)
	}
	// More keys, more collisions at the same d.
	lo, hi := rate(2, 0.25), rate(2, 2.0)
	if !(lo < hi) {
		t.Errorf("collision rate not increasing in load: %v vs %v", lo, hi)
	}
	// Tiny load keeps collisions near zero.
	if z := rate(4, 0.05); z > 0.01 {
		t.Errorf("near-empty bank collision rate = %v", z)
	}
}

func TestEntriesFor(t *testing.T) {
	cases := []struct {
		keys uint64
		min  int
	}{{0, 16}, {10, 31}, {1000, 1500}, {100000, 150000}}
	for _, c := range cases {
		n := EntriesFor(c.keys)
		if n < c.min {
			t.Errorf("EntriesFor(%d) = %d, below %d", c.keys, n, c.min)
		}
		if n&(n-1) != 0 {
			t.Errorf("EntriesFor(%d) = %d not a power of two", c.keys, n)
		}
	}
}

// TestReduceOverStringValueColumn: a reduce may sum a string-valued column,
// whose values' numeric part is zero, as the stream processor's reduce reads
// it. The batched walk, which reads a reduce's input from the numeric column,
// must fold the same zeros as the frame-at-a-time walk and report the same
// running aggregates.
func TestReduceOverStringValueColumn(t *testing.T) {
	q := query.NewBuilder("payload_sum", time.Second).
		Map(query.F(fields.SrcIP), query.F(fields.Payload)).
		Reduce(query.AggSum, fields.SrcIP).
		Map(query.C(fields.SrcIP), query.C(fields.AggVal)).
		MustBuild()
	var frames [][]byte
	for i := 0; i < 12; i++ {
		frames = append(frames, packet.BuildFrame(nil, &packet.FrameSpec{SrcIP: uint32(1 + i%3), DstIP: 9,
			Proto: 6, TCPFlags: fields.FlagACK, Payload: []byte{'p', byte('a' + i)}, Pad: 60}))
	}
	walk := func(batched bool) []string {
		var out []string
		sw, err := NewSwitch(DefaultConfig(), &Program{Instances: []*InstanceSpec{specFor(q, 4, 64)}},
			func(m Mirror) { out = append(out, fmt.Sprint(m.Vals)) })
		if err != nil {
			t.Fatal(err)
		}
		if !batched {
			for _, f := range frames {
				sw.Process(f)
			}
			return out
		}
		parser, views := packet.NewParser(packet.ParserOptions{}), make([]View, len(frames))
		for i, f := range frames {
			views[i].Prepare(parser, f)
		}
		sw.ProcessViews(views)
		return out
	}
	want, got := walk(false), walk(true)
	if len(want) != len(frames) || strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("batched walk reported %v, frame-at-a-time %v", got, want)
	}
	for _, m := range got {
		if !strings.HasSuffix(m, " 0]") {
			t.Fatalf("a string column summed to a non-zero aggregate: %s", m)
		}
	}
}
