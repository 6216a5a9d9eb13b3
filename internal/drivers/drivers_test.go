package drivers

import (
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/compile"
	"repro/internal/emitter"
	"repro/internal/fields"
	"repro/internal/netproto"
	"repro/internal/packet"
	"repro/internal/pisa"
	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/tuple"
)

func testQuery() *query.Query {
	q := query.NewBuilder("q1", time.Second).
		Filter(query.Eq(fields.TCPFlags, fields.FlagSYN)).
		Map(query.F(fields.DstIP), query.ConstCol(1)).
		Reduce(query.AggSum, fields.DstIP).
		Filter(query.Gt(fields.AggVal, 2)).
		MustBuild()
	q.ID = 1
	return q
}

// testProgram runs q's whole left pipeline on the switch, a table a stage,
// with 1024 register entries per stateful table.
func testProgram(q *query.Query) *pisa.Program {
	cp := compile.CompilePipeline(q.Left.Ops)
	spec := &pisa.InstanceSpec{QID: q.ID, Ops: q.Left.Ops, Tables: cp.Tables,
		CutAt: len(cp.Tables), StageOf: make([]int, len(cp.Tables)),
		RegEntries: make([]int, len(cp.Tables))}
	for t, tab := range cp.Tables {
		spec.StageOf[t] = t
		if tab.Stateful {
			spec.RegEntries[t] = 1024
		}
	}
	return &pisa.Program{Instances: []*pisa.InstanceSpec{spec}}
}

// countingSink counts the records of the mirror batches it is handed.
type countingSink struct{ records int }

func (s *countingSink) HandleMirrorBatch(b *pisa.MirrorBatch) { s.records += b.Len() }

func TestDataPlaneDriverEndToEnd(t *testing.T) {
	srv := NewDataPlaneServer(pisa.DefaultConfig(), nil)

	client, server := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- srv.Serve(server) }()

	dp, err := DialDataPlane(client)
	if err != nil {
		t.Fatal(err)
	}
	if dp.Capabilities().Stages != pisa.DefaultConfig().Stages {
		t.Errorf("capabilities = %+v", dp.Capabilities())
	}

	q := testQuery()
	if err := dp.Install(testProgram(q)); err != nil {
		t.Fatalf("Install: %v", err)
	}

	// The fast path stays server-local: feed SYNs to one victim.
	victim := packet.IPv4Addr(9, 9, 9, 9)
	for i := 0; i < 5; i++ {
		frame := packet.BuildFrame(nil, &packet.FrameSpec{
			SrcIP: uint32(i + 1), DstIP: victim, Proto: 6,
			TCPFlags: fields.FlagSYN, DstPort: 80, Pad: 60})
		srv.Process(frame)
	}

	dumps, stats, err := dp.EndWindow()
	if err != nil {
		t.Fatalf("EndWindow: %v", err)
	}
	if stats.PacketsIn != 5 {
		t.Errorf("stats = %+v", stats)
	}
	if len(dumps) != 1 || dumps[0].KeyVals[0].U != uint64(victim) || dumps[0].Val != 5 {
		t.Fatalf("dumps = %+v", dumps)
	}

	// Dynamic table update flows through: the program has no dyn filter, so
	// a well-formed error must come back, not a hang or disconnect.
	if _, err := dp.UpdateDynTable(1, 0, pisa.SideLeft, 0, []tuple.Value{tuple.Str("k")}); err == nil {
		t.Error("update on missing dyn table succeeded")
	}

	client.Close()
	if err := <-done; err != nil {
		t.Errorf("server exited with %v", err)
	}
}

func TestDataPlaneRejectsBadVersion(t *testing.T) {
	srv := NewDataPlaneServer(pisa.DefaultConfig(), nil)
	client, server := net.Pipe()
	go srv.Serve(server)
	defer client.Close()

	c := netproto.NewConn(client)
	if err := c.Send(netproto.MsgHello, &netproto.Hello{Version: 99}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Recv(nil); err == nil {
		t.Error("bad version accepted")
	}
}

func TestGobRoundTripPreservesOpInternals(t *testing.T) {
	// The program crosses the wire by gob; unexported Op fields (schemas,
	// phase) must survive, or the remote switch would misinterpret every
	// pipeline.
	q := testQuery()
	prog := testProgram(q)

	srv := NewDataPlaneServer(pisa.DefaultConfig(), nil)
	client, server := net.Pipe()
	go srv.Serve(server)
	defer client.Close()
	dp, err := DialDataPlane(client)
	if err != nil {
		t.Fatal(err)
	}
	if err := dp.Install(prog); err != nil {
		t.Fatal(err)
	}
	// A non-SYN packet must be dropped by the decoded filter: if packet
	// phase was lost in transit the switch would panic or misroute.
	frame := packet.BuildFrame(nil, &packet.FrameSpec{
		SrcIP: 1, DstIP: 2, Proto: 6, TCPFlags: fields.FlagACK, Pad: 60})
	srv.Process(frame)
	dumps, stats, err := dp.EndWindow()
	if err != nil {
		t.Fatal(err)
	}
	if stats.PacketsIn != 1 || len(dumps) != 0 {
		t.Errorf("stats=%+v dumps=%d", stats, len(dumps))
	}
	_ = tuple.Value{}
}

// malformedPrograms are testProgram with its switch tables referencing what
// the instance does not carry — installed unchecked, each panics the serving
// goroutine in pisa.NewSwitch — and one whose threshold filter is a dynamic
// filter, which the switch would key on a header field and the stream
// processor has no key for. (A nil instance cannot cross the wire: gob does
// not encode nil slice elements; pisa's validation test covers it.)
func malformedPrograms() map[string]*pisa.Program {
	mutate := func(f func(spec *pisa.InstanceSpec)) *pisa.Program {
		prog := testProgram(testQuery())
		f(prog.Instances[0])
		return prog
	}
	dyn := testQuery()
	o := &dyn.Left.Ops[3]
	o.DynFilterTable, o.DynKeyField, o.DynLevel = "q1.r8", fields.DstIP, 8
	return map[string]*pisa.Program{
		"tuple-phase dyn filter": testProgram(dyn),
		"no register sizes":      mutate(func(s *pisa.InstanceSpec) { s.RegEntries = nil }),
		"op index":               mutate(func(s *pisa.InstanceSpec) { s.Tables[1].OpIdx = 99 }),
		"merged filter op":       mutate(func(s *pisa.InstanceSpec) { s.Tables[3].MergedFilterOp = 99 }),
		"no ops":                 mutate(func(s *pisa.InstanceSpec) { s.Ops = nil }),
	}
}

// TestDataPlaneRejectsMalformedInstall: Serve answers each malformed program
// with MsgError, keeps serving, and then installs a valid one that walks
// frames and dumps at the window's end.
func TestDataPlaneRejectsMalformedInstall(t *testing.T) {
	sink := &countingSink{}
	srv := NewDataPlaneServer(pisa.DefaultConfig(), sink)
	client, server := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- srv.Serve(server) }()
	dp, err := DialDataPlane(client)
	if err != nil {
		t.Fatal(err)
	}
	for name, prog := range malformedPrograms() {
		if err := dp.Install(prog); err == nil || !strings.Contains(err.Error(), "remote error") {
			t.Errorf("%s: Install = %v, want the server's MsgError", name, err)
		}
	}
	if err := dp.Install(testProgram(testQuery())); err != nil {
		t.Fatalf("valid install after the malformed ones: %v", err)
	}
	victim := packet.IPv4Addr(9, 9, 9, 9)
	for i := 0; i < 300; i++ { // more than one view batch
		srv.Process(packet.BuildFrame(nil, &packet.FrameSpec{
			SrcIP: uint32(i + 1), DstIP: victim, Proto: 6, TCPFlags: fields.FlagSYN, Pad: 60}))
	}
	dumps, stats, err := dp.EndWindow()
	if err != nil {
		t.Fatal(err)
	}
	if stats.PacketsIn != 300 || len(dumps) != 1 || dumps[0].Val != 300 || sink.records != 0 {
		t.Errorf("stats=%+v dumps=%+v mirrored=%d", stats, dumps, sink.records)
	}
	client.Close()
	if err := <-done; err != nil {
		t.Errorf("server exited with %v", err)
	}
}

// TestDataPlaneProcessDuringControl feeds frames from one goroutine while
// the control channel closes windows and rewrites the program's tables from
// another, the way a switch host's fast path and its runtime interleave: no
// frame is lost or counted twice, and (under -race) the view batch, the
// switch and the dumps are never touched by both at once.
func TestDataPlaneProcessDuringControl(t *testing.T) {
	srv := NewDataPlaneServer(pisa.DefaultConfig(), &countingSink{})
	client, server := net.Pipe()
	go srv.Serve(server)
	defer client.Close()
	dp, err := DialDataPlane(client)
	if err != nil {
		t.Fatal(err)
	}
	if err := dp.Install(testProgram(testQuery())); err != nil {
		t.Fatal(err)
	}
	const frames = 2000
	fed := make(chan struct{})
	go func() {
		defer close(fed)
		for i := 0; i < frames; i++ {
			srv.Process(packet.BuildFrame(nil, &packet.FrameSpec{
				SrcIP: uint32(i + 1), DstIP: uint32(i % 7), Proto: 6, TCPFlags: fields.FlagSYN, Pad: 60}))
		}
	}()
	var seen uint64
	for done := false; !done; {
		select {
		case <-fed:
			done = true
		default:
		}
		if _, err := dp.UpdateDynTable(1, 0, pisa.SideLeft, 0, []tuple.Value{tuple.Str("k")}); err == nil {
			t.Fatal("update on missing dyn table succeeded")
		}
		dumps, stats, err := dp.EndWindow()
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range dumps {
			if d.KeyVals[0].U >= 7 {
				t.Fatalf("dump key %d was never sent", d.KeyVals[0].U)
			}
		}
		seen += stats.PacketsIn
	}
	if seen != frames {
		t.Errorf("windows counted %d frames, %d were processed", seen, frames)
	}
}

// discardConn is a control connection whose replies go nowhere.
type discardConn struct{}

func (discardConn) Read([]byte) (int, error)    { return 0, io.EOF }
func (discardConn) Write(p []byte) (int, error) { return len(p), nil }

// FuzzDataPlaneInstall feeds arbitrary bytes to the server as a MsgInstall
// body; when the install succeeds, a few frames walk the program and the
// window ends. Whatever the bytes, the server must not panic, and what it
// installs holds no dynamic filter past the packet phase. The seed corpus
// (testdata/fuzz) holds testProgram and malformedPrograms.
func FuzzDataPlaneInstall(f *testing.F) {
	frames := [][]byte{
		packet.BuildFrame(nil, &packet.FrameSpec{SrcIP: 1, DstIP: 9, Proto: 6, TCPFlags: fields.FlagSYN, Pad: 60}),
		packet.BuildFrame(nil, &packet.FrameSpec{SrcIP: 2, DstIP: 9, Proto: 6, TCPFlags: fields.FlagACK, Payload: []byte("zorro"), Pad: 60}),
		packet.BuildFrame(nil, &packet.FrameSpec{SrcIP: 3, DstIP: 10, Proto: 17, DstPort: 53, Pad: 60}),
		packet.BuildFrame(nil, &packet.FrameSpec{SrcIP: 4, DstIP: 9, Proto: 6, TCPFlags: fields.FlagSYN, Pad: 60})[:20],
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		srv := NewDataPlaneServer(pisa.DefaultConfig(), &countingSink{})
		c := netproto.NewConn(discardConn{})
		if err := srv.handle(c, netproto.MsgInstall, body); err != nil {
			t.Fatal(err)
		}
		if srv.sw == nil {
			return // rejected
		}
		var prog pisa.Program
		if err := netproto.Decode(body, &prog); err != nil {
			t.Fatalf("installed a program that does not decode: %v", err)
		}
		for _, inst := range prog.Instances {
			for i := range inst.Ops {
				if o := &inst.Ops[i]; o.DynFilterTable != "" && !o.PacketPhase() {
					t.Fatalf("%s: installed a dynamic filter in tuple phase at op %d", inst.Name(), i)
				}
			}
		}
		for _, fr := range frames {
			srv.Process(fr)
		}
		if err := srv.handle(c, netproto.MsgEndWindow, nil); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzWindowDataDumps decodes arbitrary bytes as the WindowData a remote
// data plane answers MsgEndWindow with (DataPlaneClient.EndWindow) and hands
// its dumps to an emitter whose engine has testQuery installed at
// testProgram's partition, then ends the window. Whatever the bytes, nothing
// may panic: a dump no installed op takes counts as malformed. The seed
// corpus (testdata/fuzz) holds a valid window and seven malformed dumps.
func FuzzWindowDataDumps(f *testing.F) {
	q := testQuery()
	f.Fuzz(func(t *testing.T, body []byte) {
		var wd netproto.WindowData
		if netproto.Decode(body, &wd) != nil {
			return
		}
		engine := stream.NewEngine(nil)
		if err := engine.Install(q, 0, stream.Partition{LeftStart: len(q.Left.Ops)}); err != nil {
			t.Fatal(err)
		}
		emitter.New(engine).HandleDumps(wd.Dumps)
		engine.EndWindow()
	})
}
