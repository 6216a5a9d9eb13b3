package drivers

import (
	"net"
	"testing"
	"time"

	"repro/internal/compile"
	"repro/internal/fields"
	"repro/internal/netproto"
	"repro/internal/packet"
	"repro/internal/pisa"
	"repro/internal/query"
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

func testProgram(q *query.Query) *pisa.Program {
	cp := compile.CompilePipeline(q.Left.Ops)
	spec := &pisa.InstanceSpec{QID: q.ID, Ops: q.Left.Ops, Tables: cp.Tables,
		CutAt: len(cp.Tables), StageOf: []int{0, 1, 2, 3},
		RegEntries: []int{0, 0, 0, 1024}}
	return &pisa.Program{Instances: []*pisa.InstanceSpec{spec}}
}

func TestDataPlaneDriverEndToEnd(t *testing.T) {
	var mirrors []pisa.Mirror
	srv := NewDataPlaneServer(pisa.DefaultConfig(), func(m pisa.Mirror) {
		mirrors = append(mirrors, m)
	})

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
	if _, err := dp.UpdateDynTable(1, 0, pisa.SideLeft, 0, []string{"k"}); err == nil {
		t.Error("update on missing dyn table succeeded")
	}

	client.Close()
	if err := <-done; err != nil {
		t.Errorf("server exited with %v", err)
	}
	_ = mirrors
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

	var mirrors int
	srv := NewDataPlaneServer(pisa.DefaultConfig(), func(pisa.Mirror) { mirrors++ })
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
