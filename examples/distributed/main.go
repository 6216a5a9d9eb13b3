// Distributed: the runtime controls the switch over a real TCP connection.
//
// The paper's implementation drives its switches through a Thrift API; this
// repo's equivalent is the netproto control protocol. Here the data-plane
// driver server (owning the switch simulator) listens on localhost, the
// client dials it, discovers the switch's constraints, installs a compiled
// program, and orchestrates windows remotely — while packets stay on the
// switch host's fast path.
//
//	go run ./examples/distributed
package main

import (
	"fmt"
	"log"
	"net"
	"time"

	"repro/internal/compile"
	"repro/internal/drivers"
	"repro/internal/emitter"
	"repro/internal/fields"
	"repro/internal/packet"
	"repro/internal/pisa"
	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/trace"
)

func main() {
	// Stream processor and emitter live on the "collection" host.
	engine := stream.NewEngine(nil)
	em := emitter.New(engine)

	// The switch host: a data-plane driver server wrapping the simulator,
	// its monitoring port feeding the emitter a mirror batch at a time.
	srv := drivers.NewDataPlaneServer(pisa.DefaultConfig(), em)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer l.Close()
	go srv.ListenAndServe(l)

	// The runtime host dials the control plane.
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer conn.Close()
	dp, err := drivers.DialDataPlane(conn)
	if err != nil {
		log.Fatal(err)
	}
	caps := dp.Capabilities()
	fmt.Printf("connected to switch: S=%d stages, A=%d stateful/stage, B=%d Mb/stage\n",
		caps.Stages, caps.StatefulPerStage, caps.RegisterBitsPerStage>>20)

	// Compile Query 1 wholly onto the switch, place it under the constraints
	// the switch reported, and install it remotely.
	q := query.NewBuilder("newly_opened_tcp_conns", 3*time.Second).
		Filter(query.Eq(fields.TCPFlags, fields.FlagSYN)).
		Map(query.F(fields.DstIP), query.ConstCol(1)).
		Reduce(query.AggSum, fields.DstIP).
		Filter(query.Gt(fields.AggVal, 300)).
		MustBuild()
	q.ID = 1
	cp := compile.CompilePipeline(q.Left.Ops)
	prog := &pisa.Program{Instances: []*pisa.InstanceSpec{{
		QID: 1, Ops: q.Left.Ops, Tables: cp.Tables, CutAt: len(cp.Tables),
		RegEntries: []int{0, 0, 0, 1 << 14},
	}}}
	if err := prog.Place(caps); err != nil {
		log.Fatal(err)
	}
	if err := dp.Install(prog); err != nil {
		log.Fatal(err)
	}
	if err := engine.Install(q, 0, stream.Partition{LeftStart: len(q.Left.Ops)}); err != nil {
		log.Fatal(err)
	}
	fmt.Println("program installed over TCP")

	// Traffic hits the switch host directly.
	cfg := trace.DefaultConfig()
	cfg.PacketsPerWindow = 20_000
	cfg.Windows = 3
	gen, err := trace.NewGenerator(cfg)
	if err != nil {
		log.Fatal(err)
	}
	gen.AddAttack(trace.NewSYNFlood(trace.StandardVictim, 64, 800, 0, gen.Duration()))

	for w := 0; w < gen.Windows(); w++ {
		win := gen.WindowRecords(w)
		for _, r := range win.Records {
			srv.Process(r.Data)
		}
		// The runtime closes the window remotely and pulls register dumps.
		dumps, stats, err := dp.EndWindow()
		if err != nil {
			log.Fatal(err)
		}
		em.HandleDumps(dumps)
		results, metrics := engine.EndWindow()
		fmt.Printf("window %d: %d pkts at switch, %d register dumps pulled, %d tuples at SP\n",
			w, stats.PacketsIn, len(dumps), metrics.TuplesIn)
		for _, res := range results {
			for _, t := range res.Tuples {
				fmt.Printf("  flood victim %s with %d new connections\n",
					packet.IPv4String(uint32(t[0].U)), t[1].U)
			}
		}
	}
}
