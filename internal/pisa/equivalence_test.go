package pisa

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/compile"
	"repro/internal/fields"
	"repro/internal/packet"
	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/tuple"
)

// TestSwitchMatchesStreamProcessor is the partitioning-correctness
// invariant from Section 3.1: executing a query's operators on the switch
// must produce exactly the results the stream processor would produce on
// the same packets. Random workloads, several queries, both cut depths.
func TestSwitchMatchesStreamProcessor(t *testing.T) {
	mkQ1 := func() *query.Query {
		q := query.NewBuilder("q1", time.Second).
			Filter(query.Eq(fields.TCPFlags, fields.FlagSYN)).
			Map(query.F(fields.DstIP), query.ConstCol(1)).
			Reduce(query.AggSum, fields.DstIP).
			Filter(query.Gt(fields.AggVal, 3)).
			MustBuild()
		q.ID = 1
		return q
	}
	mkSpread := func() *query.Query {
		q := query.NewBuilder("spread", time.Second).
			Map(query.F(fields.SrcIP), query.F(fields.DstIP)).
			Distinct().
			Map(query.C(fields.SrcIP), query.ConstCol(1)).
			Reduce(query.AggSum, fields.SrcIP).
			Filter(query.Gt(fields.AggVal, 2)).
			MustBuild()
		q.ID = 1
		return q
	}

	for _, mk := range []func() *query.Query{mkQ1, mkSpread} {
		for seed := int64(0); seed < 5; seed++ {
			q := mk()
			t.Run(fmt.Sprintf("%s/seed%d", q.Name, seed), func(t *testing.T) {
				r := rand.New(rand.NewSource(seed))
				var frames [][]byte
				for i := 0; i < 800; i++ {
					flags := byte(fields.FlagSYN)
					if r.Intn(3) == 0 {
						flags = fields.FlagACK
					}
					frames = append(frames, packet.BuildFrame(nil, &packet.FrameSpec{
						SrcIP: uint32(r.Intn(20) + 1), DstIP: uint32(r.Intn(30) + 1000),
						Proto: 6, SrcPort: uint16(r.Intn(100) + 1), DstPort: 80,
						TCPFlags: flags, Pad: 60,
					}))
				}

				cp := compile.CompilePipeline(q.Left.Ops)
				for _, cut := range cp.ValidPartitionPoints() {
					// Switch + engine with the cut.
					engine := stream.NewEngine(nil)
					if err := engine.Install(q, 0, stream.Partition{LeftStart: cp.EntryFor(cut).StartOp}); err != nil {
						t.Fatal(err)
					}
					spec := &InstanceSpec{QID: 1, Ops: q.Left.Ops, Tables: cp.Tables, CutAt: cut}
					spec.StageOf = make([]int, len(cp.Tables))
					spec.RegEntries = make([]int, len(cp.Tables))
					for i := range cp.Tables {
						spec.StageOf[i] = i
						if cp.Tables[i].Stateful {
							spec.RegEntries[i] = 4096
						}
					}
					parser := packet.NewParser(packet.ParserOptions{})
					var pkt packet.Packet
					pkts, one := &query.PacketBatch{Pkts: []*packet.Packet{&pkt}}, []uint64{1} // one selects pkt
					sw, err := NewSwitch(DefaultConfig(), &Program{Instances: []*InstanceSpec{spec}},
						func(m Mirror) {
							switch {
							case m.Overflow:
								vals := append([]tuple.Value(nil), m.Vals...)
								engine.Instance(1, 0).IngestTupleAt(stream.SideLeft, m.MergeOp, vals)
							case m.Vals != nil:
								vals := append([]tuple.Value(nil), m.Vals...)
								engine.Instance(1, 0).IngestTuple(stream.SideLeft, vals)
							case m.Packet != nil:
								if parser.Parse(m.Packet, &pkt) == nil {
									engine.Instance(1, 0).IngestPackets(stream.SideLeft, pkts, one)
								}
							}
						})
					if err != nil {
						t.Fatal(err)
					}
					for _, f := range frames {
						sw.Process(f)
					}
					dumps, _ := sw.EndWindow()
					for _, d := range dumps {
						engine.IngestAgg(1, 0, stream.SideLeft, d.MergeOp, d.KeyVals, d.Val)
					}
					results, _ := engine.EndWindow()
					got := renderResults(results)

					// Reference: everything at the stream processor.
					ref := stream.NewEngine(nil)
					if err := ref.Install(q, 0, stream.Partition{}); err != nil {
						t.Fatal(err)
					}
					for _, f := range frames {
						if parser.Parse(f, &pkt) == nil {
							ref.Instance(1, 0).IngestPackets(stream.SideLeft, pkts, one)
						}
					}
					refResults, _ := ref.EndWindow()
					want := renderResults(refResults)

					if got != want {
						t.Errorf("cut %d diverged:\nswitch: %s\nstream: %s", cut, got, want)
					}
				}
			})
		}
	}
}

func renderResults(results []stream.Result) string {
	var lines []string
	for _, r := range results {
		for _, t := range r.Tuples {
			line := ""
			for _, v := range t {
				line += fmt.Sprintf("%v ", v)
			}
			lines = append(lines, line)
		}
	}
	sort.Strings(lines)
	return fmt.Sprint(lines)
}
