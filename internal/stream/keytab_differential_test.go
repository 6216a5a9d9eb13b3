package stream

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/fields"
	"repro/internal/packet"
	"repro/internal/query"
	"repro/internal/tuple"
)

// TestKeytabStateMatchesMapModel drives the engine's column-keyed operator
// state with a random workload and checks every window's output —
// bit-identically, including order — against a naive model built on Go maps
// plus an explicit insertion-order list. This is the differential oracle for
// the keytab rewrite: same tuples in, same tuples out, same order out.
func TestKeytabStateMatchesMapModel(t *testing.T) {
	t.Run("reduce", func(t *testing.T) {
		const th = 6
		e := NewEngine(nil)
		if err := e.Install(query1(th), 0, Partition{LeftStart: 2}); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(41))
		for window := 0; window < 8; window++ {
			sums := make(map[uint64]uint64)
			var order []uint64
			touch := func(key, v uint64) {
				if _, seen := sums[key]; !seen {
					order = append(order, key)
				}
				sums[key] += v
			}
			// Mix direct tuples with pre-aggregated merges (the register-dump
			// path), over a key space small enough to guarantee hits and large
			// enough to force table growth past the initial capacity.
			n := 200 + rng.Intn(800)
			for i := 0; i < n; i++ {
				key := uint64(rng.Intn(64))
				if rng.Intn(4) == 0 {
					v := uint64(1 + rng.Intn(5))
					e.Instance(1, 0).IngestAgg(SideLeft, 2, []tuple.Value{tuple.U64(key)}, v)
					touch(key, v)
				} else {
					e.Instance(1, 0).IngestTuple(SideLeft, []tuple.Value{tuple.U64(key), tuple.U64(1)})
					touch(key, 1)
				}
			}
			results, _ := e.EndWindow()
			var want [][]tuple.Value
			for _, key := range order {
				if sums[key] > th {
					want = append(want, []tuple.Value{tuple.U64(key), tuple.U64(sums[key])})
				}
			}
			// The engine canonicalizes each result set at window close (the
			// order contract sharded runs are differentially tested against);
			// apply the same sort to the model.
			sortTuples(want)
			got := results[0].Tuples
			if len(got) != len(want) {
				t.Fatalf("window %d: %d tuples, model says %d", window, len(got), len(want))
			}
			for i := range want {
				for j := range want[i] {
					if !got[i][j].Equal(want[i][j]) {
						t.Fatalf("window %d tuple %d: got %v, model says %v",
							window, i, got[i], want[i])
					}
				}
			}
		}
	})

	t.Run("distinct", func(t *testing.T) {
		q := query.NewBuilder("pairs", time.Second).
			Map(query.F(fields.SrcIP), query.F(fields.DstIP)).
			Distinct().
			MustBuild()
		q.ID = 2
		e := NewEngine(nil)
		if err := e.Install(q, 0, Partition{LeftStart: 1}); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(43))
		for window := 0; window < 8; window++ {
			seen := make(map[[2]uint64]bool)
			var order [][2]uint64
			n := 100 + rng.Intn(400)
			for i := 0; i < n; i++ {
				pair := [2]uint64{uint64(rng.Intn(16)), uint64(rng.Intn(16))}
				e.Instance(2, 0).IngestTuple(SideLeft,
					[]tuple.Value{tuple.U64(pair[0]), tuple.U64(pair[1])})
				if !seen[pair] {
					seen[pair] = true
					order = append(order, pair)
				}
			}
			results, _ := e.EndWindow()
			want := make([][]tuple.Value, len(order))
			for i, pair := range order {
				want[i] = []tuple.Value{tuple.U64(pair[0]), tuple.U64(pair[1])}
			}
			sortTuples(want)
			got := results[0].Tuples
			if len(got) != len(want) {
				t.Fatalf("window %d: %d tuples, model says %d", window, len(got), len(want))
			}
			for i := range want {
				if got[i][0].U != want[i][0].U || got[i][1].U != want[i][1].U {
					t.Fatalf("window %d tuple %d: got %v, model says %v",
						window, i, got[i], want[i])
				}
			}
		}
	})
}

// TestIngestSteadyStateZeroAlloc pins the tentpole's core claim: once a key
// exists in an operator's table, ingesting further tuples for it allocates
// nothing — and neither does repopulating a reset table whose storage is
// already sized (the steady-state window cycle).
func TestIngestSteadyStateZeroAlloc(t *testing.T) {
	t.Run("reduce", func(t *testing.T) {
		e := NewEngine(nil)
		if err := e.Install(query1(40), 0, Partition{LeftStart: 2}); err != nil {
			t.Fatal(err)
		}
		vals := []tuple.Value{tuple.U64(42), tuple.U64(1)}
		// Warm one full window cycle so the storage, slots, and probe scratch
		// are all sized.
		e.Instance(1, 0).IngestTuple(SideLeft, vals)
		e.EndWindow()
		e.Instance(1, 0).IngestTuple(SideLeft, vals)
		if allocs := testing.AllocsPerRun(1000, func() {
			e.Instance(1, 0).IngestTuple(SideLeft, vals)
		}); allocs != 0 {
			t.Fatalf("reduce hit allocates %.1f/op, want 0", allocs)
		}
	})

	t.Run("distinct", func(t *testing.T) {
		q := query.NewBuilder("pairs", time.Second).
			Map(query.F(fields.SrcIP), query.F(fields.DstIP)).
			Distinct().
			MustBuild()
		q.ID = 2
		e := NewEngine(nil)
		if err := e.Install(q, 0, Partition{LeftStart: 1}); err != nil {
			t.Fatal(err)
		}
		vals := []tuple.Value{tuple.U64(7), tuple.U64(9)}
		e.Instance(2, 0).IngestTuple(SideLeft, vals)
		e.EndWindow()
		e.Instance(2, 0).IngestTuple(SideLeft, vals)
		if allocs := testing.AllocsPerRun(1000, func() {
			e.Instance(2, 0).IngestTuple(SideLeft, vals)
		}); allocs != 0 {
			t.Fatalf("distinct hit allocates %.1f/op, want 0", allocs)
		}
	})
}

// TestDynContainsKeyZeroAlloc pins the copy-on-write dynamic-filter lookup:
// a packet's membership check by address, masked to the filter's level,
// takes no lock and allocates nothing.
func TestDynContainsKeyZeroAlloc(t *testing.T) {
	d := NewDynTables()
	d.Publish("t", query.NewDynSet([]tuple.Value{tuple.U64(uint64(packet.IPv4Addr(10, 0, 0, 0))), tuple.Str("tunnel.example")}))
	o := query.NewDynPacketFilter("t", fields.DstIP, 8)
	var pkt packet.Packet
	frame := packet.BuildFrame(nil, &packet.FrameSpec{SrcIP: 1, DstIP: packet.IPv4Addr(10, 1, 2, 3), Proto: 6, Pad: 60})
	if err := packet.NewParser(packet.ParserOptions{}).Parse(frame, &pkt); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		if !d.Set("t").MatchPacket(&o, &pkt) {
			t.Fatal("installed key not found")
		}
	}); allocs != 0 {
		t.Fatalf("MatchPacket allocates %.1f/op, want 0", allocs)
	}
}
