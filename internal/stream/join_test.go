package stream

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/fields"
	"repro/internal/packet"
	"repro/internal/query"
	"repro/internal/tuple"
)

// oracleJoin is the window-close join as a map keyed by tuple.Key strings:
// right outputs by join key, the first of equal keys kept; each left output
// joined with its match — or, left-outer, with zeros — as keys, left
// non-keys, right non-keys.
func oracleJoin(q *query.Query, left, right [][]tuple.Value) [][]tuple.Value {
	ls, rs := q.Left.OutSchema(), q.Right.OutSchema()
	var lk, rk []int
	for _, k := range q.JoinKeys {
		lk, rk = append(lk, ls.Index(k)), append(rk, rs.Index(k))
	}
	rightBy := make(map[string][]tuple.Value, len(right))
	for _, out := range right {
		if k := tuple.Key(out, rk); rightBy[k] == nil {
			rightBy[k] = out
		}
	}
	zero := make([]tuple.Value, len(rs))
	var out [][]tuple.Value
	for _, lo := range left {
		ro, ok := rightBy[tuple.Key(lo, lk)]
		if !ok {
			if !q.JoinOuter {
				continue
			}
			ro = zero
		}
		var joined []tuple.Value
		for _, i := range lk {
			joined = append(joined, lo[i])
		}
		for i := range lo {
			if !slices.Contains(lk, i) {
				joined = append(joined, lo[i])
			}
		}
		for i := range ro {
			if !slices.Contains(rk, i) {
				joined = append(joined, ro[i])
			}
		}
		out = append(out, joined)
	}
	return out
}

// oracleSemiJoin is the packet-phase-left join as a map: each left packet
// whose join-key values a right output carries yields its post-map tuple, or
// the key values themselves when post has no map.
func oracleSemiJoin(q *query.Query, left []*packet.Packet, right [][]tuple.Value) [][]tuple.Value {
	rs := q.Right.OutSchema()
	var rk []int
	for _, k := range q.JoinKeys {
		rk = append(rk, rs.Index(k))
	}
	rightBy := make(map[string]bool, len(right))
	for _, out := range right {
		rightBy[tuple.Key(out, rk)] = true
	}
	var out [][]tuple.Value
	for _, p := range left {
		var key []tuple.Value
		for _, f := range q.JoinKeys {
			v, _ := p.Field(f)
			key = append(key, v)
		}
		if !rightBy[tuple.Key(key, identityCols(len(key)))] {
			continue
		}
		if len(q.Post.Ops) == 0 {
			out = append(out, key)
			continue
		}
		var row []tuple.Value
		for _, c := range q.Post.Ops[0].Cols {
			v, _ := c.Expr.EvalPacket(p)
			row = append(row, v)
		}
		out = append(out, row)
	}
	return out
}

// joinSizes cycles each engine's windows through every emptiness case; n
// marks a random size.
var joinSizes = [][2]int{{-1, -1}, {0, -1}, {-1, 0}, {-1, -1}, {0, 0}, {-1, -1}}

func joinSize(rng *rand.Rand, n int) int {
	if n < 0 {
		return 1 + rng.Intn(48)
	}
	return n
}

func sameTuples(t *testing.T, what string, got, want [][]tuple.Value) {
	t.Helper()
	want = slices.Clone(want)
	sortTuples(want)
	if len(got) != len(want) {
		t.Fatalf("%s: %d tuples, oracle says %d\ngot  %v\nwant %v", what, len(got), len(want), got, want)
	}
	for i := range want {
		if compareTuples(got[i], want[i]) != 0 {
			t.Fatalf("%s: tuple %d is %v, oracle says %v", what, i, got[i], want[i])
		}
	}
}

// TestJoinMatchesMapOracle drives the window-close join — the right side
// indexed in a reused keytab, left outputs probing it into a scratch row —
// over random outputs of both sides, and checks every window's results
// against the map-based join: numeric, string (DNS-name) and multi-column
// keys, duplicate right keys (the first wins), empty sides, inner and
// left-outer, the packet-phase-left semi-join with and without a post map,
// scalar and batched executors, six windows per engine so the index is
// reset between windows that share and do not share keys.
func TestJoinMatchesMapOracle(t *testing.T) {
	names := []string{"a.example.com", "b.example.com", "c.example.org", "x.y"}
	sideTuple := func(rng *rand.Rand) []tuple.Value {
		return []tuple.Value{tuple.Str(names[rng.Intn(len(names))]), tuple.U64(uint64(rng.Intn(6))),
			tuple.U64(uint64(rng.Intn(3))), tuple.U64(uint64(rng.Intn(1000)))}
	}
	keySets := [][]fields.ID{{fields.DstIP}, {fields.DNSQName}, {fields.DstIP, fields.SrcPort}, {fields.DNSQName, fields.DstIP}}
	for _, keys := range keySets {
		for _, outer := range []bool{false, true} {
			for _, scalar := range []bool{false, true} {
				t.Run(fmt.Sprintf("keys=%v/outer=%v/scalar=%v", keys, outer, scalar), func(t *testing.T) {
					right := query.NewBuilder("right", time.Second).
						Map(query.F(fields.DNSQName), query.F(fields.DstIP), query.F(fields.SrcPort), query.F(fields.IPLen))
					b := query.NewBuilder("join", time.Second).
						Map(query.F(fields.DNSQName), query.F(fields.DstIP), query.F(fields.SrcPort), query.F(fields.PktLen))
					if outer {
						b = b.OuterJoin(right, keys...)
					} else {
						b = b.Join(right, keys...)
					}
					q := b.MustBuild()
					q.ID = 3
					e := NewEngine(nil)
					e.SetScalar(scalar)
					if err := e.Install(q, 0, Partition{LeftStart: len(q.Left.Ops), RightStart: len(q.Right.Ops)}); err != nil {
						t.Fatal(err)
					}
					rng := rand.New(rand.NewSource(int64(len(keys))*7 + 1))
					inst := e.Instance(3, 0)
					joined := 0
					for w, sizes := range joinSizes {
						var left, rightOuts [][]tuple.Value
						for range joinSize(rng, sizes[0]) {
							left = append(left, sideTuple(rng))
						}
						for range joinSize(rng, sizes[1]) {
							rightOuts = append(rightOuts, sideTuple(rng))
						}
						for _, v := range left {
							if !inst.IngestTuple(SideLeft, v) {
								t.Fatalf("left tuple %v refused", v)
							}
						}
						for _, v := range rightOuts {
							if !inst.IngestTuple(SideRight, v) {
								t.Fatalf("right tuple %v refused", v)
							}
						}
						results, _ := e.EndWindow()
						sameTuples(t, fmt.Sprintf("window %d", w), results[0].Tuples, oracleJoin(q, left, rightOuts))
						joined += len(results[0].Tuples)
						if !slices.EqualFunc(results[0].LeftOutputs, left, slices.Equal) ||
							!slices.EqualFunc(results[0].RightOutputs, rightOuts, slices.Equal) {
							t.Fatalf("window %d: pre-join outputs are not the ingested tuples", w)
						}
					}
					if joined == 0 {
						t.Fatal("vacuous: no window joined anything")
					}
				})
			}
		}
	}

	parser := packet.NewParser(packet.ParserOptions{})
	for _, keys := range [][]fields.ID{{fields.DstIP}, {fields.DstIP, fields.DstPort}} {
		for _, postMap := range []bool{false, true} {
			for _, scalar := range []bool{false, true} {
				t.Run(fmt.Sprintf("packet-left/keys=%v/map=%v/scalar=%v", keys, postMap, scalar), func(t *testing.T) {
					right := query.NewBuilder("right", time.Second).
						Map(query.F(fields.DstIP), query.F(fields.DstPort), query.F(fields.PktLen))
					b := query.NewBuilder("semi", time.Second).
						Filter(query.Eq(fields.Proto, fields.ProtoTCP)).
						Join(right, keys...)
					if postMap {
						b = b.Map(query.F(fields.DstIP), query.F(fields.SrcIP), query.RoundF(fields.PktLen, 64))
					}
					q := b.MustBuild()
					q.ID = 4
					e := NewEngine(nil)
					e.SetScalar(scalar)
					if err := e.Install(q, 0, Partition{RightStart: len(q.Right.Ops)}); err != nil {
						t.Fatal(err)
					}
					var set query.FieldSet
					set.Add(fields.DstIP)
					set.Add(fields.PktLen)
					rng := rand.New(rand.NewSource(int64(len(keys))*11 + 5))
					inst := e.Instance(4, 0)
					joined := 0
					for w, sizes := range joinSizes {
						var pkts []*packet.Packet
						for range joinSize(rng, sizes[0]) {
							p := new(packet.Packet)
							frame := packet.BuildFrame(nil, &packet.FrameSpec{SrcIP: uint32(rng.Intn(9)),
								DstIP: uint32(rng.Intn(6)), Proto: 6, DstPort: uint16(rng.Intn(3)), Pad: rng.Intn(300)})
							if err := parser.Parse(frame, p); err != nil {
								t.Fatal(err)
							}
							pkts = append(pkts, p)
						}
						var rightOuts [][]tuple.Value
						for range joinSize(rng, sizes[1]) {
							rightOuts = append(rightOuts, []tuple.Value{tuple.U64(uint64(rng.Intn(6))),
								tuple.U64(uint64(rng.Intn(3))), tuple.U64(uint64(rng.Intn(1000)))})
						}
						// Two batches per window: one with extracted columns for
						// some of the fields read, one without any.
						for half, lo := range []int{0, len(pkts) / 2} {
							hi := len(pkts)
							if half == 0 {
								hi = len(pkts) / 2
							}
							batch := query.PacketBatch{Pkts: pkts[lo:hi]}
							sel := tuple.SelAll(nil, hi-lo)
							if half == 0 {
								batch.Extract(&set, sel)
							}
							inst.IngestPackets(SideLeft, &batch, sel)
						}
						for _, v := range rightOuts {
							if !inst.IngestTuple(SideRight, v) {
								t.Fatalf("right tuple %v refused", v)
							}
						}
						results, _ := e.EndWindow()
						sameTuples(t, fmt.Sprintf("window %d", w), results[0].Tuples, oracleSemiJoin(q, pkts, rightOuts))
						joined += len(results[0].Tuples)
					}
					if joined == 0 {
						t.Fatal("vacuous: no window joined anything")
					}
				})
			}
		}
	}
}
