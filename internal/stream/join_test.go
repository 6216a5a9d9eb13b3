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

// encodeKey is the columns vals[idx...] as a map key: their String forms —
// a number in decimal, a string quoted — each closed by a comma, which no
// number holds and a quoted string holds only inside its quotes.
func encodeKey(vals []tuple.Value, idx []int) string {
	var b []byte
	for _, i := range idx {
		b = append(append(b, vals[i].String()...), ',')
	}
	return string(b)
}

// allCols is the column indices 0..n-1.
func allCols(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// oracleJoin is the window-close join as a map keyed by encodeKey strings:
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
		if k := encodeKey(out, rk); rightBy[k] == nil {
			rightBy[k] = out
		}
	}
	zero := make([]tuple.Value, len(rs))
	var out [][]tuple.Value
	for _, lo := range left {
		ro, ok := rightBy[encodeKey(lo, lk)]
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
// that passes post's filters before its map and whose join-key values a
// right output carries yields its post-map tuple, or the key values
// themselves when post has no map.
func oracleSemiJoin(q *query.Query, left []*packet.Packet, right [][]tuple.Value) [][]tuple.Value {
	rs := q.Right.OutSchema()
	var rk []int
	for _, k := range q.JoinKeys {
		rk = append(rk, rs.Index(k))
	}
	rightBy := make(map[string]bool, len(right))
	for _, out := range right {
		rightBy[encodeKey(out, rk)] = true
	}
	var out [][]tuple.Value
	post := q.Post.Ops
	for len(post) > 0 && post[0].Kind == query.OpFilter {
		post = post[1:]
	}
packets:
	for _, p := range left {
		for _, o := range q.Post.Ops[:len(q.Post.Ops)-len(post)] {
			for _, cl := range o.Clauses {
				if !cl.MatchPacket(p) {
					continue packets
				}
			}
		}
		var key []tuple.Value
		for _, f := range q.JoinKeys {
			v, _ := p.Field(f)
			key = append(key, v)
		}
		if !rightBy[encodeKey(key, allCols(len(key)))] {
			continue
		}
		if len(post) == 0 {
			out = append(out, key)
			continue
		}
		var row []tuple.Value
		for _, c := range post[0].Cols {
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
// left-outer, the packet-phase-left semi-join with and without a post map —
// behind no post filter, a numeric one or a payload match as in Zorro, and
// entered at op 0 or past the left ops — the batched executor and the
// per-tuple reference (scalar=true: the interp_ref_test.go entry points, so
// the oracle is held to the map join too), six windows per engine so the
// index is reset between windows that share and do not share keys. A batched
// semi-join runs beside the reference, whose per-op counts it must match.
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
					if err := e.Install(q, 0, Partition{LeftStart: len(q.Left.Ops), RightStart: len(q.Right.Ops)}); err != nil {
						t.Fatal(err)
					}
					rng := rand.New(rand.NewSource(int64(len(keys))*7 + 1))
					inst := e.Instance(3, 0)
					ingest, end := inst.IngestTuple, e.EndWindow
					if scalar {
						ingest, end = inst.IngestTupleRef, e.EndWindowRef
					}
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
							if !ingest(SideLeft, v) {
								t.Fatalf("left tuple %v refused", v)
							}
						}
						for _, v := range rightOuts {
							if !ingest(SideRight, v) {
								t.Fatalf("right tuple %v refused", v)
							}
						}
						results, _ := end()
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
	// The landed packets' join-key values probe the right index: one and two
	// numeric columns (raw in the index's slots), three, and four (a tagged
	// key whose first three columns often agree). The first variant is the
	// semi-join alone.
	variants := []struct {
		name  string
		post  []query.Clause
		entry bool // past the left ops, at the first post filter or the landing
	}{
		{"", nil, false},
		{"/post=len", []query.Clause{query.Gt(fields.PktLen, 150)}, false},
		{"/post=payload", []query.Clause{query.Contains(fields.Payload, "zorro")}, false},
		{"/post=payload/entry=post", []query.Clause{query.Contains(fields.Payload, "zorro")}, true},
		{"/entry=post", nil, true},
	}
	for _, keys := range [][]fields.ID{{fields.DstIP}, {fields.DstIP, fields.DstPort},
		{fields.DstIP, fields.DstPort, fields.SrcIP}, {fields.SrcPort, fields.DstPort, fields.DstIP, fields.SrcIP}} {
		for _, postMap := range []bool{false, true} {
			for _, vr := range variants {
				for _, scalar := range []bool{false, true} {
					t.Run(fmt.Sprintf("packet-left/keys=%v/map=%v%s/scalar=%v", keys, postMap, vr.name, scalar), func(t *testing.T) {
						right := query.NewBuilder("right", time.Second).
							Map(query.F(fields.DstIP), query.F(fields.DstPort), query.F(fields.SrcIP), query.F(fields.SrcPort), query.F(fields.PktLen))
						b := query.NewBuilder("semi", time.Second).
							Filter(query.Eq(fields.Proto, fields.ProtoTCP)).
							Join(right, keys...)
						if vr.post != nil {
							b = b.Filter(vr.post...)
						}
						if postMap {
							b = b.Map(query.F(fields.DstIP), query.F(fields.SrcIP), query.RoundF(fields.PktLen, 64))
						}
						q := b.MustBuild()
						q.ID = 4
						part := Partition{RightStart: len(q.Right.Ops)}
						if vr.entry {
							part.LeftStart = len(q.Left.Ops)
						}
						// The reference engine runs beside the batched one
						// only to hold its per-op counts.
						ref, e := refPair(t, q, part)
						if scalar {
							e, ref = ref, nil
						}
						var set query.FieldSet
						set.Add(fields.DstIP)
						set.Add(fields.PktLen)
						rng := rand.New(rand.NewSource(int64(len(keys))*11 + 5))
						inst := e.Instance(4, 0)
						ingest, ingestPackets, end := inst.IngestTuple, inst.IngestPackets, e.EndWindow
						if scalar {
							ingest, ingestPackets, end = inst.IngestTupleRef, inst.IngestPacketsRef, e.EndWindowRef
						}
						joined := 0
						for w, sizes := range joinSizes {
							var pkts []*packet.Packet
							for range joinSize(rng, sizes[0]) {
								p := new(packet.Packet)
								spec := &packet.FrameSpec{SrcIP: uint32(rng.Intn(3)), DstIP: uint32(rng.Intn(6)), Proto: 6,
									SrcPort: uint16(rng.Intn(2)), DstPort: uint16(rng.Intn(3)), Pad: rng.Intn(300)}
								if rng.Intn(2) == 0 {
									spec.Payload = []byte("login zorro")
								}
								if err := parser.Parse(packet.BuildFrame(nil, spec), p); err != nil {
									t.Fatal(err)
								}
								pkts = append(pkts, p)
							}
							var rightOuts [][]tuple.Value
							for range joinSize(rng, sizes[1]) {
								rightOuts = append(rightOuts, []tuple.Value{tuple.U64(uint64(rng.Intn(6))),
									tuple.U64(uint64(rng.Intn(3))), tuple.U64(uint64(rng.Intn(3))),
									tuple.U64(uint64(rng.Intn(2))), tuple.U64(uint64(rng.Intn(1000)))})
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
								ingestPackets(SideLeft, &batch, sel)
								if ref != nil {
									ref.Instance(4, 0).IngestPacketsRef(SideLeft, &batch, sel)
								}
							}
							for _, v := range rightOuts {
								if !ingest(SideRight, v) {
									t.Fatalf("right tuple %v refused", v)
								}
								if ref != nil && !ref.Instance(4, 0).IngestTupleRef(SideRight, v) {
									t.Fatalf("right tuple %v refused by the reference", v)
								}
							}
							results, m := end()
							sameTuples(t, fmt.Sprintf("window %d", w), results[0].Tuples, oracleSemiJoin(q, pkts, rightOuts))
							joined += len(results[0].Tuples)
							if ref != nil {
								_, rm := ref.EndWindowRef()
								got, want := m.Instances[0], rm.Instances[0]
								if !slices.Equal(got.OpIn, want.OpIn) || !slices.Equal(got.OpOut, want.OpOut) {
									t.Fatalf("window %d: per-op counts in=%v out=%v, the per-tuple interpreter says in=%v out=%v",
										w, got.OpIn, got.OpOut, want.OpIn, want.OpOut)
								}
							}
						}
						if joined == 0 {
							t.Fatal("vacuous: no window joined anything")
						}
					})
				}
			}
		}
	}
}

// TestJoinFirstRightRowWins: right outputs sharing a string join key — and,
// with a four-column key, sharing its first three columns — are indexed by
// their first row, whose non-key column every joined row carries.
func TestJoinFirstRightRowWins(t *testing.T) {
	for _, keys := range [][]fields.ID{{fields.DNSQName}, {fields.DstIP, fields.SrcIP, fields.SrcPort, fields.DstPort}} {
		t.Run(fmt.Sprint(keys), func(t *testing.T) {
			cols := []query.Column{query.F(fields.DNSQName), query.F(fields.DstIP), query.F(fields.SrcIP),
				query.F(fields.SrcPort), query.F(fields.DstPort)}
			right := query.NewBuilder("right", time.Second).Map(append(cols, query.F(fields.IPLen))...)
			q := query.NewBuilder("join", time.Second).Map(append(cols, query.F(fields.PktLen))...).
				Join(right, keys...).MustBuild()
			q.ID = 5
			e := NewEngine(nil)
			if err := e.Install(q, 0, Partition{LeftStart: len(q.Left.Ops), RightStart: len(q.Right.Ops)}); err != nil {
				t.Fatal(err)
			}
			row := func(name string, port, v uint64) []tuple.Value {
				return []tuple.Value{tuple.Str(name), tuple.U64(1), tuple.U64(2), tuple.U64(3), tuple.U64(port), tuple.U64(v)}
			}
			inst := e.Instance(5, 0)
			for _, v := range [][]tuple.Value{row("a.example", 80, 7), row("a.example", 80, 8), row("b.example", 81, 9), row("a.example", 80, 10)} {
				if !inst.IngestTuple(SideRight, v) {
					t.Fatalf("right tuple %v refused", v)
				}
			}
			if !inst.IngestTuple(SideLeft, row("a.example", 80, 100)) {
				t.Fatal("left tuple refused")
			}
			results, _ := e.EndWindow()
			got := results[0].Tuples
			if len(got) != 1 || got[0][len(got[0])-1] != tuple.U64(7) {
				t.Fatalf("joined %v, want one row carrying the first right row's 7", got)
			}
		})
	}
}
