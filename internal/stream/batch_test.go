package stream

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/fields"
	"repro/internal/packet"
	"repro/internal/query"
	"repro/internal/tuple"
)

// fuzzShape builds one randomized query whose switch-side prefix
// (filter+map, entered past via LeftStart=2) feeds a tuple-phase suffix
// exercising a particular op-chain pattern. The tuple entry schema is
// always [SrcIP, DstIP, ConstV] (width 3). Parameters — thresholds, mask
// levels, aggregation functions, constants — are drawn from rng, so each
// seed explores a different chain.
func fuzzShape(rng *rand.Rand, shape int, id uint16) *query.Query {
	aggs := []query.AggFunc{query.AggSum, query.AggMax, query.AggMin}
	agg := aggs[rng.Intn(len(aggs))]
	// Thresholds from a spread of regimes: pass-most, pass-some, pass-none.
	ths := []uint64{0, 2, 5, 1 << 40}
	th := ths[rng.Intn(len(ths))]
	lvl := 8 * (1 + rng.Intn(4)) // /8 .. /32 prefix masks
	c := uint64(1 + rng.Intn(3))

	b := query.NewBuilder(fmt.Sprintf("fuzz%d", shape), time.Second).
		Filter(query.Eq(fields.TCPFlags, fields.FlagSYN)).
		Map(query.F(fields.SrcIP), query.F(fields.DstIP), query.ConstCol(1))
	switch shape {
	case 0: // stateless passthrough tail
	case 1: // single filter tail (all-filtered when th is huge)
		b = b.Filter(query.Gt(fields.SrcIP, th))
	case 2: // filter, re-map, reduce, threshold
		b = b.Filter(query.MaskEq(fields.SrcIP, 3, uint64(rng.Intn(4)))).
			Map(query.C(fields.DstIP), query.ConstCol(c)).
			Reduce(query.AggSum, fields.DstIP).
			Filter(query.Gt(fields.AggVal, th))
	case 3: // two-key reduce straight off the entry schema
		b = b.Reduce(agg, fields.SrcIP, fields.DstIP)
	case 4: // distinct then count distinct per key
		b = b.Distinct().
			Map(query.C(fields.SrcIP), query.ConstCol(1)).
			Reduce(query.AggSum, fields.SrcIP)
	case 5: // mask map then reduce (prefix aggregation)
		b = b.Map(query.MaskC(fields.SrcIP, lvl), query.C(fields.DstIP), query.ConstCol(1)).
			Reduce(agg, fields.SrcIP, fields.DstIP)
	case 6: // ratio map then threshold filter (ExprRatio incl. zero divisor)
		b = b.Map(query.C(fields.SrcIP), query.Ratio(fields.SrcIP, fields.DstIP, 100)).
			Filter(query.Ge(fields.AggVal, th))
	case 7: // diff map then max-reduce (ExprDiff saturation)
		b = b.Map(query.C(fields.SrcIP), query.Diff(fields.SrcIP, fields.DstIP)).
			Reduce(query.AggMax, fields.SrcIP)
	case 8: // filter then distinct tail
		b = b.Filter(query.Le(fields.DstIP, th)).Distinct()
	case 9: // chained filters with a shift-round bucket map between
		roundC := query.Column{Name: fields.SrcIP, Expr: query.Expr{
			Kind: query.ExprShiftRound, Shift: uint(1 + rng.Intn(3)),
			Sub: &query.Expr{Kind: query.ExprCol, Field: fields.SrcIP},
		}}
		b = b.Filter(query.Ne(fields.SrcIP, uint64(rng.Intn(8)))).
			Map(roundC, query.C(fields.DstIP), query.ConstCol(c)).
			Filter(query.Lt(fields.ConstV, c+1)).
			Reduce(query.AggSum, fields.SrcIP, fields.DstIP)
	}
	q := b.MustBuild()
	q.ID = id
	return q
}

// statefulOf returns the index and key width of the first stateful op in
// the left pipeline, or -1 when the chain is stateless.
func statefulOf(q *query.Query) (int, int) {
	for i := range q.Left.Ops {
		o := &q.Left.Ops[i]
		if o.Kind == query.OpReduce || o.Kind == query.OpDistinct {
			return i, len(o.KeyCols)
		}
	}
	return -1, 0
}

// snapshotEngineWindow closes a window on e — through the batched close, or
// the per-tuple reference's when ref is set — and renders everything the
// batched path must reproduce bit-identically: result tuples (already
// deterministically sorted by the engine), the window's load metrics, and
// the instance's per-op in/out funnels. It also returns the result count.
func snapshotEngineWindow(t *testing.T, e *Engine, key QueryKey, ref bool) (string, int) {
	t.Helper()
	end := e.EndWindow
	if ref {
		end = e.EndWindowRef
	}
	results, m := end()
	var sb strings.Builder
	n := 0
	st := m.Instances[slices.Index(e.order, key)]
	fmt.Fprintf(&sb, "tuplesIn=%d perQuery=%d\n", m.TuplesIn, st.TuplesIn)
	for _, res := range results {
		fmt.Fprintf(&sb, "q%d/%d:", res.QID, res.Level)
		n += len(res.Tuples)
		for _, tp := range res.Tuples {
			sb.WriteString(" [")
			for j, v := range tp {
				if j > 0 {
					sb.WriteByte(',')
				}
				sb.WriteString(v.String())
			}
			sb.WriteByte(']')
		}
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "in=%v out=%v\n", st.OpIn, st.OpOut)
	return sb.String(), n
}

// endedCount flushes e's batch and returns how many rows or packets have
// fallen off the end of key's left pipeline this window — the count the
// profiler reports as OutAfter[len(ops)] and InstanceStats does not carry.
// The close starts with the same flush.
func endedCount(e *Engine, key QueryKey) uint64 {
	ex := e.queries[key].left
	ex.flushBatch()
	return ex.outCounts[len(ex.ops)]
}

// compareWindow closes a window on the reference engine and on the batched
// one and fails when anything differs; it returns the window's results.
// When ended is set it first compares the two endedCounts, which flushes the
// batch; otherwise the close meets whatever rows are still buffered.
func compareWindow(t *testing.T, ref, batched *Engine, key QueryKey, what string, ended bool) int {
	t.Helper()
	if ended {
		if want, got := endedCount(ref, key), endedCount(batched, key); got != want {
			t.Fatalf("%s: %d rows ended the pipeline, the per-tuple interpreter says %d", what, got, want)
		}
	}
	want, _ := snapshotEngineWindow(t, ref, key, true)
	got, n := snapshotEngineWindow(t, batched, key, false)
	if got != want {
		t.Fatalf("%s diverged:\n--- scalar\n%s--- batched\n%s", what, want, got)
	}
	return n
}

// refPair installs q at part on two engines sharing one set of dynamic
// filter tables: the per-tuple reference's (first) and the batched
// executor's.
func refPair(t *testing.T, q *query.Query, part Partition) (ref, batched *Engine) {
	t.Helper()
	dyn := NewDynTables()
	ref, batched = NewEngine(dyn), NewEngine(dyn)
	for _, e := range []*Engine{ref, batched} {
		if err := e.Install(q, 0, part); err != nil {
			t.Fatal(err)
		}
	}
	return ref, batched
}

// randomKey is a register dump's key for a grouping key of width n.
func randomKey(r *rand.Rand, n int) []tuple.Value {
	kv := make([]tuple.Value, n)
	for j := range kv {
		kv[j] = tuple.U64(uint64(r.Intn(8)))
	}
	return kv
}

// fuzzDynTable names the rule set of the filter dynamicFilter prepends.
const fuzzDynTable = "fuzz.dyn"

// dynamicFilter returns q with a dynamic filter on SrcIP at /32, probing
// fuzzDynTable, prepended to its left pipeline, as query augmentation
// prepends one to every finer refinement level.
func dynamicFilter(q *query.Query) *query.Query {
	dq, left := *q, *q.Left
	left.Ops = append([]query.Op{query.NewDynPacketFilter(fuzzDynTable, fields.SrcIP, 32)}, q.Left.Ops...)
	dq.Left = &left
	return &dq
}

// fuzzPacketBatches are the packet axis' batch lengths: empty, one, and
// either side of a selection word and of the column batch's capacity.
var fuzzPacketBatches = []int{0, 1, 63, 64, 65, 256, 257}

// TestBatchedMatchesScalarFuzz is the batched executor's randomized
// differential oracle: for every generated op chain, an identical tuple
// stream — including adversarial patterns: empty windows, all-filtered
// batches, window closes landing exactly on batch boundaries, mid-window
// register-dump merges, and explicit-entry (overflow-path) tuples — must
// produce bit-identical window snapshots from the batched engine and the
// per-tuple interpreter (interp_ref_test.go), and so must the number of rows
// that fell off the pipeline's end. The pipeline-end counts are compared on
// odd windows only, since reading them flushes the batch: even windows close
// with rows still buffered. A packet axis installs the same chains at op 0
// and feeds frames — SYN and not, over small address ranges — through
// IngestPackets in batches of fuzzPacketBatches' lengths, every other batch
// with extracted field columns and a random selection, so the packet-phase
// kernels and the landing map are held against per-packet ingest too. The
// last round of seeds gates the packet axis with a dynamic filter whose rule
// set changes every window (dynamicFilter), and some window of that round
// must admit some of its packets but not all.
func TestBatchedMatchesScalarFuzz(t *testing.T) {
	const shapes = 10
	parser := packet.NewParser(packet.ParserOptions{})
	pktResults, gated := 0, false
	for seed := int64(0); seed < 4*shapes; seed++ {
		shape := int(seed) % shapes
		rng := rand.New(rand.NewSource(seed))
		q := fuzzShape(rng, shape, uint16(shape+1))
		key := QueryKey{q.ID, 0}
		scalar, batched := refPair(t, q, Partition{LeftStart: 2})

		mergeOp, keyWidth := statefulOf(q)
		// Window sizes hit batch-boundary edges exactly and at random.
		sizes := []int{0, 1, 255, 256, 257, 512, rng.Intn(700)}
		for w, n := range sizes {
			feed := func(e *Engine, ref bool) {
				inst := e.Instance(q.ID, 0)
				ingest, ingestAt := inst.IngestTuple, inst.IngestTupleAt
				if ref {
					ingest, ingestAt = inst.IngestTupleRef, inst.IngestTupleAtRef
				}
				r := rand.New(rand.NewSource(seed*1000 + int64(w)))
				for i := 0; i < n; i++ {
					vals := []tuple.Value{
						tuple.U64(uint64(r.Intn(8))),
						tuple.U64(uint64(r.Intn(4))),
						tuple.U64(1),
					}
					switch {
					case mergeOp >= 0 && r.Intn(16) == 0:
						// Register-dump merge into the stateful op.
						kv := randomKey(r, keyWidth)
						if !inst.IngestAgg(SideLeft, mergeOp, kv, uint64(r.Intn(5)+1)) {
							t.Fatalf("seed %d: op %d did not merge %v", seed, mergeOp, kv)
						}
					case mergeOp >= 0 && r.Intn(16) == 0:
						// Collision-overflow path: explicit entry at the
						// stateful op itself, with a tuple of the width it
						// takes there.
						vals = vals[:len(q.Left.Ops[mergeOp].InSchema())]
						if !ingestAt(SideLeft, mergeOp, vals) {
							t.Fatalf("seed %d: op %d did not take %v", seed, mergeOp, vals)
						}
					default:
						if !ingest(SideLeft, vals) {
							t.Fatalf("seed %d: the partition point did not take %v", seed, vals)
						}
					}
				}
			}
			feed(scalar, true)
			feed(batched, false)
			compareWindow(t, scalar, batched, key, fmt.Sprintf("seed %d shape %d window %d (n=%d)", seed, shape, w, n), w%2 == 1)
		}

		// The packet axis.
		dynamic := seed >= 3*shapes
		if dynamic {
			q = dynamicFilter(q)
			mergeOp, keyWidth = statefulOf(q)
		}
		scalar, batched = refPair(t, q, Partition{})
		var set query.FieldSet
		set.AddOps(q.Left.Ops)
		for w := range 3 {
			r := rand.New(rand.NewSource(seed*1000 + 100 + int64(w)))
			if dynamic {
				// A fresh rule set each window: about half of SrcIP's range.
				var keys []tuple.Value
				for ip := range uint64(8) {
					if r.Intn(2) == 0 {
						keys = append(keys, tuple.U64(ip))
					}
				}
				batched.Dyn().Publish(fuzzDynTable, query.NewDynSet(keys))
			}
			for b := range fuzzPacketBatches {
				n := fuzzPacketBatches[(b+w)%len(fuzzPacketBatches)]
				pkts := make([]*packet.Packet, n)
				for i := range pkts {
					flags := uint8(fields.FlagSYN)
					if r.Intn(3) == 0 {
						flags = fields.FlagACK
					}
					frame := packet.BuildFrame(nil, &packet.FrameSpec{SrcIP: uint32(r.Intn(8)),
						DstIP: uint32(r.Intn(4)), Proto: 6, TCPFlags: flags, Pad: 60})
					pkts[i] = new(packet.Packet)
					if err := parser.Parse(frame, pkts[i]); err != nil {
						t.Fatal(err)
					}
				}
				sel := tuple.SelAll(nil, n)
				batch := query.PacketBatch{Pkts: pkts}
				if (b+w)%2 == 0 {
					for i := range n {
						if r.Intn(8) == 0 {
							sel[i>>6] &^= 1 << uint(i&63)
						}
					}
					batch.Extract(&set, sel)
				}
				scalar.Instance(q.ID, 0).IngestPacketsRef(SideLeft, &batch, sel)
				batched.Instance(q.ID, 0).IngestPackets(SideLeft, &batch, sel)
				if mergeOp >= 0 && r.Intn(2) == 0 {
					kv, agg := randomKey(r, keyWidth), uint64(r.Intn(5)+1)
					for _, e := range []*Engine{scalar, batched} {
						if !e.Instance(q.ID, 0).IngestAgg(SideLeft, mergeOp, kv, agg) {
							t.Fatalf("seed %d: op %d did not merge %v", seed, mergeOp, kv)
						}
					}
				}
			}
			if ex := batched.queries[key].left; dynamic && ex.outCounts[0] > 0 && ex.outCounts[0] < ex.inCounts[0] {
				gated = true
			}
			pktResults += compareWindow(t, scalar, batched, key, fmt.Sprintf("seed %d shape %d packet window %d", seed, shape, w), w%2 == 1)
		}
	}
	if pktResults == 0 {
		t.Fatal("vacuous: no packet window produced a result")
	}
	if !gated {
		t.Fatal("vacuous: no dynamic filter window admitted some packets but not all")
	}
}

// TestBatchedIngestSteadyStateZeroAlloc pins the batched ingest path's
// steady-state allocation behaviour: after warm-up, buffering tuples and
// flushing through filter+map+reduce must not allocate.
func TestBatchedIngestSteadyStateZeroAlloc(t *testing.T) {
	q := query.NewBuilder("zb", time.Second).
		Filter(query.Eq(fields.TCPFlags, fields.FlagSYN)).
		Map(query.F(fields.SrcIP), query.F(fields.DstIP), query.ConstCol(1)).
		Filter(query.Le(fields.SrcIP, 1<<32)).
		Map(query.C(fields.DstIP), query.ConstCol(1)).
		Reduce(query.AggSum, fields.DstIP).
		Filter(query.Gt(fields.AggVal, 1<<40)).
		MustBuild()
	q.ID = 1
	e := NewEngine(nil)
	if err := e.Install(q, 0, Partition{LeftStart: 2}); err != nil {
		t.Fatal(err)
	}
	vals := []tuple.Value{tuple.U64(5), tuple.U64(9), tuple.U64(1)}
	// Warm-up: grow batch columns, map buffers, bulk scratch, keytab.
	for w := 0; w < 3; w++ {
		for i := 0; i < 600; i++ {
			vals[0] = tuple.U64(uint64(i % 32))
			e.Instance(1, 0).IngestTuple(SideLeft, vals)
		}
		e.EndWindow()
	}
	avg := testing.AllocsPerRun(200, func() {
		for i := 0; i < 600; i++ {
			vals[0] = tuple.U64(uint64(i % 32))
			e.Instance(1, 0).IngestTuple(SideLeft, vals)
		}
	})
	if avg > 0 {
		t.Errorf("batched ingest allocated %.2f allocs per 600-tuple run, want 0", avg)
	}
	e.EndWindow()
}
