package stream

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/fields"
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

// snapshotEngineWindow closes a window on e and renders everything the
// batched path must reproduce bit-identically: result tuples (already
// deterministically sorted by the engine), the window's load metrics, and
// the per-op in/out funnels of the instance's executor (not reset here:
// no flight recorder is attached).
func snapshotEngineWindow(t *testing.T, e *Engine, key QueryKey) string {
	t.Helper()
	results, m := e.EndWindow()
	var sb strings.Builder
	fmt.Fprintf(&sb, "tuplesIn=%d perQuery=%d\n", m.TuplesIn, m.PerQuery[key])
	for _, res := range results {
		fmt.Fprintf(&sb, "q%d/%d:", res.QID, res.Level)
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
	ex := e.queries[key].left
	fmt.Fprintf(&sb, "in=%v out=%v\n", ex.inCounts, ex.outCounts)
	ex.resetCounts()
	return sb.String()
}

// TestBatchedMatchesScalarFuzz is the batched executor's randomized
// differential oracle: for every generated op chain, an identical tuple
// stream — including adversarial patterns: empty windows, all-filtered
// batches, window closes landing exactly on batch boundaries, mid-window
// register-dump merges, and explicit-entry (overflow-path) tuples — must
// produce bit-identical window snapshots from the batched engine and the
// per-tuple scalar interpreter.
func TestBatchedMatchesScalarFuzz(t *testing.T) {
	const shapes = 10
	for seed := int64(0); seed < 3*shapes; seed++ {
		shape := int(seed) % shapes
		rng := rand.New(rand.NewSource(seed))
		q := fuzzShape(rng, shape, uint16(shape+1))
		key := QueryKey{q.ID, 0}

		scalar := NewEngine(nil)
		scalar.SetScalar(true)
		batched := NewEngine(nil)
		for _, e := range []*Engine{scalar, batched} {
			if err := e.Install(q, 0, Partition{LeftStart: 2}); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}

		mergeOp, keyWidth := statefulOf(q)
		// Window sizes hit batch-boundary edges exactly and at random.
		sizes := []int{0, 1, 255, 256, 257, 512, rng.Intn(700)}
		for w, n := range sizes {
			feed := func(e *Engine) {
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
						kv := make([]tuple.Value, keyWidth)
						for j := range kv {
							kv[j] = tuple.U64(uint64(r.Intn(8)))
						}
						e.IngestAgg(q.ID, 0, SideLeft, mergeOp, kv, uint64(r.Intn(5)+1))
					case mergeOp >= 0 && r.Intn(16) == 0:
						// Collision-overflow path: explicit entry at the
						// stateful op itself, with a tuple of the width it
						// takes there.
						vals = vals[:len(q.Left.Ops[mergeOp].InSchema())]
						if !e.Instance(q.ID, 0).IngestTupleAt(SideLeft, mergeOp, vals) {
							t.Fatalf("seed %d: op %d did not take %v", seed, mergeOp, vals)
						}
					default:
						if !e.Instance(q.ID, 0).IngestTuple(SideLeft, vals) {
							t.Fatalf("seed %d: the partition point did not take %v", seed, vals)
						}
					}
				}
			}
			feed(scalar)
			feed(batched)
			want := snapshotEngineWindow(t, scalar, key)
			got := snapshotEngineWindow(t, batched, key)
			if got != want {
				t.Fatalf("seed %d shape %d window %d (n=%d) diverged:\n--- scalar\n%s--- batched\n%s",
					seed, shape, w, n, want, got)
			}
		}
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
