// Package planner implements Sonata's query planner: it augments queries
// for dynamic refinement and decides the keys each refinement level hands
// down to the next (Section 4.1), estimates per-table workload costs from
// training traffic (Section 3.3), and chooses joint partitioning and
// refinement plans under the switch's resource constraints (Sections 3.3
// and 4.2): a greedy packing first, then a pairwise-swap search from the
// greedy's plan that moves only to plans pisa.Program.Place places.
package planner

import (
	"fmt"

	"repro/internal/fields"
	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/tuple"
)

// LevelStar denotes "no previous level": the coarsest instance of a query
// observes all traffic.
const LevelStar = 0

// DynTableName names the dynamic filter table installed at a refinement
// level of a query: the runtime loads it with the keys the previous level
// reported. Both the switch and the stream processor resolve the same name.
func DynTableName(qid uint16, level int) string {
	return fmt.Sprintf("q%d.r%d", qid, level)
}

// Thresholds carries the relaxed threshold values for one refinement level
// of a query (Section 4.1: "relaxed threshold values for coarser refinement
// levels that do not sacrifice accuracy").
type Thresholds struct {
	// Left / Right apply to the final filter of the corresponding pipeline;
	// nil means "keep the original".
	Left  *uint64
	Right *uint64
}

// AugmentQuery builds the refinement-level instance of q per Figure 4:
//
//   - every map output naming the refinement key is masked to the level,
//   - when prev != LevelStar, a dynamic filter on the key at the previous
//     level is prepended to each packet-phase pipeline, and
//   - final threshold filters are relaxed to the training-derived values.
//
// The returned query shares q's ID; the caller distinguishes instances by
// level.
func AugmentQuery(q *query.Query, key query.RefinementKey, prev, level int, th Thresholds) *query.Query {
	aug := q.Clone()
	for s, p := range sides(aug) {
		maskPipeline(p, key, level)
		relaxFinalFilter(p, [2]*uint64{th.Left, th.Right}[s])
	}
	if prev != LevelStar {
		dyn := query.NewDynPacketFilter(DynTableName(q.ID, level), key.Field, prev)
		for _, p := range sides(aug) {
			p.Ops = append([]query.Op{dyn}, p.Ops...)
		}
	}
	return aug
}

// KeyedRows is one side of a level's window output: its rows, and the
// refinement key's column in them (-1 when the side does not carry the key).
type KeyedRows struct {
	Rows [][]tuple.Value
	Col  int
}

// HandDown is the refinement rule (Section 4.1), which the runtime's window
// close (Link.Keys) and training's satisfying sets both apply: it appends to
// dst the keys, masked to level, that one window's output of a query at that
// level hands down as what its next finer level admits. A query without a
// join has one side, its results, whose keys pass through, duplicates
// included. A join has one side per sub-pipeline; a side votes when it
// carries the key column and output rows this window, and the join keeps,
// once each, the keys every voting side output. The post-join condition (a
// payload keyword, say) must not gate refinement, or the victim would never
// be zoomed in on. seen is a join's scratch.
func HandDown(dst []tuple.Value, seen map[tuple.Value]int, key fields.ID, level int, sides ...KeyedRows) []tuple.Value {
	if len(sides) == 1 {
		if s := sides[0]; s.Col >= 0 {
			for _, row := range s.Rows {
				dst = append(dst, query.MaskValue(key, row[s.Col], level))
			}
		}
		return dst
	}
	clear(seen)
	voters := 0 // seen[k] is the number of voting sides so far that output k
	for _, s := range sides {
		if s.Col < 0 || len(s.Rows) == 0 {
			continue
		}
		voters++
		for _, row := range s.Rows {
			if k := query.MaskValue(key, row[s.Col], level); seen[k] == voters-1 {
				seen[k] = voters
			}
		}
	}
	for k, n := range seen {
		if n == voters {
			dst = append(dst, k)
		}
	}
	return dst
}

// Link is one dynamic-refinement edge of a plan: the window results of query
// QID at level From decide which keys its level To admits next window,
// through the table Table of the dynamic filter AugmentQuery put at op 0 of
// level To's pipelines. A Link serves one caller: Keys reuses its scratch.
type Link struct {
	QID      uint16
	From, To uint8
	Table    string
	// Slot is level To's position in the plan's installation order: its
	// queries in order, each one's levels coarse to fine.
	Slot int
	// HasRight reports that level To has a right (joined) pipeline.
	HasRight bool
	key      fields.ID
	// cols are the key's column in each side level From outputs: its results
	// without a join, its left and right sub-pipeline outputs with one.
	cols []int
	buf  []tuple.Value
	seen map[tuple.Value]int // HandDown's scratch at a join; nil without one
}

// Links derives the plan's refinement links, in installation order. A level
// whose results lack the refinement key cannot gate the next one.
func (p *Plan) Links() ([]Link, error) {
	var links []Link
	slot := 0 // of the query's first level
	for _, qp := range p.Queries {
		f := qp.Key.Field
		for li := 0; li+1 < len(qp.Levels); li++ {
			lp, next := &qp.Levels[li], &qp.Levels[li+1]
			col := lp.Aug.FinalSchema().Index(f)
			if col < 0 {
				return nil, fmt.Errorf("planner: q%d level %d: refinement key %s missing from result schema %s",
					qp.Query.ID, lp.Level, f, lp.Aug.FinalSchema())
			}
			l := Link{QID: qp.Query.ID, From: uint8(lp.Level), To: uint8(next.Level),
				Table: DynTableName(qp.Query.ID, next.Level), Slot: slot + li + 1,
				HasRight: next.Right != nil, key: f, cols: []int{col}}
			if lp.Aug.HasJoin() {
				l.cols, l.seen = []int{keyColumnOf(lp.Aug.Left, f), keyColumnOf(lp.Aug.Right, f)}, make(map[tuple.Value]int)
			}
			links = append(links, l)
		}
		slot += len(qp.Levels)
	}
	return links, nil
}

// Keys returns the keys level From's results this window hand down to level
// To (HandDown), valid until the next call.
func (l *Link) Keys(results []stream.Result) []tuple.Value {
	l.buf = l.buf[:0]
	for i := range results {
		res := &results[i]
		if res.QID != l.QID || res.Level != l.From {
			continue
		}
		out := [2]KeyedRows{{res.Tuples, l.cols[0]}}
		if l.seen != nil {
			out = [2]KeyedRows{{res.LeftOutputs, l.cols[0]}, {res.RightOutputs, l.cols[1]}}
		}
		l.buf = HandDown(l.buf, l.seen, l.key, int(l.From), out[:len(l.cols)]...)
	}
	return l.buf
}

// maskPipeline rewrites every map column that extracts the refinement key
// to mask it at the level. Masking to the key's maximum level is the
// identity, so the finest instance keeps its original semantics.
func maskPipeline(p *query.Pipeline, key query.RefinementKey, level int) {
	if level >= key.MaxLevel {
		return
	}
	for i := range p.Ops {
		o := &p.Ops[i]
		if o.Kind != query.OpMap {
			continue
		}
		for c := range o.Cols {
			col := &o.Cols[c]
			if col.Name != key.Field {
				continue
			}
			if col.Expr.Kind == query.ExprMask {
				// Already masked (shouldn't happen on originals); tighten.
				if col.Expr.Level > level {
					col.Expr.Level = level
				}
				continue
			}
			sub := col.Expr
			col.Expr = query.Expr{Kind: query.ExprMask, Field: key.Field, Level: level, Sub: &sub}
		}
	}
}

// relaxFinalFilter lowers the final threshold filter of a pipeline to the
// given value. Only a trailing filter whose clauses are Gt/Ge on numeric
// columns qualifies; anything else is left alone. The relaxed value is the
// minimum aggregate observed over satisfying keys, so the comparison
// becomes >= — keeping a strict > would reject exactly the minimal key the
// training run said must pass.
func relaxFinalFilter(p *query.Pipeline, th *uint64) {
	op := finalThresholdOp(p)
	if th == nil || op == nil {
		return
	}
	for i := range op.Clauses {
		op.Clauses[i].Cmp = query.CmpGe
		op.Clauses[i].Arg.U = *th
	}
}

// finalThresholdOp returns the pipeline's trailing threshold filter, or nil.
func finalThresholdOp(p *query.Pipeline) *query.Op {
	if p == nil || len(p.Ops) == 0 {
		return nil
	}
	op := &p.Ops[len(p.Ops)-1]
	if op.Kind != query.OpFilter || op.DynFilterTable != "" || op.PacketPhase() {
		return nil
	}
	for i := range op.Clauses {
		if c := op.Clauses[i].Cmp; c != query.CmpGt && c != query.CmpGe {
			return nil
		}
		if op.Clauses[i].Arg.Str {
			return nil
		}
	}
	return op
}

// disableFinalFilter returns a copy of the pipeline with its trailing
// threshold filter opened wide (>= 0), used during training to observe the
// aggregate values that reach the filter.
func disableFinalFilter(p *query.Pipeline) *query.Pipeline {
	op := finalThresholdOp(p)
	if op == nil {
		return p
	}
	c := &query.Pipeline{Ops: append([]query.Op(nil), p.Ops...)}
	last := c.Ops[len(c.Ops)-1].Clone()
	for i := range last.Clauses {
		last.Clauses[i].Cmp = query.CmpGe
		last.Clauses[i].Arg.U = 0
	}
	c.Ops[len(c.Ops)-1] = *last
	return c
}

// thresholdColumn returns the column index the pipeline's final threshold
// filter tests (-1 when there is none).
func thresholdColumn(p *query.Pipeline) int {
	op := finalThresholdOp(p)
	if op == nil || len(op.Clauses) == 0 {
		return -1
	}
	return op.Clauses[0].Col
}

// keyColumnOf locates the refinement key column in the pipeline's final
// schema (-1 when absent).
func keyColumnOf(p *query.Pipeline, key fields.ID) int {
	s := p.OutSchema()
	if s == nil {
		return -1
	}
	return s.Index(key)
}
