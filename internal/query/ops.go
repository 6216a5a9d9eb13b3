package query

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/fields"
	"repro/internal/tuple"
)

// OpKind enumerates the dataflow operators.
type OpKind uint8

const (
	OpFilter OpKind = iota
	OpMap
	OpReduce
	OpDistinct
)

func (k OpKind) String() string {
	switch k {
	case OpFilter:
		return "filter"
	case OpMap:
		return "map"
	case OpReduce:
		return "reduce"
	case OpDistinct:
		return "distinct"
	default:
		return fmt.Sprintf("op(%d)", uint8(k))
	}
}

// AggFunc is the aggregation applied by reduce.
type AggFunc uint8

const (
	AggSum AggFunc = iota
	AggMax
	AggMin
	AggBitOr
)

func (f AggFunc) String() string {
	switch f {
	case AggSum:
		return "sum"
	case AggMax:
		return "max"
	case AggMin:
		return "min"
	case AggBitOr:
		return "bit_or"
	default:
		return fmt.Sprintf("agg(%d)", uint8(f))
	}
}

// Apply folds next into acc.
func (f AggFunc) Apply(acc, next uint64) uint64 {
	switch f {
	case AggSum:
		return acc + next
	case AggMax:
		if next > acc {
			return next
		}
		return acc
	case AggMin:
		if next < acc {
			return next
		}
		return acc
	case AggBitOr:
		return acc | next
	default:
		panic("query: unknown aggregation")
	}
}

// Column is one output of a map: a named expression.
type Column struct {
	// Name identifies the column in later operators (key selection, filter
	// clauses). Two columns in one schema may not share a name.
	Name fields.ID
	Expr Expr
}

// Op is one dataflow operator. Exactly one of the payload fields is set,
// selected by Kind; a flat struct keeps the AST trivially copyable, which
// the planner's query-augmentation rewrites rely on.
type Op struct {
	Kind OpKind

	// Filter payload: conjunction of clauses. In tuple phase each clause's
	// Col is resolved; in packet phase Col is -1.
	Clauses []Clause
	// DynFilterTable marks a filter whose rule set is installed at runtime
	// by dynamic refinement (the red filters of Figure 4). Key gives the
	// match columns; the runtime updates the allowed-value set each window.
	DynFilterTable string
	DynKeyCols     []int
	DynKeyField    fields.ID
	DynLevel       int

	// Map payload.
	Cols []Column

	// Reduce / Distinct payload: key column indices into the input schema.
	KeyCols []int
	Func    AggFunc
	ValCol  int // reduce input value column

	// inSchema and outSchema are filled by schema inference at build time.
	inSchema  tuple.Schema
	outSchema tuple.Schema
	// packetPhase reports whether this operator consumes raw packets.
	packetPhase bool
}

// InSchema returns the operator's input schema (nil in packet phase).
func (o *Op) InSchema() tuple.Schema { return o.inSchema }

// OutSchema returns the operator's output schema (nil while still in packet
// phase).
func (o *Op) OutSchema() tuple.Schema { return o.outSchema }

// PacketPhase reports whether the operator consumes raw packets.
func (o *Op) PacketPhase() bool { return o.packetPhase }

// Stateful reports whether the operator keeps per-key state.
func (o *Op) Stateful() bool { return o.Kind == OpReduce || o.Kind == OpDistinct }

// Clone returns a deep copy of the operator (schemas are re-derived on
// build, but clauses/columns must not alias).
func (o *Op) Clone() *Op {
	c := *o
	c.Clauses = append([]Clause(nil), o.Clauses...)
	c.Cols = make([]Column, len(o.Cols))
	for i, col := range o.Cols {
		c.Cols[i] = col
		if col.Expr.Sub != nil {
			sub := *col.Expr.Sub
			c.Cols[i].Expr.Sub = &sub
		}
	}
	c.KeyCols = append([]int(nil), o.KeyCols...)
	c.DynKeyCols = append([]int(nil), o.DynKeyCols...)
	c.inSchema = o.inSchema.Clone()
	c.outSchema = o.outSchema.Clone()
	return &c
}

// String renders the operator in the paper's surface syntax.
func (o *Op) String() string {
	switch o.Kind {
	case OpFilter:
		if o.DynFilterTable != "" {
			return fmt.Sprintf(".filter(in refined(%s/%d))", o.DynKeyField, o.DynLevel)
		}
		parts := make([]string, len(o.Clauses))
		for i := range o.Clauses {
			parts[i] = o.Clauses[i].String()
		}
		return ".filter(" + strings.Join(parts, " && ") + ")"
	case OpMap:
		parts := make([]string, len(o.Cols))
		for i, c := range o.Cols {
			parts[i] = c.Expr.String()
		}
		return ".map(p => (" + strings.Join(parts, ", ") + "))"
	case OpReduce:
		keys := make([]string, len(o.KeyCols))
		for i, k := range o.KeyCols {
			keys[i] = o.inSchema[k].String()
		}
		return fmt.Sprintf(".reduce(keys=(%s), f=%s)", strings.Join(keys, ","), o.Func)
	case OpDistinct:
		return ".distinct()"
	default:
		return ".?"
	}
}

// Pipeline is a linear chain of operators over one packet stream.
type Pipeline struct {
	Ops []Op
}

// clone deep-copies the pipeline.
func (p *Pipeline) clone() *Pipeline {
	if p == nil {
		return nil
	}
	c := &Pipeline{Ops: make([]Op, len(p.Ops))}
	for i := range p.Ops {
		c.Ops[i] = *p.Ops[i].Clone()
	}
	return c
}

// OutSchema returns the schema after the last operator, or nil if the
// pipeline never leaves packet phase.
func (p *Pipeline) OutSchema() tuple.Schema {
	for i := len(p.Ops) - 1; i >= 0; i-- {
		if s := p.Ops[i].outSchema; s != nil {
			return s
		}
	}
	return nil
}

// Query is a complete telemetry query: a main pipeline, an optional joined
// sub-pipeline, and operators applied after the join.
type Query struct {
	ID     uint16
	Name   string
	Window time.Duration
	// MaxDelay bounds the number of refinement levels the planner may chain
	// (D_q in the paper), expressed in windows. Zero means unbounded.
	MaxDelay int

	// Left is the main pipeline. For join queries it is the left operand
	// (which may still be in packet phase, as in the Zorro query).
	Left *Pipeline
	// Right is the joined sub-query's pipeline; nil when there is no join.
	Right *Pipeline
	// JoinKeys names the equi-join key columns, present in both sides'
	// schemas (or extractable from the packet when Left is packet-phase).
	JoinKeys []fields.ID
	// JoinOuter makes the join left-outer: left tuples without a right
	// match join against zero values. Queries that subtract an aggregate
	// that may be absent (SYNs minus SYN-ACKs) need this — the anomaly is
	// precisely the key with no counterpart.
	JoinOuter bool
	// Post holds operators applied to the joined stream.
	Post *Pipeline
}

// HasJoin reports whether the query joins two sub-pipelines.
func (q *Query) HasJoin() bool { return q.Right != nil }

// NumOps counts the ops of every pipeline of the query: left, then right and
// post-join for a join.
func (q *Query) NumOps() int {
	if q.HasJoin() {
		return len(q.Left.Ops) + len(q.Right.Ops) + len(q.Post.Ops)
	}
	return len(q.Left.Ops)
}

// Clone deep-copies the query so planner rewrites never alias the original.
func (q *Query) Clone() *Query {
	c := *q
	c.Left = q.Left.clone()
	c.Right = q.Right.clone()
	c.Post = q.Post.clone()
	c.JoinKeys = append([]fields.ID(nil), q.JoinKeys...)
	return &c
}

// FinalSchema returns the schema of the query's results.
func (q *Query) FinalSchema() tuple.Schema {
	if q.Post != nil && len(q.Post.Ops) > 0 {
		if s := q.Post.OutSchema(); s != nil {
			return s
		}
	}
	if q.HasJoin() {
		return q.joinedSchema()
	}
	return q.Left.OutSchema()
}

// joinedSchema computes the schema immediately after the join: the join
// keys, then the left side's non-key columns, then the right side's non-key
// columns. A packet-phase left side contributes only the keys.
func (q *Query) joinedSchema() tuple.Schema {
	out := tuple.Schema{}
	out = append(out, q.JoinKeys...)
	if ls := q.Left.OutSchema(); ls != nil {
		for _, f := range ls {
			if !containsField(q.JoinKeys, f) {
				out = append(out, f)
			}
		}
	}
	if rs := q.Right.OutSchema(); rs != nil {
		for _, f := range rs {
			if !containsField(q.JoinKeys, f) {
				// Disambiguate a second aggregate column.
				if f == fields.AggVal && out.Contains(fields.AggVal) {
					f = fields.AggVal2
				}
				out = append(out, f)
			}
		}
	}
	return out
}

func containsField(list []fields.ID, f fields.ID) bool {
	for _, x := range list {
		if x == f {
			return true
		}
	}
	return false
}

// String renders the whole query in the paper's surface syntax, one
// operator per line. Table 3's "lines of Sonata code" metric counts these
// lines.
func (q *Query) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "packetStream(W=%s)\n", q.Window)
	for i := range q.Left.Ops {
		sb.WriteString(q.Left.Ops[i].String())
		sb.WriteByte('\n')
	}
	if q.HasJoin() {
		keys := make([]string, len(q.JoinKeys))
		for i, k := range q.JoinKeys {
			keys[i] = k.String()
		}
		fmt.Fprintf(&sb, ".join(keys=(%s), packetStream\n", strings.Join(keys, ","))
		for i := range q.Right.Ops {
			sb.WriteString("  ")
			sb.WriteString(q.Right.Ops[i].String())
			sb.WriteByte('\n')
		}
		sb.WriteString(")\n")
	}
	if q.Post != nil {
		for i := range q.Post.Ops {
			sb.WriteString(q.Post.Ops[i].String())
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// LinesOfCode counts the operators in the paper's surface syntax, the
// number Table 3 reports for Sonata queries.
func (q *Query) LinesOfCode() int {
	return strings.Count(strings.TrimRight(q.String(), "\n"), "\n") + 1
}
