// Package query defines Sonata's declarative dataflow query language:
// the operator AST, a fluent builder, evaluation semantics shared by the
// stream processor and the switch simulator, and the static analysis the
// query planner relies on (schema inference, switch-supportability, and
// refinement-key detection).
//
// A query is a pipeline of dataflow operators over a packet stream, exactly
// as in Section 2 of the paper:
//
//	packetStream(W).filter(...).map(...).reduce(...).filter(...)
//
// Operators before the first map see the raw packet ("packet phase");
// operators after it see positional tuples ("tuple phase"). A query may join
// the outputs of two sub-pipelines, after which further operators apply to
// the joined stream.
package query

import (
	"fmt"
	"strings"

	"repro/internal/fields"
	"repro/internal/packet"
	"repro/internal/tuple"
)

// CmpOp is a comparison operator in a filter clause.
type CmpOp uint8

const (
	CmpEq CmpOp = iota
	CmpNe
	CmpGt
	CmpGe
	CmpLt
	CmpLe
	// CmpContains tests substring containment and only applies to Bytes
	// fields; it cannot execute on a switch.
	CmpContains
	// CmpMaskEq tests (value & mask) == arg, used for flag-bit predicates.
	CmpMaskEq
)

func (c CmpOp) String() string {
	switch c {
	case CmpEq:
		return "=="
	case CmpNe:
		return "!="
	case CmpGt:
		return ">"
	case CmpGe:
		return ">="
	case CmpLt:
		return "<"
	case CmpLe:
		return "<="
	case CmpContains:
		return "contains"
	case CmpMaskEq:
		return "&=="
	default:
		return fmt.Sprintf("cmp(%d)", uint8(c))
	}
}

// compare applies the operator to two numeric values (mask comparisons are
// handled by the caller).
func (c CmpOp) compareU64(a, b uint64) bool {
	switch c {
	case CmpEq:
		return a == b
	case CmpNe:
		return a != b
	case CmpGt:
		return a > b
	case CmpGe:
		return a >= b
	case CmpLt:
		return a < b
	case CmpLe:
		return a <= b
	default:
		panic(fmt.Sprintf("query: compareU64 on %v", c))
	}
}

// Clause is one conjunct of a filter predicate.
type Clause struct {
	// Field names the packet field (packet phase) or the schema column
	// (tuple phase, resolved via the schema at build time).
	Field fields.ID
	// Col is the resolved column index in tuple phase; -1 in packet phase.
	Col int
	Cmp CmpOp
	// Arg is the comparison constant.
	Arg tuple.Value
	// Mask is the bit mask for CmpMaskEq.
	Mask uint64
}

// MatchValue applies the clause to an extracted value. It is the shared
// core of MatchPacket/MatchTuple, exported for the stream engine's batched
// filter path, which tests one column's values against a selection bitmap.
func (cl *Clause) MatchValue(v tuple.Value) bool {
	switch cl.Cmp {
	case CmpContains:
		return v.Str && strings.Contains(v.S, cl.Arg.S)
	case CmpMaskEq:
		return !v.Str && v.U&cl.Mask == cl.Arg.U
	default:
		if v.Str || cl.Arg.Str {
			// String equality is the only ordered comparison we define on
			// Bytes fields.
			if cl.Cmp == CmpEq {
				return v.Str == cl.Arg.Str && v.S == cl.Arg.S
			}
			if cl.Cmp == CmpNe {
				return v.Str != cl.Arg.Str || v.S != cl.Arg.S
			}
			return false
		}
		return cl.Cmp.compareU64(v.U, cl.Arg.U)
	}
}

// matchU64 is MatchValue for a number against a numeric comparison (no
// string argument, not CmpContains): the test a column loop runs per row.
func (cl *Clause) matchU64(v uint64) bool {
	if cl.Cmp == CmpMaskEq {
		return v&cl.Mask == cl.Arg.U
	}
	return cl.Cmp.compareU64(v, cl.Arg.U)
}

// MatchPacket evaluates a packet-phase clause. Packets lacking the field do
// not match.
func (cl *Clause) MatchPacket(p *packet.Packet) bool {
	v, ok := p.Field(cl.Field)
	if !ok {
		return false
	}
	return cl.MatchValue(v)
}

// MatchTuple evaluates a tuple-phase clause against positional values.
func (cl *Clause) MatchTuple(vals []tuple.Value) bool {
	return cl.MatchValue(vals[cl.Col])
}

// String renders the clause in the paper's surface syntax.
func (cl *Clause) String() string {
	switch cl.Cmp {
	case CmpContains:
		return fmt.Sprintf("p.%s.contains(%s)", cl.Field, cl.Arg)
	case CmpMaskEq:
		return fmt.Sprintf("p.%s & %#x == %s", cl.Field, cl.Mask, cl.Arg)
	default:
		return fmt.Sprintf("p.%s %s %s", cl.Field, cl.Cmp, cl.Arg)
	}
}

// ExprKind enumerates map-expression forms.
type ExprKind uint8

const (
	// ExprField extracts a packet field (packet phase only).
	ExprField ExprKind = iota
	// ExprCol copies a column (tuple phase only).
	ExprCol
	// ExprConst produces a constant.
	ExprConst
	// ExprMask truncates a hierarchical operand to a refinement level.
	ExprMask
	// ExprShiftRound buckets the operand by a power of two: v >> Shift.
	ExprShiftRound
	// ExprRatio computes (A * Scale) / B over two columns; division is not
	// available on switches, so this expression is stream-processor only.
	ExprRatio
	// ExprDiff computes the saturating difference A - B over two columns.
	ExprDiff
)

// Expr is a map output expression.
type Expr struct {
	Kind  ExprKind
	Field fields.ID // ExprField, ExprMask over a field
	Col   int       // ExprCol, ExprMask over a column; ExprRatio numerator
	ColB  int       // ExprRatio denominator
	Const uint64    // ExprConst value; ExprRatio scale
	Level int       // ExprMask refinement level
	Shift uint      // ExprShiftRound bits
	// Sub is the operand of ExprMask/ExprShiftRound.
	Sub *Expr
}

// EvalPacket evaluates a packet-phase expression.
func (e *Expr) EvalPacket(p *packet.Packet) (tuple.Value, bool) { return e.evalPacket(nil, p, 0) }

// EvalPacketAt is EvalPacket on row r of a batch, reading each field through
// PacketBatch.FieldAt: from the batch's column where it has one.
func (e *Expr) EvalPacketAt(b *PacketBatch, r int) (tuple.Value, bool) {
	return e.evalPacket(b, b.Pkts[r], r)
}

// evalPacket reads fields from row r of b when b is non-nil, from p
// otherwise.
func (e *Expr) evalPacket(b *PacketBatch, p *packet.Packet, r int) (tuple.Value, bool) {
	switch e.Kind {
	case ExprField:
		if b != nil {
			return b.FieldAt(e.Field, r)
		}
		return p.Field(e.Field)
	case ExprConst:
		return tuple.U64(e.Const), true
	case ExprMask:
		v, ok := e.Sub.evalPacket(b, p, r)
		if !ok {
			return tuple.Value{}, false
		}
		return MaskValue(e.Field, v, e.Level), true
	case ExprShiftRound:
		v, ok := e.Sub.evalPacket(b, p, r)
		if !ok || v.Str {
			return tuple.Value{}, false
		}
		return tuple.U64(v.U >> e.Shift), true
	default:
		panic(fmt.Sprintf("query: expression kind %d in packet phase", e.Kind))
	}
}

// EvalTuple evaluates a tuple-phase expression.
func (e *Expr) EvalTuple(vals []tuple.Value) tuple.Value {
	switch e.Kind {
	case ExprCol:
		return vals[e.Col]
	case ExprConst:
		return tuple.U64(e.Const)
	case ExprMask:
		return MaskValue(e.Field, e.Sub.EvalTuple(vals), e.Level)
	case ExprShiftRound:
		v := e.Sub.EvalTuple(vals)
		return tuple.U64(v.U >> e.Shift)
	case ExprRatio:
		den := vals[e.ColB].U
		if den == 0 {
			return tuple.U64(0)
		}
		return tuple.U64(vals[e.Col].U * e.Const / den)
	case ExprDiff:
		a, b := vals[e.Col].U, vals[e.ColB].U
		if b > a {
			return tuple.U64(0)
		}
		return tuple.U64(a - b)
	default:
		panic(fmt.Sprintf("query: expression kind %d in tuple phase", e.Kind))
	}
}

// IsStr reports whether the expression yields strings, given which input
// columns do (nil in packet phase). A field's value kind is static, so a
// column's kind is too — which is what lets a batch keep numeric columns as
// plain uint64s.
func (e *Expr) IsStr(in []bool) bool {
	switch e.Kind {
	case ExprField:
		return fields.Lookup(e.Field).Kind == fields.Bytes
	case ExprCol:
		return in[e.Col]
	case ExprMask:
		return e.Sub.IsStr(in)
	}
	return false
}

// EvalTupleCols evaluates a tuple-phase expression column-at-a-time: rows
// [0, n) of cols, writing row r's value to row r of out, whose kind is the
// expression's (IsStr). Every tuple-phase expression kind is a total
// function of its inputs, so the loop is branch-free over rows and may
// legitimately evaluate rows a filter already deselected — callers ignore
// those through their selection bitmap. Results are value-identical to
// EvalTuple on the equivalent tuples.
func (e *Expr) EvalTupleCols(cols []tuple.Column, n int, out tuple.Column) {
	switch e.Kind {
	case ExprCol:
		switch in := &cols[e.Col]; {
		case out.V != nil:
			copy(out.V[:n], in.V[:n])
		case in.V == nil:
			copy(out.U[:n], in.U[:n])
		default: // a string column read as a number, as EvalTuple's .U reads it
			for r := range out.U[:n] {
				out.U[r] = in.V[r].U
			}
		}
	case ExprConst:
		for r := range out.U[:n] {
			out.U[r] = e.Const
		}
	case ExprMask:
		e.Sub.EvalTupleCols(cols, n, out)
		if out.V != nil {
			// A string column holds only strings where it is selected; a
			// deselected row may hold a pool's zero Value, which MaskValue
			// would take for a number of a field that has none.
			for r := range out.V[:n] {
				out.V[r] = tuple.Str(packet.DNSNameLevel(out.V[r].S, e.Level))
			}
			break
		}
		s := fields.LevelShift(e.Field, e.Level)
		for r := range out.U[:n] {
			out.U[r] = out.U[r] >> s << s
		}
	case ExprShiftRound:
		e.Sub.EvalTupleCols(cols, n, out)
		for r := range out.U[:n] {
			out.U[r] >>= e.Shift
		}
	case ExprRatio:
		num, den := &cols[e.Col], &cols[e.ColB]
		for r := range out.U[:n] {
			out.U[r] = 0
			if d := den.At(r).U; d != 0 {
				out.U[r] = num.At(r).U * e.Const / d
			}
		}
	case ExprDiff:
		a, b := &cols[e.Col], &cols[e.ColB]
		for r := range out.U[:n] {
			out.U[r] = 0
			if av, bv := a.At(r).U, b.At(r).U; bv <= av {
				out.U[r] = av - bv
			}
		}
	default:
		panic(fmt.Sprintf("query: expression kind %d in tuple phase", e.Kind))
	}
}

// evalPacketCols is EvalPacket column-at-a-time, for an expression whose only
// packet input is a field the batch extracted: it writes every row of out and
// returns the rows the expression is defined on (nil for all of them — a
// constant). It reports false, having written nothing that matters, for an
// expression over any other field; the caller then asks the packets.
func (e *Expr) evalPacketCols(b *PacketBatch, out []uint64) (has []uint64, ok bool) {
	switch e.Kind {
	case ExprField:
		var vals []uint64
		if vals, has, ok = b.Column(e.Field); ok {
			copy(out, vals)
		}
		return has, ok
	case ExprConst:
		for r := range out {
			out[r] = e.Const
		}
		return nil, true
	case ExprMask:
		if has, ok = e.Sub.evalPacketCols(b, out); ok {
			s := fields.LevelShift(e.Field, e.Level)
			for r := range out {
				out[r] = out[r] >> s << s
			}
		}
		return has, ok
	case ExprShiftRound:
		if has, ok = e.Sub.evalPacketCols(b, out); ok {
			for r := range out {
				out[r] >>= e.Shift
			}
		}
		return has, ok
	default:
		panic(fmt.Sprintf("query: expression kind %d in packet phase", e.Kind))
	}
}

// MaskValue truncates v to a refinement level of field f, handling both
// numeric prefixes (IPv4/IPv6) and DNS label hierarchies. It is shared by
// map expressions, the dynamic-refinement filters, and the switch simulator.
func MaskValue(f fields.ID, v tuple.Value, level int) tuple.Value {
	if v.Str {
		return tuple.Str(packet.DNSNameLevel(v.S, level))
	}
	return tuple.U64(fields.TruncateU64(f, v.U, level))
}

// switchSupported reports whether the expression can be computed by a PISA
// match-action stage.
func (e *Expr) switchSupported() bool {
	switch e.Kind {
	case ExprRatio:
		return false // no division in the data plane
	case ExprField:
		return fields.Lookup(e.Field).SwitchParsable
	case ExprMask, ExprShiftRound:
		return e.Sub.switchSupported()
	default:
		return true
	}
}

// String renders the expression in the paper's surface syntax.
func (e *Expr) String() string {
	switch e.Kind {
	case ExprField:
		return "p." + e.Field.String()
	case ExprCol:
		return fmt.Sprintf("$%d", e.Col)
	case ExprConst:
		return fmt.Sprintf("%d", e.Const)
	case ExprMask:
		return fmt.Sprintf("%s/%d", e.Sub, e.Level)
	case ExprShiftRound:
		return fmt.Sprintf("%s>>%d", e.Sub, e.Shift)
	case ExprRatio:
		return fmt.Sprintf("$%d*%d/$%d", e.Col, e.Const, e.ColB)
	case ExprDiff:
		return fmt.Sprintf("$%d-$%d", e.Col, e.ColB)
	default:
		return fmt.Sprintf("expr(%d)", e.Kind)
	}
}
