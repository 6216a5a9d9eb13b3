package query

import (
	"fmt"

	"repro/internal/fields"
)

// CheckOps reports why a pipeline's operators could not be evaluated as they
// stand, or nil. The builder guarantees all of this for the pipelines it
// builds; a pipeline decoded from bytes — the data-plane driver's install
// message — guarantees none of it, and evaluation indexes columns, the field
// registry and its own dispatch tables without checking again. So: every
// kind is known, every field registered, every column reference inside the
// tuple entering its operator, each phase's expressions are ones that phase
// evaluates, a dynamic filter reads a packet, a refinement mask names a
// field that has levels, and each schema is as wide as the tuple it
// describes.
func CheckOps(ops []Op) error {
	var in []bool // the entering tuple's string columns; nil in packet phase
	for i := range ops {
		o := &ops[i]
		if err := o.check(in); err != nil {
			return fmt.Errorf("query: op %d (%s): %w", i, o.Kind, err)
		}
		in = ColumnKinds(ops[i:i+1], in)[1]
		if err := checkSchema(o.outSchema, in); err != nil {
			return fmt.Errorf("query: op %d (%s) output: %w", i, o.Kind, err)
		}
	}
	return nil
}

// check validates one operator against the tuple entering it.
func (o *Op) check(in []bool) error {
	packetPhase := in == nil
	if o.packetPhase != (packetPhase && (o.Kind == OpFilter || o.Kind == OpMap)) {
		return fmt.Errorf("phase flag %v in the other phase", o.packetPhase)
	}
	if err := checkSchema(o.inSchema, in); err != nil {
		return fmt.Errorf("input: %w", err)
	}
	switch o.Kind {
	case OpFilter:
		for i := range o.Clauses {
			cl := &o.Clauses[i]
			switch {
			case cl.Cmp > CmpMaskEq:
				return fmt.Errorf("clause %d: comparison %s", i, cl.Cmp)
			case packetPhase && !fields.Valid(cl.Field):
				return fmt.Errorf("clause %d: field %d", i, cl.Field)
			case !packetPhase && (cl.Col < 0 || cl.Col >= len(in)):
				return fmt.Errorf("clause %d: column %d of %d", i, cl.Col, len(in))
			}
		}
		if o.DynFilterTable != "" {
			if !packetPhase {
				return fmt.Errorf("dynamic filter in tuple phase")
			}
			if !fields.Valid(o.DynKeyField) || !fields.Lookup(o.DynKeyField).Hierarchical {
				return fmt.Errorf("dynamic filter key field %d has no levels", o.DynKeyField)
			}
		}
	case OpMap:
		for i := range o.Cols {
			if !fields.Valid(o.Cols[i].Name) {
				return fmt.Errorf("column %d: name %d", i, o.Cols[i].Name)
			}
			if err := o.Cols[i].Expr.check(in); err != nil {
				return fmt.Errorf("column %d: %w", i, err)
			}
		}
	case OpReduce, OpDistinct:
		if packetPhase {
			return fmt.Errorf("keyed state before the first map")
		}
		for _, k := range o.KeyCols {
			if k < 0 || k >= len(in) {
				return fmt.Errorf("key column %d of %d", k, len(in))
			}
		}
		if o.Kind == OpReduce && (o.ValCol < 0 || o.ValCol >= len(in)) {
			return fmt.Errorf("value column %d of %d", o.ValCol, len(in))
		}
		if o.Func > AggBitOr {
			return fmt.Errorf("aggregation %s", o.Func)
		}
	default:
		return fmt.Errorf("unknown operator")
	}
	return nil
}

// check validates a map expression against the tuple entering its map (nil
// in packet phase).
func (e *Expr) check(in []bool) error {
	packetPhase := in == nil
	switch e.Kind {
	case ExprConst:
	case ExprField:
		if !packetPhase || !fields.Valid(e.Field) {
			return fmt.Errorf("field %d in the tuple phase or unregistered", e.Field)
		}
	case ExprCol:
		if packetPhase || e.Col < 0 || e.Col >= len(in) {
			return fmt.Errorf("column %d of %d", e.Col, len(in))
		}
	case ExprRatio, ExprDiff:
		if packetPhase || e.Col < 0 || e.Col >= len(in) || e.ColB < 0 || e.ColB >= len(in) {
			return fmt.Errorf("columns %d, %d of %d", e.Col, e.ColB, len(in))
		}
	case ExprMask, ExprShiftRound:
		if e.Sub == nil {
			return fmt.Errorf("%d with no operand", e.Kind)
		}
		if err := e.Sub.check(in); err != nil {
			return err
		}
		if e.Kind == ExprShiftRound && e.Sub.IsStr(in) {
			return fmt.Errorf("bucketing a string")
		}
		if e.Kind == ExprMask {
			// A numeric operand is truncated by the field's bit levels, a
			// string one by its labels.
			if !fields.Valid(e.Field) || !fields.Lookup(e.Field).Hierarchical ||
				!e.Sub.IsStr(in) && fields.Lookup(e.Field).Kind != fields.Numeric {
				return fmt.Errorf("mask by field %d, which has no levels for its operand", e.Field)
			}
		}
	default:
		return fmt.Errorf("unknown expression %d", e.Kind)
	}
	return nil
}

// checkSchema validates a schema against the tuple it describes (nil: the
// packet, which has none).
func checkSchema(s []fields.ID, in []bool) error {
	if len(s) != len(in) {
		return fmt.Errorf("schema of %d columns for a tuple of %d", len(s), len(in))
	}
	for _, f := range s {
		if !fields.Valid(f) {
			return fmt.Errorf("schema field %d", f)
		}
	}
	return nil
}
