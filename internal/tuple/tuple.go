// Package tuple defines the value and tuple representations that flow between
// the switch, the emitter, and the stream processor.
//
// Sonata's dataflow operators are defined over tuples of typed values. A
// tuple's layout is described by a Schema (an ordered list of field IDs); the
// values themselves are stored positionally so that hot-path operators can
// index columns without map lookups.
package tuple

import (
	"cmp"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/fields"
)

// Value is a single column value: either a numeric (U) or a byte-string (S).
// The zero Value is the numeric 0.
type Value struct {
	U   uint64
	S   string
	Str bool
}

// U64 returns a numeric value.
func U64(v uint64) Value { return Value{U: v} }

// Str returns a byte-string value.
func Str(s string) Value { return Value{S: s, Str: true} }

// Equal reports whether two values are identical in kind and content.
func (v Value) Equal(o Value) bool {
	if v.Str != o.Str {
		return false
	}
	if v.Str {
		return v.S == o.S
	}
	return v.U == o.U
}

// Less reports whether v orders before o (Compare).
func (v Value) Less(o Value) bool { return v.Compare(o) < 0 }

// Compare orders values — numerics before strings, then by content — as -1,
// 0 or +1: a total order for deterministic result sorting.
func (v Value) Compare(o Value) int {
	switch {
	case v.Str != o.Str:
		if v.Str {
			return 1
		}
		return -1
	case v.Str:
		return strings.Compare(v.S, o.S)
	}
	return cmp.Compare(v.U, o.U)
}

// String renders the value for logs and test failures. It runs in result
// rendering and the -top refresh loop, so it avoids fmt's reflection path.
func (v Value) String() string {
	if v.Str {
		return strconv.Quote(v.S)
	}
	return strconv.FormatUint(v.U, 10)
}

// IPString renders a numeric value as a dotted-quad IPv4 address.
func (v Value) IPString() string {
	var b [15]byte // "255.255.255.255"
	out := strconv.AppendUint(b[:0], v.U>>24&0xFF, 10)
	out = append(out, '.')
	out = strconv.AppendUint(out, v.U>>16&0xFF, 10)
	out = append(out, '.')
	out = strconv.AppendUint(out, v.U>>8&0xFF, 10)
	out = append(out, '.')
	out = strconv.AppendUint(out, v.U&0xFF, 10)
	return string(out)
}

// Schema is an ordered list of field IDs describing tuple columns. Field IDs
// may repeat only when they denote distinct synthetic columns (e.g. two
// AggVal columns after a join); position is the identity of a column.
type Schema []fields.ID

// Index returns the position of the first column with field id, or -1.
func (s Schema) Index(id fields.ID) int {
	for i, f := range s {
		if f == id {
			return i
		}
	}
	return -1
}

// Contains reports whether the schema has a column with field id.
func (s Schema) Contains(id fields.ID) bool { return s.Index(id) >= 0 }

// Clone returns an independent copy of the schema. A nil schema (the
// packet-phase marker) stays nil.
func (s Schema) Clone() Schema {
	if s == nil {
		return nil
	}
	out := make(Schema, len(s))
	copy(out, s)
	return out
}

// Equal reports whether two schemas have identical columns.
func (s Schema) Equal(o Schema) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// Bits returns the total metadata width of the schema in bits, which is what
// carrying one tuple of this schema through the switch pipeline costs.
func (s Schema) Bits() int {
	total := 0
	for _, f := range s {
		total += f.Bits()
	}
	return total
}

// String renders the schema as "(ipv4.dIP, agg)".
func (s Schema) String() string {
	names := make([]string, len(s))
	for i, f := range s {
		names[i] = f.String()
	}
	return "(" + strings.Join(names, ", ") + ")"
}

// Tuple is one record flowing through the system. QID identifies the query
// the tuple belongs to and Level the refinement level that produced it (zero
// when refinement is not in play). Vals is positional per the query's schema
// at that point in the dataflow.
type Tuple struct {
	QID   uint16
	Level uint8
	Vals  []Value
}

// Clone returns a deep copy of the tuple.
func (t Tuple) Clone() Tuple {
	vals := make([]Value, len(t.Vals))
	copy(vals, t.Vals)
	return Tuple{QID: t.QID, Level: t.Level, Vals: vals}
}

// String renders the tuple for logs and test failures.
func (t Tuple) String() string {
	parts := make([]string, len(t.Vals))
	for i, v := range t.Vals {
		parts[i] = v.String()
	}
	return fmt.Sprintf("q%d/r%d[%s]", t.QID, t.Level, strings.Join(parts, " "))
}

// Less orders tuples by QID, then Level, then values column-by-column. It
// gives tests and result reports a deterministic order.
func Less(a, b Tuple) bool {
	if a.QID != b.QID {
		return a.QID < b.QID
	}
	if a.Level != b.Level {
		return a.Level < b.Level
	}
	n := len(a.Vals)
	if len(b.Vals) < n {
		n = len(b.Vals)
	}
	for i := 0; i < n; i++ {
		if !a.Vals[i].Equal(b.Vals[i]) {
			return a.Vals[i].Less(b.Vals[i])
		}
	}
	return len(a.Vals) < len(b.Vals)
}
