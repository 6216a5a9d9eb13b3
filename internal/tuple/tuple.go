// Package tuple defines the value and tuple representations that flow between
// the switch, the emitter, and the stream processor.
//
// Sonata's dataflow operators are defined over tuples of typed values. A
// tuple's layout is described by a Schema (an ordered list of field IDs); the
// values themselves are stored positionally so that hot-path operators can
// index columns without map lookups.
package tuple

import (
	"encoding/binary"
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

// Less orders values: numerics before strings, then by content. It provides a
// total order for deterministic result sorting.
func (v Value) Less(o Value) bool {
	if v.Str != o.Str {
		return !v.Str
	}
	if v.Str {
		return v.S < o.S
	}
	return v.U < o.U
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

// Key encodes the values at positions idx into a compact comparable string
// for use as a grouping key. The encoding is injective: numerics are tagged
// 'u' followed by 8 big-endian bytes; strings are tagged 's' followed by a
// 4-byte length and the bytes.
func Key(vals []Value, idx []int) string {
	var b []byte
	b = appendKey(b, vals, idx)
	return string(b)
}

// AppendKey appends the key encoding of the selected values to dst and
// returns the extended slice, allowing callers to reuse a scratch buffer.
func AppendKey(dst []byte, vals []Value, idx []int) []byte {
	return appendKey(dst, vals, idx)
}

func appendKey(b []byte, vals []Value, idx []int) []byte {
	if k, ok := appendKeyU64(b, vals, idx); ok {
		return k
	}
	for _, i := range idx {
		b = AppendKeyValue(b, vals[i])
	}
	return b
}

// appendKeyU64 writes an all-numeric key (tag 'u' + 8 big-endian bytes per
// column, byte-identical to AppendKeyValue) straight into b's spare
// capacity. It reports false — leaving b untouched — when a column is a
// string or the scratch would need to grow; numeric keys over a warm
// scratch are the per-packet steady state, so the generic append path runs
// only on growth and string keys.
func appendKeyU64(b []byte, vals []Value, idx []int) ([]byte, bool) {
	n := len(idx) * 9
	if cap(b)-len(b) < n {
		return b, false
	}
	out := b[len(b) : len(b)+n]
	j := 0
	for _, i := range idx {
		v := &vals[i]
		if v.Str {
			return b, false
		}
		out[j] = 'u'
		binary.BigEndian.PutUint64(out[j+1:j+9], v.U)
		j += 9
	}
	return b[:len(b)+n], true
}

// AppendKeyValue appends the key encoding of a single value to dst. It is
// the one-column form of AppendKey, used where the column set is implicit
// (dynamic-filter keys) and building an index slice would be wasted work.
func AppendKeyValue(dst []byte, v Value) []byte {
	if v.Str {
		dst = append(dst, 's')
		var l [4]byte
		binary.BigEndian.PutUint32(l[:], uint32(len(v.S)))
		dst = append(dst, l[:]...)
		return append(dst, v.S...)
	}
	dst = append(dst, 'u')
	var u [8]byte
	binary.BigEndian.PutUint64(u[:], v.U)
	return append(dst, u[:]...)
}

// Hash64 hashes an encoded key to 64 bits. The core is FNV-1a folded over
// 8-byte little-endian chunks (fast on the per-tuple path), finished with a
// murmur-style avalanche so that power-of-two-masked low bits are well
// mixed — the contract internal/keytab's open-addressing tables rely on.
// Hash quality affects only probe length, never correctness: keytab compares
// full key bytes on every hit.
func Hash64(b []byte) uint64 {
	h := uint64(14695981039346656037) ^ uint64(len(b))
	for len(b) >= 8 {
		h = (h ^ binary.LittleEndian.Uint64(b)) * 1099511628211
		b = b[8:]
	}
	if len(b) > 0 {
		var tail uint64
		for i := len(b) - 1; i >= 0; i-- {
			tail = tail<<8 | uint64(b[i])
		}
		h = (h ^ tail) * 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// DecodeKey decodes a key produced by Key back into values. It is the
// inverse of Key for the selected columns and is used when the stream
// processor reconstructs grouping keys from switch register dumps.
func DecodeKey(key string) ([]Value, error) {
	var vals []Value
	b := []byte(key)
	for len(b) > 0 {
		switch b[0] {
		case 'u':
			if len(b) < 9 {
				return nil, fmt.Errorf("tuple: truncated numeric key at byte %d", len(key)-len(b))
			}
			vals = append(vals, U64(binary.BigEndian.Uint64(b[1:9])))
			b = b[9:]
		case 's':
			if len(b) < 5 {
				return nil, fmt.Errorf("tuple: truncated string key header")
			}
			n := int(binary.BigEndian.Uint32(b[1:5]))
			if len(b) < 5+n {
				return nil, fmt.Errorf("tuple: truncated string key body (want %d bytes)", n)
			}
			vals = append(vals, Str(string(b[5:5+n])))
			b = b[5+n:]
		default:
			return nil, fmt.Errorf("tuple: bad key tag %q", b[0])
		}
	}
	return vals, nil
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
