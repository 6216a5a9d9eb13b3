package tuple

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/fields"
)

func TestValueEqualAndLess(t *testing.T) {
	cases := []struct {
		a, b        Value
		equal, less bool
	}{
		{U64(1), U64(1), true, false},
		{U64(1), U64(2), false, true},
		{U64(2), U64(1), false, false},
		{Str("a"), Str("a"), true, false},
		{Str("a"), Str("b"), false, true},
		{U64(99), Str("a"), false, true}, // numerics order before strings
		{Str("a"), U64(99), false, false},
	}
	for _, c := range cases {
		if got := c.a.Equal(c.b); got != c.equal {
			t.Errorf("%v.Equal(%v) = %v, want %v", c.a, c.b, got, c.equal)
		}
		if got := c.a.Less(c.b); got != c.less {
			t.Errorf("%v.Less(%v) = %v, want %v", c.a, c.b, got, c.less)
		}
	}
}

func TestSchemaIndexAndBits(t *testing.T) {
	s := Schema{fields.DstIP, fields.AggVal}
	if i := s.Index(fields.DstIP); i != 0 {
		t.Errorf("Index(DstIP) = %d", i)
	}
	if i := s.Index(fields.AggVal); i != 1 {
		t.Errorf("Index(AggVal) = %d", i)
	}
	if i := s.Index(fields.SrcIP); i != -1 {
		t.Errorf("Index(SrcIP) = %d, want -1", i)
	}
	if got := s.Bits(); got != 32+64 {
		t.Errorf("Bits() = %d, want 96", got)
	}
	if !s.Contains(fields.AggVal) || s.Contains(fields.Proto) {
		t.Error("Contains misreported membership")
	}
}

func TestSchemaCloneIndependent(t *testing.T) {
	s := Schema{fields.DstIP, fields.AggVal}
	c := s.Clone()
	c[0] = fields.SrcIP
	if s[0] != fields.DstIP {
		t.Error("Clone shares backing array with original")
	}
	if !s.Equal(Schema{fields.DstIP, fields.AggVal}) {
		t.Error("Equal failed on identical schema")
	}
	if s.Equal(c) {
		t.Error("Equal reported modified clone as equal")
	}
	if s.Equal(Schema{fields.DstIP}) {
		t.Error("Equal ignored length difference")
	}
}

func TestKeyRoundTrip(t *testing.T) {
	vals := []Value{U64(0xC0A80001), Str("example.com"), U64(0), Str("")}
	key := Key(vals, []int{0, 1, 2, 3})
	got, err := DecodeKey(key)
	if err != nil {
		t.Fatalf("DecodeKey: %v", err)
	}
	if !reflect.DeepEqual(got, vals) {
		t.Errorf("round trip = %v, want %v", got, vals)
	}
}

func TestKeySelectsColumns(t *testing.T) {
	vals := []Value{U64(1), U64(2), U64(3)}
	if Key(vals, []int{0, 2}) == Key(vals, []int{0, 1}) {
		t.Error("keys over different columns collided")
	}
	if Key(vals, []int{1}) != Key([]Value{U64(7), U64(2)}, []int{1}) {
		t.Error("same selected values produced different keys")
	}
}

// Property: Key is injective over value slices (round trip through
// DecodeKey reproduces the input exactly).
func TestKeyInjectiveProperty(t *testing.T) {
	gen := func(r *rand.Rand) []Value {
		n := r.Intn(5)
		vals := make([]Value, n)
		for i := range vals {
			if r.Intn(2) == 0 {
				vals[i] = U64(r.Uint64())
			} else {
				b := make([]byte, r.Intn(20))
				r.Read(b)
				vals[i] = Str(string(b))
			}
		}
		return vals
	}
	cfg := &quick.Config{Values: func(out []reflect.Value, r *rand.Rand) {
		out[0] = reflect.ValueOf(gen(r))
	}}
	f := func(vals []Value) bool {
		idx := make([]int, len(vals))
		for i := range idx {
			idx[i] = i
		}
		got, err := DecodeKey(Key(vals, idx))
		if err != nil {
			return false
		}
		if len(got) != len(vals) {
			return len(vals) == 0 && len(got) == 0
		}
		for i := range vals {
			if !got[i].Equal(vals[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestKeyEncodingAdversarial pits the key encoding against tuple lists
// crafted to collide under naive separator- or concatenation-based schemes:
// column-boundary shifts, embedded separator bytes, empty strings, strings
// that spell out the wire encoding of other values, and numeric/string kind
// confusion. Every pair must encode distinctly (the prefix-free property
// keytab and the register banks rely on — equal bytes must mean equal keys)
// and every encoding must round-trip through DecodeKey.
func TestKeyEncodingAdversarial(t *testing.T) {
	u := func(b ...byte) string { return string(b) }
	cases := [][]Value{
		{},
		{Str("")},
		{Str(""), Str("")},
		{Str(""), Str(""), Str("")},
		// Boundary shifts: same concatenated bytes, different splits.
		{Str("ab"), Str("c")},
		{Str("a"), Str("bc")},
		{Str("abc")},
		{Str(""), Str("abc")},
		{Str("abc"), Str("")},
		// Embedded separator-ish bytes: commas, NULs, pipes.
		{Str("a,b"), Str("c")},
		{Str("a"), Str("b,c")},
		{Str("a\x00b")},
		{Str("a"), Str("\x00b")},
		{Str("a|b"), Str("|")},
		{Str("a"), Str("|b|")},
		// Strings spelling out the encoding of numeric values.
		{Str(u('u', 0, 0, 0, 0, 0, 0, 0, 42))},
		{U64(42)},
		{Str("u")},
		{U64('u')},
		// Strings spelling out a string header.
		{Str(u('s', 0, 0, 0, 1, 'x'))},
		{Str("x")},
		// Kind confusion: same printable bytes, different kinds.
		{Str("42")},
		{U64(0x3432)}, // "42" read as big-endian digits
		{U64(0), Str("")},
		{Str(""), U64(0)},
		{U64(0)},
		{U64(0), U64(0)},
		// Length-prefix lookalikes: a string whose body starts with bytes
		// that parse as the next column's header.
		{Str(u('s', 0, 0, 0, 9)), U64(1)},
		{Str(u('s', 0, 0, 0, 9, 'u', 0, 0, 0, 0, 0, 0, 0, 1))},
	}
	idx := func(n int) []int {
		ix := make([]int, n)
		for i := range ix {
			ix[i] = i
		}
		return ix
	}
	keys := make([]string, len(cases))
	for i, vals := range cases {
		keys[i] = Key(vals, idx(len(vals)))
		got, err := DecodeKey(keys[i])
		if err != nil {
			t.Fatalf("case %d: DecodeKey: %v", i, err)
		}
		if len(got) != len(vals) {
			t.Fatalf("case %d: round trip %d columns, want %d", i, len(got), len(vals))
		}
		for j := range vals {
			if !got[j].Equal(vals[j]) {
				t.Fatalf("case %d col %d: %v != %v", i, j, got[j], vals[j])
			}
		}
	}
	for i := range keys {
		for j := i + 1; j < len(keys); j++ {
			if keys[i] == keys[j] {
				t.Errorf("cases %d and %d collide: %v and %v both encode to %q",
					i, j, cases[i], cases[j], keys[i])
			}
		}
	}
	// No encoding may be a strict prefix of another with more columns —
	// otherwise an arena holding concatenated keys could mistake one key's
	// head for a shorter key. (Equal-length comparison makes full prefixes
	// harmless, but keytab compares by length too; document the invariant.)
	for i := range keys {
		for j := range keys {
			if i != j && len(keys[i]) < len(keys[j]) &&
				keys[j][:len(keys[i])] == keys[i] && len(cases[i]) >= len(cases[j]) {
				t.Errorf("case %d (%v) is a prefix of case %d (%v) without fewer columns",
					i, cases[i], j, cases[j])
			}
		}
	}
}

func TestDecodeKeyRejectsMalformed(t *testing.T) {
	bad := []string{
		"x",                                  // unknown tag
		"u\x00",                              // truncated numeric
		"s\x00\x00\x00\x05ab",                // truncated string body
		"s\x00\x00",                          // truncated string header
		Key([]Value{U64(1)}, []int{0}) + "u", // trailing garbage
	}
	for _, k := range bad {
		if _, err := DecodeKey(k); err == nil {
			t.Errorf("DecodeKey(%q) accepted malformed key", k)
		}
	}
}

func TestAppendKeyReusesBuffer(t *testing.T) {
	buf := make([]byte, 0, 64)
	vals := []Value{U64(42)}
	out := AppendKey(buf, vals, []int{0})
	if string(out) != Key(vals, []int{0}) {
		t.Error("AppendKey and Key disagree")
	}
	if cap(out) != cap(buf) {
		t.Error("AppendKey reallocated despite sufficient capacity")
	}
}

func TestTupleCloneIndependent(t *testing.T) {
	orig := Tuple{QID: 3, Level: 2, Vals: []Value{U64(1), Str("x")}}
	c := orig.Clone()
	c.Vals[0] = U64(99)
	if orig.Vals[0].U != 1 {
		t.Error("Clone shares Vals with original")
	}
	if c.QID != 3 || c.Level != 2 {
		t.Error("Clone dropped metadata")
	}
}

func TestTupleLessOrdering(t *testing.T) {
	a := Tuple{QID: 1, Vals: []Value{U64(1)}}
	b := Tuple{QID: 2, Vals: []Value{U64(0)}}
	if !Less(a, b) || Less(b, a) {
		t.Error("QID should dominate ordering")
	}
	c := Tuple{QID: 1, Level: 1, Vals: []Value{U64(0)}}
	if !Less(a, c) {
		t.Error("Level should order within a QID")
	}
	d := Tuple{QID: 1, Vals: []Value{U64(1), U64(5)}}
	if !Less(a, d) {
		t.Error("shorter tuple with equal prefix should order first")
	}
}

func TestIPString(t *testing.T) {
	v := U64(0xC0A80101)
	if got := v.IPString(); got != "192.168.1.1" {
		t.Errorf("IPString = %q", got)
	}
}

func TestAppendKeyColsMatchesAppendKey(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(20) + 1
		w := rng.Intn(4) + 1
		// Numeric columns, string columns, and Value columns holding both.
		cols := make([]Column, w)
		for j := range cols {
			kind := rng.Intn(3)
			if kind == 0 {
				cols[j].U = make([]uint64, n)
			} else {
				cols[j].V = make([]Value, n)
			}
			for r := 0; r < n; r++ {
				if kind == 0 || kind == 1 && rng.Intn(2) == 0 {
					cols[j].Set(r, U64(rng.Uint64()))
				} else {
					cols[j].Set(r, Str(string(rune('a'+rng.Intn(26)))))
				}
			}
		}
		idx := rng.Perm(w)[:rng.Intn(w)+1]
		for r := 0; r < n; r++ {
			row := AppendRow(nil, cols, r)
			want := AppendKey(nil, row, idx)
			got := AppendKeyCols(nil, cols, idx, r)
			if string(got) != string(want) {
				t.Fatalf("trial %d row %d: cols key %x != row key %x", trial, r, got, want)
			}
		}
	}
}

// TestSelections holds the selection helpers to one another at lengths on
// both sides of the bitmap word boundary: a dense batch selects exactly its
// rows, and SelRows lists a selection's rows in ascending order.
func TestSelections(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var sel []uint64
	for _, n := range []int{0, 1, 63, 64, 65, 256, 1} { // ending on a shrink of a reused bitmap
		sel = SelAll(sel, n)
		if len(sel) != (n+63)/64 || SelCount(sel) != n {
			t.Fatalf("SelAll(%d): %d words, %d rows", n, len(sel), SelCount(sel))
		}
		rows := SelRows(sel, nil)
		for r := range rows {
			if rows[r] != int32(r) {
				t.Fatalf("SelAll(%d): row %d listed as %d", n, r, rows[r])
			}
		}
		var want []int32
		for r := 0; r < n; r++ {
			if rng.Intn(3) == 0 {
				want = append(want, int32(r))
			} else {
				sel[r>>6] &^= 1 << uint(r&63)
			}
		}
		if got := SelRows(sel, rows[:0]); SelCount(sel) != len(want) || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("n=%d: SelRows = %v (count %d), want %v", n, got, SelCount(sel), want)
		}
	}
}

// TestColumnPool checks that a walk's columns are of the kinds asked for,
// n rows long and distinct, and that a warm pool allocates nothing.
func TestColumnPool(t *testing.T) {
	var p ColumnPool
	kinds := []bool{false, true, false}
	walk := func(n int) {
		p.Reset(n)
		a, b := p.Take(kinds), p.Take(kinds)
		for c, str := range kinds {
			if (a[c].V != nil) != str || (a[c].U != nil) == str || len(a[c].U)+len(a[c].V) != n {
				t.Fatalf("n=%d column %d: %d numbers, %d values, want string=%v", n, c, len(a[c].U), len(a[c].V), str)
			}
			a[c].Set(n-1, U64(1))
			b[c].Set(n-1, U64(2))
			if a[c].At(n-1).U != 1 {
				t.Fatalf("n=%d column %d: two columns of one walk share storage", n, c)
			}
		}
		for i := 0; i < 8; i++ { // past the first header array
			p.Take(kinds[:2])
		}
		if a[1].V == nil || a[1].At(n-1).U != 1 || len(p.Take(kinds)) != 3 {
			t.Fatalf("n=%d: growing the header array invalidated earlier headers", n)
		}
	}
	walk(256)
	walk(65)
	if allocs := testing.AllocsPerRun(100, func() { walk(256) }); allocs != 0 {
		t.Fatalf("a warm pool allocates %.1f times per walk", allocs)
	}
}
