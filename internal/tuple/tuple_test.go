package tuple

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/fields"
)

// TestValueEqualAndLess holds Equal, Less and Compare to one order.
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
		{Str(""), U64(0), false, false},
		{U64(0), U64(1<<64 - 1), false, true},
	}
	for _, c := range cases {
		if got := c.a.Equal(c.b); got != c.equal {
			t.Errorf("%v.Equal(%v) = %v, want %v", c.a, c.b, got, c.equal)
		}
		if got := c.a.Less(c.b); got != c.less {
			t.Errorf("%v.Less(%v) = %v, want %v", c.a, c.b, got, c.less)
		}
		want := 1
		switch {
		case c.equal:
			want = 0
		case c.less:
			want = -1
		}
		if got := c.a.Compare(c.b); got != want {
			t.Errorf("%v.Compare(%v) = %d, want %d", c.a, c.b, got, want)
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
