package keytab

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/tuple"
)

func TestTableBasics(t *testing.T) {
	for _, str := range [][]bool{{false, false}, {false, true}} {
		tab := New(str)
		kv := []tuple.Value{tuple.U64(7), tuple.U64(3)}
		if str[1] {
			kv[1] = tuple.Str("x")
		}
		idx, existed := tab.GetOrInsert(kv, []int{0, 1}, 5)
		if existed || idx != 0 {
			t.Fatalf("%v: first insert: idx=%d existed=%v", str, idx, existed)
		}
		idx2, existed := tab.GetOrInsert(kv, nil, 99)
		if !existed || idx2 != idx {
			t.Fatalf("%v: re-insert: idx=%d existed=%v", str, idx2, existed)
		}
		if tab.Agg(idx) != 5 {
			t.Errorf("%v: Agg = %d, want the first insert's 5", str, tab.Agg(idx))
		}
		tab.SetAgg(idx, 12)
		if got, ok := tab.Lookup(kv, nil); !ok || got != idx || tab.Agg(got) != 12 {
			t.Errorf("%v: Lookup = %d, %v (agg %d)", str, got, ok, tab.Agg(got))
		}
		got := tab.KeyVals(idx)
		if len(got) != 2 || !got[0].Equal(kv[0]) || !got[1].Equal(kv[1]) {
			t.Errorf("%v: KeyVals = %v", str, got)
		}
		// The same columns reached through an index, in another order.
		if got, ok := tab.Lookup([]tuple.Value{kv[1], tuple.U64(0), kv[0]}, []int{2, 0}); !ok || got != idx {
			t.Errorf("%v: indexed Lookup = %d, %v", str, got, ok)
		}
		if _, ok := tab.Lookup([]tuple.Value{tuple.U64(8), kv[1]}, nil); ok {
			t.Errorf("%v: Lookup found a key never inserted", str)
		}
		// Kind matters: a string never matches a numeric column's value.
		if _, ok := tab.Lookup([]tuple.Value{tuple.Str("7"), kv[1]}, nil); ok {
			t.Errorf("%v: Lookup matched a string against a numeric column", str)
		}
	}
}

// keyShape is one kind of key a map-model test drives a table with: its
// column kinds and a generator of keys, drawn from a space small enough to
// guarantee hits.
type keyShape struct {
	name string
	str  []bool
	gen  func(r *rand.Rand) []tuple.Value
}

// fold3 is the key hash's fold over three numeric columns.
func fold3(a, b, c uint64) uint64 {
	return HashU64(HashU64(HashU64(HashSeed, a), b), c)
}

var names = []string{"", "a", "ab", "example.com", "u\x00\x00\x00\x00\x00\x00\x00\x01"}

var keyShapes = []keyShape{
	{"none", []bool{}, func(*rand.Rand) []tuple.Value { return []tuple.Value{} }},
	{"raw1", []bool{false}, func(r *rand.Rand) []tuple.Value {
		// /8-aligned values differ only in high bits: the mix must spread them.
		return []tuple.Value{tuple.U64(uint64(r.Intn(300)) << 24)}
	}},
	{"raw3", []bool{false, false, false}, func(r *rand.Rand) []tuple.Value {
		// Many keys agree on their first two columns.
		return []tuple.Value{tuple.U64(uint64(r.Intn(3))), tuple.U64(uint64(r.Intn(3))), tuple.U64(uint64(r.Intn(40)))}
	}},
	{"string", []bool{false, true}, func(r *rand.Rand) []tuple.Value {
		return []tuple.Value{tuple.U64(uint64(r.Intn(30))), tuple.Str(names[r.Intn(len(names))])}
	}},
	{"wide4", []bool{false, false, false, false}, func(r *rand.Rand) []tuple.Value {
		// Keys agreeing on their first three columns, and pairs whose hashes
		// — the tags — are equal: d' = d ^ fold(a,b,c) ^ fold(a,b,c') makes
		// the four-column fold of (a,b,c',d') that of (a,b,c,d).
		a, b, c, d := uint64(r.Intn(2)), uint64(r.Intn(2)), uint64(r.Intn(2)), uint64(r.Intn(40))
		if r.Intn(3) == 0 {
			d ^= fold3(a, b, c) ^ fold3(a, b, c+1000)
			c += 1000
		}
		return []tuple.Value{tuple.U64(a), tuple.U64(b), tuple.U64(c), tuple.U64(d)}
	}},
}

// mapModel is a keyed table's reference: entry indices in first-touch order
// by encoded key, each entry's key columns and aggregate.
type mapModel struct {
	idx  map[string]int
	keys [][]tuple.Value
	aggs []uint64
}

func newMapModel() *mapModel { return &mapModel{idx: make(map[string]int)} }

// encode is vals as a map key: their String forms — a number in decimal, a
// string quoted — each closed by a comma, which no number holds and a quoted
// string holds only inside its quotes.
func encode(vals []tuple.Value) string {
	var b []byte
	for _, v := range vals {
		b = append(append(b, v.String()...), ',')
	}
	return string(b)
}

// touch returns key's entry index and whether it existed, inserting it.
func (m *mapModel) touch(key []tuple.Value) (int, bool) {
	k := encode(key)
	if i, ok := m.idx[k]; ok {
		return i, true
	}
	m.idx[k] = len(m.keys)
	m.keys = append(m.keys, append([]tuple.Value(nil), key...))
	m.aggs = append(m.aggs, 0)
	return len(m.keys) - 1, false
}

// check holds the table's entries to the model's, in order.
func (m *mapModel) check(t *testing.T, what string, tab *Table) {
	t.Helper()
	if tab.Len() != len(m.keys) {
		t.Fatalf("%s: Len=%d, model has %d", what, tab.Len(), len(m.keys))
	}
	for i, want := range m.keys {
		got := tab.KeyVals(i)
		if encode(got) != encode(want) || tab.Agg(i) != m.aggs[i] {
			t.Fatalf("%s: entry %d is %v/%d, model says %v/%d", what, i, got, tab.Agg(i), want, m.aggs[i])
		}
	}
}

// batchCols lays keys out column-major as UpsertRows reads them: a payload
// column first, then the key columns in reverse order, string-valued ones
// as Value columns. keyIdx locates key column j.
func batchCols(str []bool, keys [][]tuple.Value) (cols []tuple.Column, keyIdx []int) {
	w, n := len(str), len(keys)
	cols = make([]tuple.Column, w+1)
	cols[0].U = make([]uint64, n)
	keyIdx = make([]int, w)
	for j := range w {
		c := w - j
		keyIdx[j] = c
		if str[j] {
			cols[c].V = make([]tuple.Value, n)
		} else {
			cols[c].U = make([]uint64, n)
		}
		for r, key := range keys {
			cols[c].Set(r, key[j])
		}
	}
	return cols, keyIdx
}

// driveMapModel runs windows of random batches of every key shape through
// one table, re-keyed between shapes, and a map model side by side. A batch
// goes through UpsertRows over a random selection of its rows when upsert
// is set and through row-major GetOrInsert otherwise; each batch also
// probes with Lookup. Windows grow so that the slot array doubles inside a
// batch with later rows still unprobed; keys repeat inside a batch; one
// window of each shape ends in an epoch wrap.
func driveMapModel(t *testing.T, upsert bool, seed int64) {
	r := rand.New(rand.NewSource(seed))
	tab := New(nil)
	for _, sh := range keyShapes {
		tab.Rekey(sh.str)
		for window := range 6 {
			m := newMapModel()
			what := fmt.Sprintf("%s window %d", sh.name, window)
			for batch := range 2 + window*3 {
				n := 1 + r.Intn(64*(window+1))
				keys := make([][]tuple.Value, n)
				for i := range keys {
					keys[i] = sh.gen(r)
				}
				if upsert && batch%3 != 2 {
					cols, keyIdx := batchCols(sh.str, keys)
					var rows []int32
					for i := range n {
						cols[0].U[i] = uint64(r.Intn(100))
						if r.Intn(4) != 0 {
							rows = append(rows, int32(i))
						}
					}
					idxs := make([]int32, len(rows))
					tab.UpsertRows(cols, keyIdx, rows, idxs)
					for k, row := range rows {
						want, _ := m.touch(keys[row])
						if int(idxs[k]) != want {
							t.Fatalf("%s batch %d row %d: entry %d, model says %d", what, batch, row, idxs[k], want)
						}
						v := cols[0].U[row]
						m.aggs[want] += v
						tab.SetAgg(want, tab.Agg(want)+v)
					}
				} else {
					for i, key := range keys {
						v := uint64(r.Intn(100))
						want, existed := m.touch(key)
						idx, ok := tab.GetOrInsert(key, nil, v)
						if idx != want || ok != existed {
							t.Fatalf("%s batch %d key %d %v: GetOrInsert = %d, %v; model says %d, %v",
								what, batch, i, key, idx, ok, want, existed)
						}
						if existed {
							tab.SetAgg(idx, tab.Agg(idx)+v)
						}
						m.aggs[want] += v
					}
				}
				for range 8 {
					key := sh.gen(r)
					want, inModel := m.idx[encode(key)]
					if got, ok := tab.Lookup(key, nil); ok != inModel || ok && got != want {
						t.Fatalf("%s: Lookup(%v) = %d, %v; model says %d, %v", what, key, got, ok, want, inModel)
					}
				}
			}
			m.check(t, what, tab)
			if window == 3 {
				tab.epoch = ^uint32(0) // this Reset wraps
			}
			tab.Reset()
			if tab.Len() != 0 {
				t.Fatalf("%s: Reset left entries", what)
			}
		}
	}
}

// TestTableAgainstMap drives row-major GetOrInsert and Lookup — the register
// dumps' and shunts' merge, and the join's right index — against a map
// model over raw and tagged keys.
func TestTableAgainstMap(t *testing.T) {
	driveMapModel(t, false, 7)
}

// TestUpsertRowsAgainstMap drives UpsertRows — the stream executor's keyed
// ops — interleaved with row-major GetOrInsert, as a flush and the merges
// between flushes interleave, against a map model over raw and tagged keys.
func TestUpsertRowsAgainstMap(t *testing.T) {
	driveMapModel(t, true, 11)
}

func TestResetInvalidatesIndex(t *testing.T) {
	tab := New([]bool{false})
	kv := []tuple.Value{tuple.U64(1)}
	tab.GetOrInsert(kv, nil, 3)
	tab.Reset()
	if _, ok := tab.Lookup(kv, nil); ok {
		t.Fatal("Lookup found a key after Reset")
	}
	if idx, existed := tab.GetOrInsert(kv, nil, 9); existed || idx != 0 || tab.Agg(0) != 9 {
		t.Fatalf("post-reset insert: idx=%d existed=%v agg=%d", idx, existed, tab.Agg(0))
	}
}

func TestEpochWrapClearsSlots(t *testing.T) {
	for _, str := range [][]bool{{false}, {true}} {
		tab := New(str)
		tab.epoch = ^uint32(0) // next Reset wraps
		kv := []tuple.Value{tuple.U64(5)}
		if str[0] {
			kv[0] = tuple.Str("5")
		}
		tab.GetOrInsert(kv, nil, 1)
		tab.Reset()
		if tab.epoch != 1 {
			t.Fatalf("epoch after wrap = %d", tab.epoch)
		}
		if _, ok := tab.Lookup(kv, nil); ok {
			t.Fatal("stale slot survived the epoch wrap")
		}
	}
}

func TestSteadyStateZeroAlloc(t *testing.T) {
	tab := New([]bool{false})
	const n = 512
	keys := make([][]tuple.Value, n)
	col := tuple.Column{U: make([]uint64, n)}
	rows := make([]int32, n)
	for i := range keys {
		keys[i] = []tuple.Value{tuple.U64(uint64(i))}
		col.U[i], rows[i] = uint64(i), int32(i)
		tab.GetOrInsert(keys[i], nil, 1)
	}
	cols, keyIdx, idxs := []tuple.Column{col}, []int{0}, make([]int32, n)
	tab.UpsertRows(cols, keyIdx, rows, idxs)
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		idx, existed := tab.GetOrInsert(keys[i%n], nil, 1)
		if !existed {
			t.Fatal("steady-state key missing")
		}
		tab.SetAgg(idx, tab.Agg(idx)+1)
		i++
	})
	if allocs != 0 {
		t.Fatalf("steady-state GetOrInsert allocates %.1f/op, want 0", allocs)
	}
	// Reset + re-population over the same working set is also alloc-free
	// once the storage has grown to fit, by either entry.
	allocs = testing.AllocsPerRun(100, func() {
		tab.Reset()
		tab.UpsertRows(cols, keyIdx, rows, idxs)
		tab.Reset()
		for j := range keys {
			tab.GetOrInsert(keys[j], nil, 1)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state window cycle allocates %.1f/op, want 0", allocs)
	}
}

func TestStoreAppendAllColumns(t *testing.T) {
	var s Store
	kv := []tuple.Value{tuple.U64(1), tuple.Str("ab")}
	idx := s.Append(kv, 4)
	idx2 := s.Append(kv[1:], 6)
	if s.Len() != 2 || idx != 0 || idx2 != 1 {
		t.Fatalf("Len=%d idx=%d,%d", s.Len(), idx, idx2)
	}
	if got := s.KeyVals(0); len(got) != 2 || !got[0].Equal(kv[0]) {
		t.Errorf("KeyVals(0) = %v", got)
	}
	if got := s.KeyVals(1); len(got) != 1 || !got[0].Equal(kv[1]) || s.Agg(1) != 6 {
		t.Errorf("entry 1 = %v/%d", got, s.Agg(1))
	}
}

func BenchmarkGetOrInsertHit(b *testing.B) {
	tab := New([]bool{false})
	keys := make([][]tuple.Value, 4096)
	for i := range keys {
		keys[i] = []tuple.Value{tuple.U64(uint64(i))}
		tab.GetOrInsert(keys[i], nil, 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx, _ := tab.GetOrInsert(keys[i&4095], nil, 1)
		tab.SetAgg(idx, tab.Agg(idx)+1)
	}
}

// BenchmarkUpsertRowsHit resolves batches of 256 rows of a two-column
// numeric key, every key present: the stream executor's steady state.
func BenchmarkUpsertRowsHit(b *testing.B) {
	const n, keys = 256, 1 << 16
	tab := New([]bool{false, false})
	r := rand.New(rand.NewSource(1))
	cols := []tuple.Column{{U: make([]uint64, n)}, {U: make([]uint64, n)}}
	rows, idxs := make([]int32, n), make([]int32, n)
	for i := range rows {
		rows[i] = int32(i)
	}
	fill := func() {
		for i := range n {
			k := uint64(r.Intn(keys))
			cols[0].U[i], cols[1].U[i] = k>>8, k&255
		}
	}
	for range keys / n * 4 {
		fill()
		tab.UpsertRows(cols, []int{0, 1}, rows, idxs)
	}
	fill()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.UpsertRows(cols, []int{0, 1}, rows, idxs)
	}
}

func BenchmarkMapHit(b *testing.B) {
	// The baseline this package replaces: string-keyed map with the same
	// access pattern (string conversion per lookup).
	agg := make(map[string]uint64)
	keys := make([][]byte, 4096)
	for i := range keys {
		keys[i] = []byte(encode([]tuple.Value{tuple.U64(uint64(i))}))
		agg[string(keys[i])] = 1
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg[string(keys[i&4095])]++
	}
}

// TestHash64Distribution smoke-checks the mask-visible bits of the 64-bit
// key hash (the column fold, mixed): sequential keys and keys differing
// only above bit 24 hashed into 1024 buckets should not leave most buckets
// empty.
func TestHash64Distribution(t *testing.T) {
	for _, shift := range []uint{0, 24} {
		buckets := make([]int, 1024)
		for i := range 8192 {
			buckets[Mix64(HashU64(HashSeed, uint64(i)<<shift))&1023]++
		}
		empty := 0
		for _, n := range buckets {
			if n == 0 {
				empty++
			}
		}
		if empty > 10 {
			t.Fatalf("shift %d: %d/1024 buckets empty over 8192 keys", shift, empty)
		}
	}
}

func ExampleTable() {
	tab := New([]bool{false})
	kv := []tuple.Value{tuple.U64(10)}
	tab.GetOrInsert(kv, nil, 2)
	idx, existed := tab.GetOrInsert(kv, nil, 0)
	if existed {
		tab.SetAgg(idx, tab.Agg(idx)+3)
	}
	fmt.Println(tab.Len(), tab.Agg(0))
	// Output: 1 5
}
