package keytab

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/tuple"
)

func key(vals ...tuple.Value) []byte {
	idx := make([]int, len(vals))
	for i := range idx {
		idx[i] = i
	}
	return tuple.AppendKey(nil, vals, idx)
}

func TestTableBasics(t *testing.T) {
	tab := New()
	kv := []tuple.Value{tuple.U64(7), tuple.Str("x")}
	k := key(kv...)
	idx, existed := tab.GetOrInsert(k, kv, []int{0, 1}, 5)
	if existed || idx != 0 {
		t.Fatalf("first insert: idx=%d existed=%v", idx, existed)
	}
	idx2, existed := tab.GetOrInsert(k, kv, []int{0, 1}, 99)
	if !existed || idx2 != idx {
		t.Fatalf("re-insert: idx=%d existed=%v", idx2, existed)
	}
	if tab.Agg(idx) != 5 {
		t.Errorf("Agg = %d, want the first insert's 5", tab.Agg(idx))
	}
	tab.SetAgg(idx, 12)
	if got, ok := tab.Lookup(k); !ok || got != idx || tab.Agg(got) != 12 {
		t.Errorf("Lookup = %d, %v (agg %d)", got, ok, tab.Agg(got))
	}
	got := tab.KeyVals(idx)
	if len(got) != 2 || !got[0].Equal(kv[0]) || !got[1].Equal(kv[1]) {
		t.Errorf("KeyVals = %v", got)
	}
	if string(tab.Key(idx)) != string(k) {
		t.Errorf("Key = %x, want %x", tab.Key(idx), k)
	}
	if _, ok := tab.Lookup(key(tuple.U64(8))); ok {
		t.Error("Lookup found a key never inserted")
	}
}

// TestTableAgainstMap drives a table and a reference map with the same
// random workload across several windows (reset between them) and checks
// contents and insertion order match.
func TestTableAgainstMap(t *testing.T) {
	tab := New()
	r := rand.New(rand.NewSource(7))
	for window := 0; window < 5; window++ {
		ref := make(map[string]uint64)
		var order []string
		// Skewed key space so both hit and miss paths exercise.
		n := 200 + window*700 // later windows force index growth
		for i := 0; i < n; i++ {
			kv := []tuple.Value{tuple.U64(uint64(r.Intn(n / 2)))}
			k := key(kv...)
			idx, existed := tab.GetOrInsert(k, kv, []int{0}, 1)
			if _, inRef := ref[string(k)]; inRef != existed {
				t.Fatalf("window %d op %d: existed=%v, ref says %v", window, i, existed, inRef)
			}
			if existed {
				tab.SetAgg(idx, tab.Agg(idx)+1)
				ref[string(k)]++
			} else {
				ref[string(k)] = 1
				order = append(order, string(k))
			}
		}
		if tab.Len() != len(ref) {
			t.Fatalf("window %d: Len=%d ref=%d", window, tab.Len(), len(ref))
		}
		for i := 0; i < tab.Len(); i++ {
			k := string(tab.Key(i))
			if k != order[i] {
				t.Fatalf("window %d entry %d: key out of insertion order", window, i)
			}
			if tab.Agg(i) != ref[k] {
				t.Fatalf("window %d entry %d: agg=%d ref=%d", window, i, tab.Agg(i), ref[k])
			}
		}
		tab.Reset()
		if tab.Len() != 0 {
			t.Fatal("Reset left entries")
		}
	}
}

func TestResetInvalidatesIndex(t *testing.T) {
	tab := New()
	kv := []tuple.Value{tuple.U64(1)}
	k := key(kv...)
	tab.GetOrInsert(k, kv, nil, 3)
	tab.Reset()
	if _, ok := tab.Lookup(k); ok {
		t.Fatal("Lookup found a key after Reset")
	}
	if idx, existed := tab.GetOrInsert(k, kv, nil, 9); existed || idx != 0 || tab.Agg(0) != 9 {
		t.Fatalf("post-reset insert: idx=%d existed=%v agg=%d", idx, existed, tab.Agg(0))
	}
}

func TestEpochWrapClearsSlots(t *testing.T) {
	tab := New()
	tab.epoch = ^uint32(0) // next Reset wraps
	kv := []tuple.Value{tuple.U64(5)}
	k := key(kv...)
	tab.GetOrInsert(k, kv, nil, 1)
	tab.Reset()
	if tab.epoch != 1 {
		t.Fatalf("epoch after wrap = %d", tab.epoch)
	}
	if _, ok := tab.Lookup(k); ok {
		t.Fatal("stale slot survived the epoch wrap")
	}
}

func TestSteadyStateZeroAlloc(t *testing.T) {
	tab := New()
	keys := make([][]byte, 512)
	kv := make([]tuple.Value, 1)
	for i := range keys {
		kv[0] = tuple.U64(uint64(i))
		keys[i] = key(kv[0])
		tab.GetOrInsert(keys[i], kv, []int{0}, 1)
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		idx, existed := tab.GetOrInsert(keys[i%len(keys)], kv, []int{0}, 1)
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
	// once the arena has grown to fit.
	allocs = testing.AllocsPerRun(100, func() {
		tab.Reset()
		for j := range keys {
			kv[0] = tuple.U64(uint64(j))
			tab.GetOrInsert(keys[j], kv, []int{0}, 1)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state window cycle allocates %.1f/op, want 0", allocs)
	}
}

func TestStoreAppendAllColumns(t *testing.T) {
	var s Store
	kv := []tuple.Value{tuple.U64(1), tuple.Str("ab")}
	idx := s.Append([]byte("k0"), kv, nil, 4)
	idx2 := s.Append([]byte("k1"), kv, []int{1}, 6)
	if s.Len() != 2 || idx != 0 || idx2 != 1 {
		t.Fatalf("Len=%d idx=%d,%d", s.Len(), idx, idx2)
	}
	if got := s.KeyVals(0); len(got) != 2 || !got[0].Equal(kv[0]) {
		t.Errorf("KeyVals(0) = %v", got)
	}
	if got := s.KeyVals(1); len(got) != 1 || !got[0].Equal(kv[1]) {
		t.Errorf("KeyVals(1) = %v", got)
	}
	if string(s.Key(1)) != "k1" || s.Agg(1) != 6 {
		t.Errorf("entry 1 = %q/%d", s.Key(1), s.Agg(1))
	}
}

func BenchmarkGetOrInsertHit(b *testing.B) {
	tab := New()
	keys := make([][]byte, 4096)
	kv := make([]tuple.Value, 1)
	for i := range keys {
		kv[0] = tuple.U64(uint64(i))
		keys[i] = key(kv[0])
		tab.GetOrInsert(keys[i], kv, []int{0}, 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx, _ := tab.GetOrInsert(keys[i&4095], kv, []int{0}, 1)
		tab.SetAgg(idx, tab.Agg(idx)+1)
	}
}

func BenchmarkMapHit(b *testing.B) {
	// The baseline this package replaces: string-keyed map with the same
	// access pattern (string conversion per lookup).
	agg := make(map[string]uint64)
	keys := make([][]byte, 4096)
	kv := make([]tuple.Value, 1)
	for i := range keys {
		kv[0] = tuple.U64(uint64(i))
		keys[i] = key(kv[0])
		agg[string(keys[i])] = 1
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg[string(keys[i&4095])]++
	}
}

func TestHash64Distribution(t *testing.T) {
	// Smoke-check the mask-visible bits: hashing sequential numeric keys
	// into 1024 buckets should not leave most buckets empty.
	buckets := make([]int, 1024)
	kv := make([]tuple.Value, 1)
	for i := 0; i < 8192; i++ {
		kv[0] = tuple.U64(uint64(i))
		buckets[tuple.Hash64(key(kv[0]))&1023]++
	}
	empty := 0
	for _, n := range buckets {
		if n == 0 {
			empty++
		}
	}
	if empty > 10 {
		t.Fatalf("%d/1024 buckets empty over 8192 sequential keys", empty)
	}
}

func ExampleTable() {
	tab := New()
	kv := []tuple.Value{tuple.U64(10)}
	k := tuple.AppendKey(nil, kv, []int{0})
	tab.GetOrInsert(k, kv, []int{0}, 2)
	idx, existed := tab.GetOrInsert(k, kv, []int{0}, 0)
	if existed {
		tab.SetAgg(idx, tab.Agg(idx)+3)
	}
	fmt.Println(tab.Len(), tab.Agg(0))
	// Output: 1 5
}

func TestLookupBulkAndColsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	scalar := New()
	bulk := New()
	for round := 0; round < 20; round++ {
		n := rng.Intn(100) + 1
		// Column-major batch of (key0, key1, payload) rows: a numeric column,
		// a string column, a numeric column.
		cols := []tuple.Column{{U: make([]uint64, n)}, {V: make([]tuple.Value, n)}, {U: make([]uint64, n)}}
		for r := 0; r < n; r++ {
			cols[0].U[r] = uint64(rng.Intn(8))
			cols[1].V[r] = tuple.Str(fmt.Sprintf("k%d", rng.Intn(4)))
			cols[2].U[r] = uint64(rng.Intn(100))
		}
		kvIdx := []int{0, 1}
		var keys []byte
		var ends []uint32
		for r := 0; r < n; r++ {
			keys = tuple.AppendKeyCols(keys, cols, kvIdx, r)
			ends = append(ends, uint32(len(keys)))
		}
		// Scalar model: row-major GetOrInsert in row order.
		for r := 0; r < n; r++ {
			row := tuple.AppendRow(nil, cols, r)
			k := tuple.AppendKey(nil, row, kvIdx)
			if idx, ok := scalar.GetOrInsert(k, row, kvIdx, cols[2].U[r]); ok {
				scalar.SetAgg(idx, scalar.Agg(idx)+cols[2].U[r])
			}
		}
		// Bulk path: LookupBulk, then fold hits / insert misses in row order
		// (re-probing for duplicate-within-batch misses), exactly as the
		// stream engine's reduceCols does.
		idxs := make([]int32, n)
		bulk.LookupBulk(keys, ends, idxs)
		start := uint32(0)
		for r := 0; r < n; r++ {
			k := keys[start:ends[r]]
			start = ends[r]
			if i := idxs[r]; i >= 0 {
				bulk.SetAgg(int(i), bulk.Agg(int(i))+cols[2].U[r])
				continue
			}
			if i, existed := bulk.GetOrInsertCols(k, cols, kvIdx, r, cols[2].U[r]); existed {
				bulk.SetAgg(i, bulk.Agg(i)+cols[2].U[r])
			}
		}
		if scalar.Len() != bulk.Len() {
			t.Fatalf("round %d: len scalar=%d bulk=%d", round, scalar.Len(), bulk.Len())
		}
		for i := 0; i < scalar.Len(); i++ {
			if !bytes.Equal(scalar.Key(i), bulk.Key(i)) || scalar.Agg(i) != bulk.Agg(i) {
				t.Fatalf("round %d entry %d: scalar (%x,%d) bulk (%x,%d)", round, i,
					scalar.Key(i), scalar.Agg(i), bulk.Key(i), bulk.Agg(i))
			}
			sv, bv := scalar.KeyVals(i), bulk.KeyVals(i)
			if len(sv) != len(bv) {
				t.Fatalf("round %d entry %d: keyvals width differ", round, i)
			}
			for j := range sv {
				if !sv[j].Equal(bv[j]) {
					t.Fatalf("round %d entry %d col %d: %v != %v", round, i, j, sv[j], bv[j])
				}
			}
		}
		scalar.Reset()
		bulk.Reset()
	}
}
