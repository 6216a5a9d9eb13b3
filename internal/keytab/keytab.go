// Package keytab provides the flat keyed-state containers backing Sonata's
// per-tuple hot paths: the stream processor's reduce/distinct window state,
// and the switch register banks' key side tables.
//
// General-purpose Go maps force an encoded key (one allocation) per lookup
// and a values-slice allocation per new key. Telemetry state has a much
// narrower contract — a table's key columns and their kinds are fixed when
// it is built, state lives exactly one window and is then drained in full
// and thrown away — so it fits a purpose-built layout: per-key payload
// (aggregate + key columns) in parallel flat slices, and an open-addressing
// index over them whose 32-byte slots hold the key itself. Keys are hashed
// and compared as column values, never encoded to bytes. A lookup of an
// existing key allocates nothing; a window reset is O(1) (epoch bump + slice
// truncation) and keeps every backing array for the next window.
//
// Invariants (DESIGN.md "Column-keyed state invariants"):
//
//   - Entry indices are dense and insertion-ordered: iterating 0..Len()-1
//     visits keys in first-touch order, which makes window flushes
//     deterministic (maps iterate in random order).
//   - Handed-out KeyVals slices alias internal storage: they are invalidated
//     by the next insert (growth may reallocate) and overwritten after Reset
//     once new keys arrive. Callers either consume them immediately or copy.
//   - Capacity only grows. Steady-state windows over a stable working set
//     run allocation-free.
package keytab

import "repro/internal/tuple"

// The key hash is an FNV-1a-style fold over each key column's content,
// shared by the switch's register banks and the stream processor's tables.
// Hash quality affects only probe length (and a bank's collision rate),
// never correctness: every hit compares the full key. HashU64 and HashStr
// are the per-column steps, starting from HashSeed; Mix64 is the avalanche
// that spreads the fold over the bits a power-of-two mask or a range
// reduction keeps.
const (
	HashSeed  = 14695981039346656037
	hashPrime = 1099511628211
)

// HashU64 folds a numeric column value into h.
func HashU64(h, u uint64) uint64 { return (h ^ u) * hashPrime }

// HashStr folds a string column value into h.
func HashStr(h uint64, s string) uint64 {
	h = (h ^ uint64(len(s))) * hashPrime
	for j := 0; j < len(s); j++ {
		h = (h ^ uint64(s[j])) * hashPrime
	}
	return h
}

// HashValue folds v by its kind: HashStr for a string, HashU64 otherwise.
func HashValue(h uint64, v *tuple.Value) uint64 {
	if v.Str {
		return HashStr(h, v.S)
	}
	return HashU64(h, v.U)
}

// Mix64 is a murmur-style avalanche.
func Mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Store is the flat payload storage shared by Table and RegisterBank-style
// callers that maintain their own index: parallel aggregate and key-column
// slices, one entry per key.
type Store struct {
	aggs  []uint64
	vals  []tuple.Value
	kvEnd []uint32 // kvEnd[i]: end offset of entry i's key columns in vals
}

// Len returns the number of entries.
func (s *Store) Len() int { return len(s.aggs) }

// Append adds an entry holding a copy of the key columns kv and the initial
// aggregate, returning its dense index.
func (s *Store) Append(kv []tuple.Value, agg uint64) int {
	s.vals = append(s.vals, kv...)
	s.kvEnd = append(s.kvEnd, uint32(len(s.vals)))
	s.aggs = append(s.aggs, agg)
	return len(s.aggs) - 1
}

// KeyVals returns entry i's key columns, aliasing internal storage.
func (s *Store) KeyVals(i int) []tuple.Value {
	start := uint32(0)
	if i > 0 {
		start = s.kvEnd[i-1]
	}
	return s.vals[start:s.kvEnd[i]]
}

// Agg returns entry i's aggregate.
func (s *Store) Agg(i int) uint64 { return s.aggs[i] }

// SetAgg overwrites entry i's aggregate.
func (s *Store) SetAgg(i int, v uint64) { s.aggs[i] = v }

// Reset drops all entries, retaining every backing array.
func (s *Store) Reset() {
	s.aggs = s.aggs[:0]
	s.vals = s.vals[:0]
	s.kvEnd = s.kvEnd[:0]
}

// minSlots is the initial index size; power of two, small enough that idle
// operators cost little, large enough that warm-up doubling is short.
const minSlots = 16

// rawCols is how many numeric key columns a slot holds raw.
const rawCols = 3

// slot is one index entry, two per cache line. ref packs (epoch<<32 | entry
// index); the slot is live only when its epoch is the table's current one.
// A raw table keeps its key columns in k0..k2 (zero past the key's width),
// so a probe decides a hit without leaving the slot; a tagged table keeps
// the key's mixed hash in k0, verified against the entry's stored columns.
type slot struct {
	ref        uint64
	k0, k1, k2 uint64
}

// Table is a Store with an open-addressing index over the keys: a
// power-of-two slot array probed linearly from the key's mixed hash. Slots
// are epoch-stamped so Reset invalidates the whole index in O(1) without
// tombstones — the table is insert-only within a window, which is exactly
// the reduce/distinct access pattern.
//
// A table's key kinds are fixed when it is built: a key of at most three
// numeric columns sits raw in its slot; any other key (a string column, or
// more columns) is tagged. Keys handed to a table are of its kinds — a
// numeric column holds a numeric value.
type Table struct {
	Store
	slots  []slot
	mask   uint64
	epoch  uint32
	width  int
	tagged bool
	// rk is UpsertRows' per-row scratch for a raw key: each row's hash and
	// key columns. key holds the key columns a tagged probe hashes and
	// verifies, and an insert stores.
	rk  [1 + rawCols][]uint64
	key []tuple.Value
}

// New returns an empty table over keys whose column j is string-valued
// when str[j] is set.
func New(str []bool) *Table {
	t := &Table{slots: make([]slot, minSlots), mask: minSlots - 1}
	t.Rekey(str)
	return t
}

// Rekey empties the table, as Reset does, and fixes its key kinds anew: a
// caller reusing a grown table for another operator keeps its slot array.
func (t *Table) Rekey(str []bool) {
	t.Reset()
	t.width, t.tagged = len(str), len(str) > rawCols
	for _, s := range str {
		t.tagged = t.tagged || s
	}
}

// UpsertRows resolves the keys cols[keyIdx...] of the given rows in one
// pass, inserting (with a zero aggregate) each key not yet present; idxs[k]
// receives row rows[k]'s entry index. A raw key's columns are hashed a
// column at a time over the rows first, and the rows then probed one by
// one. Insertion is in row order, so the keys new to the table get the
// indices from Len() before the call on, in the order of their first rows —
// a row whose index is the next of those is its key's first touch, wherever
// the key first appeared.
func (t *Table) UpsertRows(cols []tuple.Column, keyIdx []int, rows []int32, idxs []int32) {
	if t.tagged {
		for k, r := range rows {
			t.key = t.key[:0]
			for _, c := range keyIdx {
				t.key = append(t.key, cols[c].At(int(r)))
			}
			i, m, idx := t.findTagged()
			if idx < 0 {
				idx = t.insert(i, slot{k0: m}, 0)
			}
			idxs[k] = int32(idx)
		}
		return
	}
	for j := range t.rk {
		if cap(t.rk[j]) < len(rows) {
			t.rk[j] = make([]uint64, len(rows))
		}
		t.rk[j] = t.rk[j][:len(rows)]
	}
	h := t.rk[0]
	for k := range h {
		h[k] = HashSeed
	}
	for j := len(keyIdx); j < rawCols; j++ {
		clear(t.rk[1+j])
	}
	for j, c := range keyIdx {
		col, dst := cols[c].U, t.rk[1+j]
		for k, r := range rows {
			h[k], dst[k] = HashU64(h[k], col[r]), col[r]
		}
	}
	k0, k1, k2 := t.rk[1], t.rk[2], t.rk[3]
	for k := range rows {
		i, idx := t.findRaw(Mix64(h[k]), k0[k], k1[k], k2[k])
		if idx < 0 {
			idx = t.insert(i, slot{k0: k0[k], k1: k1[k], k2: k2[k]}, 0)
		}
		idxs[k] = int32(idx)
	}
}

// GetOrInsert looks up the key keyVals[kvIdx...] (all of keyVals when kvIdx
// is nil); when absent it inserts a new entry holding a copy of those
// columns and the initial aggregate. It returns the entry's dense index and
// whether the key already existed. The hit path performs no allocation.
func (t *Table) GetOrInsert(keyVals []tuple.Value, kvIdx []int, agg uint64) (int, bool) {
	i, s, idx, _ := t.find(keyVals, kvIdx)
	if idx >= 0 {
		return idx, true
	}
	return t.insert(i, s, agg), false
}

// Lookup returns the entry index of the key keyVals[kvIdx...] (all of
// keyVals when kvIdx is nil), if present; a string value in a raw table's
// key matches nothing. No allocation.
func (t *Table) Lookup(keyVals []tuple.Value, kvIdx []int) (int, bool) {
	_, _, idx, ok := t.find(keyVals, kvIdx)
	return max(idx, 0), ok && idx >= 0
}

// find probes for a row-major key: its entry index, or -1 with the empty
// slot the probe ended at and the slot contents that stand for the key. A
// tagged key's columns are left in t.key; ok is false when a raw table's
// key holds a string.
func (t *Table) find(vals []tuple.Value, idx []int) (i uint64, s slot, e int, ok bool) {
	n := len(idx)
	if idx == nil {
		n = len(vals)
	}
	h, k, ok := uint64(HashSeed), [rawCols]uint64{}, true
	t.key = t.key[:0]
	for j := range n {
		v := &vals[j]
		if idx != nil {
			v = &vals[idx[j]]
		}
		if t.tagged {
			t.key = append(t.key, *v)
		} else {
			h, k[j], ok = HashU64(h, v.U), v.U, ok && !v.Str
		}
	}
	if t.tagged {
		i, m, e := t.findTagged()
		return i, slot{k0: m}, e, true
	}
	i, e = t.findRaw(Mix64(h), k[0], k[1], k[2])
	return i, slot{k0: k[0], k1: k[1], k2: k[2]}, e, ok
}

// findRaw walks a raw table's chain from the mixed hash m for the key
// k0..k2: its entry index, or -1 and the empty slot the walk ended at.
func (t *Table) findRaw(m, k0, k1, k2 uint64) (uint64, int) {
	e := uint64(t.epoch)
	for i := m & t.mask; ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		if s.ref>>32 != e {
			return i, -1
		}
		if s.k0 == k0 && s.k1 == k1 && s.k2 == k2 {
			return i, int(uint32(s.ref))
		}
	}
}

// findTagged is findRaw for the tagged key in t.key, whose tag — its mixed
// hash m — a slot must hold and whose columns the slot's entry must equal.
func (t *Table) findTagged() (i, m uint64, idx int) {
	h := uint64(HashSeed)
	for j := range t.key {
		h = HashValue(h, &t.key[j])
	}
	m, e := Mix64(h), uint64(t.epoch)
	for i = m & t.mask; ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		if s.ref>>32 != e {
			return i, m, -1
		}
		if idx = int(uint32(s.ref)); s.k0 == m && equalKey(t.KeyVals(idx), t.key) {
			return i, m, idx
		}
	}
}

// insert adds an entry for the key s stands for — its columns in t.key when
// the table is tagged — with aggregate agg, recording it at the empty slot
// i a probe ended at and growing the slot array at 3/4 load to keep probe
// chains short. It returns the entry index.
func (t *Table) insert(i uint64, s slot, agg uint64) int {
	if !t.tagged {
		t.key = append(t.key[:0], tuple.U64(s.k0), tuple.U64(s.k1), tuple.U64(s.k2))[:t.width]
	}
	idx := t.Store.Append(t.key, agg)
	s.ref = uint64(t.epoch)<<32 | uint64(idx)
	t.slots[i] = s
	if uint64(t.Len())*4 > uint64(len(t.slots))*3 {
		t.grow()
	}
	return idx
}

// grow doubles the slot array and moves every live slot to the position its
// key hashes to — a raw key's columns are rehashed from the slot, a tagged
// key's hash is its tag; entry indices (and thus iteration order) are
// unchanged.
func (t *Table) grow() {
	old, e := t.slots, uint64(t.epoch)
	t.slots = make([]slot, 2*len(old))
	t.mask = uint64(len(t.slots) - 1)
	t.epoch = 1
	for _, s := range old {
		if s.ref>>32 != e {
			continue
		}
		m := s.k0
		if !t.tagged {
			h, k := uint64(HashSeed), [rawCols]uint64{s.k0, s.k1, s.k2}
			for _, u := range k[:t.width] {
				h = HashU64(h, u)
			}
			m = Mix64(h)
		}
		i := m & t.mask
		for t.slots[i].ref>>32 == 1 {
			i = (i + 1) & t.mask
		}
		s.ref = 1<<32 | s.ref&(1<<32-1)
		t.slots[i] = s
	}
}

// Reset drops all entries and invalidates the index by bumping the slot
// epoch — O(1) except once every 2^32 windows, when the epoch wraps and the
// slot array is cleared to keep stale stamps from matching.
func (t *Table) Reset() {
	t.Store.Reset()
	t.epoch++
	if t.epoch == 0 {
		clear(t.slots)
		t.epoch = 1
	}
}

func equalKey(a, b []tuple.Value) bool {
	for j := range a {
		if !a[j].Equal(b[j]) {
			return false
		}
	}
	return true
}
