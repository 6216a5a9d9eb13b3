// Package keytab provides the flat keyed-state containers backing Sonata's
// per-tuple hot paths: the stream processor's reduce/distinct window state,
// and the switch register banks' key side tables.
//
// General-purpose Go maps force a string conversion (one allocation) per
// lookup of a byte-encoded grouping key and a values-slice allocation per
// new key. Telemetry state has a much narrower contract — keys are
// prefix-free byte strings (tuple.AppendKey), state lives exactly one window
// and is then drained in full and thrown away — so it fits a purpose-built
// layout: key bytes in one append-only arena, per-key payload (aggregate +
// decoded key columns) in parallel flat slices, and an open-addressing index
// over them. A lookup of an existing key allocates nothing; a miss costs one
// amortized arena append; a window reset is O(1) (epoch bump + slice
// truncation) and keeps every backing array for the next window.
//
// Invariants (DESIGN.md "keytab invariants"):
//
//   - Entry indices are dense and insertion-ordered: iterating 0..Len()-1
//     visits keys in first-touch order, which makes window flushes
//     deterministic (maps iterate in random order).
//   - Handed-out Key/KeyVals slices alias internal storage: they are
//     invalidated by the next Append/GetOrInsert (growth may reallocate) and
//     overwritten after Reset once new keys arrive. Callers either consume
//     them immediately or copy.
//   - Capacity only grows. Steady-state windows over a stable working set
//     run allocation-free.
package keytab

import (
	"bytes"

	"repro/internal/tuple"
)

// Store is the flat payload storage shared by Table and RegisterBank-style
// callers that maintain their own index: an append-only key arena plus
// parallel aggregate and key-column slices, one entry per key.
type Store struct {
	arena  []byte
	keyEnd []uint32 // keyEnd[i]: end offset of key i in arena
	aggs   []uint64
	vals   []tuple.Value
	kvEnd  []uint32 // kvEnd[i]: end offset of entry i's key columns in vals
}

// Len returns the number of entries.
func (s *Store) Len() int { return len(s.aggs) }

// Append adds an entry holding key, the key columns kvSrc[kvIdx...] (all of
// kvSrc when kvIdx is nil), and the initial aggregate, returning its dense
// index. The key bytes and values are copied into the store.
func (s *Store) Append(key []byte, kvSrc []tuple.Value, kvIdx []int, agg uint64) int {
	if kvIdx != nil {
		for _, j := range kvIdx {
			s.vals = append(s.vals, kvSrc[j])
		}
	} else {
		s.vals = append(s.vals, kvSrc...)
	}
	return s.seal(key, agg)
}

// AppendCols is Append with a column-major key-column source: the entry's
// key columns are row row of cols[kvIdx...] in order. Used by the batched
// stream executor, whose tuples live one column per field.
func (s *Store) AppendCols(key []byte, cols []tuple.Column, kvIdx []int, row int, agg uint64) int {
	for _, j := range kvIdx {
		s.vals = append(s.vals, cols[j].At(row))
	}
	return s.seal(key, agg)
}

// seal completes the entry whose key columns were just appended to vals.
func (s *Store) seal(key []byte, agg uint64) int {
	s.arena = append(s.arena, key...)
	s.keyEnd = append(s.keyEnd, uint32(len(s.arena)))
	s.kvEnd = append(s.kvEnd, uint32(len(s.vals)))
	s.aggs = append(s.aggs, agg)
	return len(s.aggs) - 1
}

// Key returns entry i's key bytes, aliasing the arena.
func (s *Store) Key(i int) []byte {
	start := uint32(0)
	if i > 0 {
		start = s.keyEnd[i-1]
	}
	return s.arena[start:s.keyEnd[i]]
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
	s.arena = s.arena[:0]
	s.keyEnd = s.keyEnd[:0]
	s.aggs = s.aggs[:0]
	s.vals = s.vals[:0]
	s.kvEnd = s.kvEnd[:0]
}

// minSlots is the initial index size; power of two, small enough that idle
// operators cost little, large enough that warm-up doubling is short.
const minSlots = 16

// Table is a Store with an open-addressing index over the keys: 64-bit
// hashes (tuple.Hash64), a power-of-two slot array, linear probing. Slots
// are epoch-stamped so Reset invalidates the whole index in O(1) without
// tombstones — the table is insert-only within a window, which is exactly
// the reduce/distinct access pattern.
type Table struct {
	Store
	// slots packs (epoch<<32 | entry index); a slot is live only when its
	// epoch matches the table's current one.
	slots  []uint64
	hashes []uint64 // per-entry hash, reused when the index grows
	mask   uint32
	epoch  uint32
}

// New returns an empty table.
func New() *Table {
	return &Table{slots: make([]uint64, minSlots), mask: minSlots - 1, epoch: 1}
}

// find probes for key, whose hash is h: its entry index, or -1 and the
// empty slot the probe ended at, where index would record it.
func (t *Table) find(key []byte, h uint64) (idx int, slot uint64) {
	mask := uint64(t.mask)
	for i := h & mask; ; i = (i + 1) & mask {
		s := t.slots[i]
		if uint32(s>>32) != t.epoch {
			return -1, i
		}
		if idx := int(uint32(s)); t.hashes[idx] == h && bytes.Equal(t.Store.Key(idx), key) {
			return idx, i
		}
	}
}

// index records the entry just appended (hash h) at the slot find returned,
// growing at 3/4 load to keep probe chains short.
func (t *Table) index(slot, h uint64, idx int) {
	t.hashes = append(t.hashes, h)
	t.slots[slot] = uint64(t.epoch)<<32 | uint64(uint32(idx))
	if uint64(len(t.hashes))*4 > uint64(len(t.slots))*3 {
		t.grow()
	}
}

// GetOrInsert looks up key; when absent it inserts a new entry with key
// columns kvSrc[kvIdx...] (all of kvSrc when kvIdx is nil) and the initial
// aggregate, copying both. It returns the entry's dense index and whether
// the key already existed. The hit path performs no allocation; key may be a
// reused scratch buffer.
func (t *Table) GetOrInsert(key []byte, kvSrc []tuple.Value, kvIdx []int, agg uint64) (int, bool) {
	h := tuple.Hash64(key)
	idx, slot := t.find(key, h)
	if idx >= 0 {
		return idx, true
	}
	idx = t.Store.Append(key, kvSrc, kvIdx, agg)
	t.index(slot, h, idx)
	return idx, false
}

// GetOrInsertCols is GetOrInsert with a column-major key-column source: on a
// miss the inserted entry's key columns are row row of cols[kvIdx...].
// Hit-path behaviour (and thus entry order) is identical to GetOrInsert with
// the equivalent row-major tuple.
func (t *Table) GetOrInsertCols(key []byte, cols []tuple.Column, kvIdx []int, row int, agg uint64) (int, bool) {
	h := tuple.Hash64(key)
	idx, slot := t.find(key, h)
	if idx >= 0 {
		return idx, true
	}
	idx = t.Store.AppendCols(key, cols, kvIdx, row, agg)
	t.index(slot, h, idx)
	return idx, false
}

// Lookup returns the entry index for key, if present. No allocation.
func (t *Table) Lookup(key []byte) (int, bool) {
	idx, _ := t.find(key, tuple.Hash64(key))
	return max(idx, 0), idx >= 0
}

// LookupBulk resolves a batch of concatenated keys in one pass: key i is
// keys[ends[i-1]:ends[i]] (keys[0:ends[0]] for the first), and idxs[i]
// receives its entry index or -1 when absent. Amortizing the call and the
// slot/hash loads across a batch is the fused-probe half of the stream
// engine's bulk reduce: the caller folds hits and inserts the misses in row
// order afterwards, preserving first-touch entry order exactly.
func (t *Table) LookupBulk(keys []byte, ends []uint32, idxs []int32) {
	mask := uint64(t.mask)
	epoch := t.epoch
	start := uint32(0)
	for ki, end := range ends {
		key := keys[start:end]
		start = end
		h := tuple.Hash64(key)
		i := h & mask
		idxs[ki] = -1
		for {
			s := t.slots[i]
			if uint32(s>>32) != epoch {
				break
			}
			idx := int(uint32(s))
			if t.hashes[idx] == h && bytes.Equal(t.Store.Key(idx), key) {
				idxs[ki] = int32(idx)
				break
			}
			i = (i + 1) & mask
		}
	}
}

// grow doubles the slot array and reindexes every entry from its stored
// hash; entry indices (and thus iteration order) are unchanged.
func (t *Table) grow() {
	n := len(t.slots) * 2
	t.slots = make([]uint64, n)
	t.mask = uint32(n - 1)
	t.epoch = 1
	mask := uint64(t.mask)
	for idx, h := range t.hashes {
		i := h & mask
		for uint32(t.slots[i]>>32) == t.epoch {
			i = (i + 1) & mask
		}
		t.slots[i] = uint64(t.epoch)<<32 | uint64(uint32(idx))
	}
}

// Reset drops all entries and invalidates the index by bumping the slot
// epoch — O(1) except once every 2^32 windows, when the epoch wraps and the
// slot array is cleared to keep stale stamps from matching.
func (t *Table) Reset() {
	t.Store.Reset()
	t.hashes = t.hashes[:0]
	t.epoch++
	if t.epoch == 0 {
		for i := range t.slots {
			t.slots[i] = 0
		}
		t.epoch = 1
	}
}
