package pisa

import (
	"math/bits"

	"repro/internal/keytab"
	"repro/internal/query"
	"repro/internal/tuple"
)

// bankSlot is one register entry, laid out the way a PISA register holds it.
// PISA registers are value arrays; Sonata stores the key alongside the value
// to detect hash collisions (Section 3.1.3). A slot is 32 bytes — two per
// cache line — so a hit or a mismatch reads one line per chain: the epoch
// stamp, the aggregate, and the key bit-packed into 128 bits at the column
// widths the compiler charges for it. A key that does not pack (a string
// column, more than 128 bits, a value wider than its declared field) leaves
// a 64-bit hash tag in k0 instead and is verified against the bank's key
// store; refTagged marks those slots.
type bankSlot struct {
	epoch  uint32 // live when equal to the bank's epoch
	ref    uint32 // index of the key in the bank's store; refTagged when k0 is a tag
	agg    uint64
	k0, k1 uint64
}

const refTagged = 1 << 31

// RegisterBank models the sequence of d hash-indexed registers backing one
// stateful operator: a key probes each register in order with an
// independent hash; it is stored in the first register whose slot is empty
// or already holds it; if all d slots collide, the update fails and the
// packet must be shunted to the stream processor.
type RegisterBank struct {
	entries int
	// slots holds the d chains back to back: chain c is
	// slots[c*entries : (c+1)*entries].
	slots []bankSlot
	// seeds[c] is chain c's hash seed: each chain derives its independent
	// index from one shared key hash — keytab's column fold, the one the
	// stream processor's tables use — mixed with its seed
	// (keytab.Mix64(h^seed)), so the key is hashed once per update instead
	// of once per chain, which matters because every packet reaching a
	// stateful table pays this cost d times otherwise.
	seeds []uint64
	// widths is each key column's bit width; nil when the key as a whole is
	// wider than a slot's 128 key bits, so every key is tagged.
	widths []uint8
	// store holds each stored key's decoded columns in insertion order and
	// pos the slot each one occupies: the store is written on first insert
	// and read at the end-of-window dump (and to verify a tagged key), never
	// on a packed key's probe.
	store keytab.Store
	pos   []uint32
	// key is the scratch the key columns are gathered (or unpacked) into on
	// their way to the store.
	key []tuple.Value
	// epoch stamps live slots; Reset bumps it, emptying every chain in O(1).
	epoch uint32
	// collisions counts failed updates this window.
	collisions uint64
}

// NewRegisterBank allocates d chains of n slots each for keys whose columns
// are keyBits wide (the widths compile.Table.KeyBits sums).
func NewRegisterBank(n, d int, keyBits []int) *RegisterBank {
	if n <= 0 || d <= 0 {
		panic("pisa: register bank must have positive entries and chains")
	}
	b := &RegisterBank{entries: n, slots: make([]bankSlot, n*d), seeds: make([]uint64, d),
		widths: keyWidths(keyBits), key: make([]tuple.Value, 0, len(keyBits)), epoch: 1}
	for i := range b.seeds {
		// Distinct deterministic seeds per chain.
		b.seeds[i] = 0x9E3779B97F4A7C15 * uint64(i+1)
	}
	return b
}

// keyWidths returns the column widths a slot packs a key at, or nil when the
// columns do not fit a slot's 128 key bits.
func keyWidths(keyBits []int) []uint8 {
	widths := make([]uint8, len(keyBits))
	total := 0
	for i, w := range keyBits {
		if w <= 0 || w > 64 {
			return nil
		}
		widths[i], total = uint8(w), total+w
	}
	if total > 128 {
		return nil
	}
	return widths
}

// fastRange maps a full-width hash uniformly onto [0, n) with one multiply
// (Lemire's fast alternative to modulo) — the per-chain slot index runs for
// every packet reaching a stateful table, where a hardware divide is
// measurable.
func fastRange(h uint64, n int) uint64 {
	hi, _ := bits.Mul64(h, uint64(n))
	return hi
}

// packU64 shifts a w-bit column value into the 128-bit packed key k1:k0,
// reporting false when the value is wider than its declared field.
func packU64(k0, k1, u uint64, w uint8) (uint64, uint64, bool) {
	if w == 64 {
		return u, k0, true
	}
	return k0<<w | u, k1<<w | k0>>(64-w), u>>w == 0
}

// packs reports whether a key of nk columns can pack at all.
func (b *RegisterBank) packs(nk int) bool { return b.widths != nil && len(b.widths) == nk }

// keyCols holds the keys of a batch's rows as hashRows leaves them: the hash
// and the packed key of row k, or tagged[k] when that key does not pack.
type keyCols struct {
	h, k0, k1 []uint64
	tagged    []bool
}

// hashRows is the first half of a batch's probe: it hashes and packs the key
// cols[keyIdx...] of every frame in rows, a column at a time
// (keytab.HashU64, keytab.HashValue). The key is hashed and compared as
// values, never encoded to bytes: the register probe is the hottest loop in
// the switch model, and every consumer of bank state (dumps, mirrors) wants
// the columns anyway.
func (b *RegisterBank) hashRows(ks *keyCols, cols []tuple.Column, keyIdx []int, rows []int32) {
	n := len(rows)
	if cap(ks.h) < n {
		ks.h, ks.k0, ks.k1 = make([]uint64, n), make([]uint64, n), make([]uint64, n)
		ks.tagged = make([]bool, n)
	}
	h, k0, k1, tagged := ks.h[:n], ks.k0[:n], ks.k1[:n], ks.tagged[:n]
	ks.h, ks.k0, ks.k1, ks.tagged = h, k0, k1, tagged
	packs := b.packs(len(keyIdx))
	for k := range h {
		h[k], k0[k], k1[k], tagged[k] = keytab.HashSeed, 0, 0, !packs
	}
	for j, c := range keyIdx {
		col := &cols[c]
		switch {
		case col.V != nil:
			for k, r := range rows {
				h[k], tagged[k] = keytab.HashValue(h[k], &col.V[r]), true
			}
		case !packs:
			for k, r := range rows {
				h[k] = keytab.HashU64(h[k], col.U[r])
			}
		default:
			w := b.widths[j]
			for k, r := range rows {
				u := col.U[r]
				h[k] = keytab.HashU64(h[k], u)
				var fits bool
				if k0[k], k1[k], fits = packU64(k0[k], k1[k], u, w); !fits {
					tagged[k] = true
				}
			}
		}
	}
}

// touch computes the first-chain slot index of every hashed row and loads
// the slot, back to back: a loop of independent loads, so the cache misses
// of the whole batch are in flight together — the memory-level parallelism a
// probe loop that finishes one row before starting the next cannot expose.
// foldRow then finds its slots on their way in. The returned sum only keeps
// the loads alive.
func (b *RegisterBank) touch(ks *keyCols) (sum uint32) {
	seed := b.seeds[0]
	for _, h := range ks.h {
		sum += b.slots[fastRange(keytab.Mix64(h^seed), b.entries)].epoch
	}
	return sum
}

// foldRow is the second half: the probe for row k of the keys hashRows
// prepared, which is frame i of cols. It folds v into the key's slot using
// fn; ok is false when all d chains collide (the caller shunts the packet to
// the stream processor), and newKey reports the key's first touch this
// window — the signal for one-packet-per-key reporting.
func (b *RegisterBank) foldRow(ks *keyCols, k int, cols []tuple.Column, keyIdx []int, i int, v uint64, fn query.AggFunc) (newVal uint64, newKey, ok bool) {
	if !ks.tagged[k] {
		return b.fold(ks.h[k], ks.k0[k], ks.k1[k], nil, v, fn)
	}
	key := b.key[:0]
	for _, c := range keyIdx {
		key = append(key, cols[c].At(i))
	}
	b.key = key
	return b.fold(ks.h[k], ks.h[k], 0, key, v, fn)
}

// fold is the probe: it walks the d slots hash h selects and folds v into
// the one holding the key — k1:k0 packed when tagged is nil, else the tag k0
// standing for the key columns tagged, which a matching slot's store entry
// must equal. One predicate decides a hit either way, and a packed key never
// leaves the slot's cache line.
func (b *RegisterBank) fold(h, k0, k1 uint64, tagged []tuple.Value, v uint64, fn query.AggFunc) (newVal uint64, newKey, ok bool) {
	var flag uint32
	if tagged != nil {
		flag = refTagged
	}
	for c, seed := range b.seeds {
		p := c*b.entries + int(fastRange(keytab.Mix64(h^seed), b.entries))
		s := &b.slots[p]
		if s.epoch != b.epoch {
			key := tagged
			if key == nil {
				key = b.unpack(k0, k1)
			}
			// Key columns are copied into the flat store only on first
			// insert, keeping the steady-state probe allocation-free.
			*s = bankSlot{epoch: b.epoch, ref: flag | uint32(b.store.Append(key, 0)),
				agg: v, k0: k0, k1: k1}
			b.pos = append(b.pos, uint32(p))
			return v, true, true
		}
		if s.k0 == k0 && s.k1 == k1 && s.ref&refTagged == flag &&
			(tagged == nil || equalKey(b.store.KeyVals(int(s.ref&^refTagged)), tagged)) {
			s.agg = fn.Apply(s.agg, v)
			return s.agg, false, true
		}
	}
	b.collisions++
	return 0, false, false
}

// unpack decodes a packed key back into its columns (in the bank's scratch)
// for the store.
func (b *RegisterBank) unpack(k0, k1 uint64) []tuple.Value {
	key := b.key[:len(b.widths)]
	for j := len(key) - 1; j >= 0; j-- {
		w := b.widths[j]
		if w == 64 {
			key[j] = tuple.U64(k0)
			k0, k1 = k1, 0
			continue
		}
		key[j] = tuple.U64(k0 & (1<<w - 1))
		k0, k1 = k0>>w|k1<<(64-w), k1>>w
	}
	b.key = key
	return key
}

func equalKey(a, b []tuple.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// FoldColumn folds inc into the slot of every row's key — col is a
// one-column key — in row order, by the probe the batched walk runs, and
// returns how many rows collided in all d chains: the collision-rate model of
// Figure 3.
func (b *RegisterBank) FoldColumn(col tuple.Column, inc uint64, fn query.AggFunc) (collided int) {
	n := len(col.U) + len(col.V)
	rows := make([]int32, n)
	for i := range rows {
		rows[i] = int32(i)
	}
	cols, keyIdx := []tuple.Column{col}, []int{0}
	var ks keyCols
	b.hashRows(&ks, cols, keyIdx, rows)
	for k := range rows {
		if _, _, ok := b.foldRow(&ks, k, cols, keyIdx, k, inc, fn); !ok {
			collided++
		}
	}
	return collided
}

// Entry returns the i-th stored (key columns, value) pair in insertion
// order, 0 <= i < Stored() — deterministic, unlike a map iteration. KeyVals
// alias the bank's storage: they stay valid through Reset but are
// overwritten once the next window's first keys arrive, so callers consume
// or copy them before feeding new traffic — exactly the runtime's
// window-close sequence.
func (b *RegisterBank) Entry(i int) DumpEntry {
	return DumpEntry{KeyVals: b.store.KeyVals(i), Val: b.slots[b.pos[i]].agg}
}

// poll appends every stored key's aggregate, in insertion order — the
// end-of-window register poll. Each is a slot read somewhere in the bank,
// reached by position; only a loop this small keeps a batch of those misses
// in flight, which is why EndWindow polls first and filters afterwards.
func (b *RegisterBank) poll(dst []uint64) []uint64 {
	for _, p := range b.pos {
		dst = append(dst, b.slots[p].agg)
	}
	return dst
}

// Reset clears all slots for the next window and returns the collision
// count of the closing window. The clear is an epoch bump plus slice
// truncation: no slot memory is freed or zeroed (except once every 2^32
// windows when the epoch wraps).
func (b *RegisterBank) Reset() uint64 {
	b.store.Reset()
	b.pos = b.pos[:0]
	b.epoch++
	if b.epoch == 0 {
		clear(b.slots)
		b.epoch = 1
	}
	col := b.collisions
	b.collisions = 0
	return col
}

// Stored returns the number of keys currently held.
func (b *RegisterBank) Stored() int { return b.store.Len() }

// Capacity returns the total slot count across all chains.
func (b *RegisterBank) Capacity() int { return len(b.slots) }

// DumpEntry is one (key, aggregate) pair read from the registers.
type DumpEntry struct {
	KeyVals []tuple.Value
	Val     uint64
}

// RegisterBits is the planner's sizing formula for a stateful operator:
// d chains of n slots, each slot holding key and value.
func RegisterBits(n, d, keyBits, valBits int) int64 {
	return int64(d) * int64(n) * int64(keyBits+valBits)
}

// EntriesFor picks the register size n for an expected key count,
// applying headroom and rounding to a power of two, mirroring how the
// planner configures registers from training data. A floor of 256 slots
// keeps operators whose traffic class was absent from training (zero
// expected keys) from collapsing into immediate collisions when the
// workload shifts — the paper sizes registers "to keep collision rates low
// but still high enough to send a signal" (Section 3.3).
func EntriesFor(expectedKeys uint64) int {
	n := 256
	target := expectedKeys + expectedKeys/2 + 16 // 1.5x headroom
	for uint64(n) < target {
		n <<= 1
	}
	return n
}
