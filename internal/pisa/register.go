package pisa

import (
	"math/bits"

	"repro/internal/compile"
	"repro/internal/keytab"
	"repro/internal/query"
	"repro/internal/tuple"
)

// bankSlot is one register entry, laid out the way a PISA register holds it.
// PISA registers are value arrays; Sonata stores the key alongside the value
// to detect hash collisions (Section 3.1.3). A slot is 32 bytes — two per
// cache line — so a hit or a mismatch reads one line per chain: the epoch
// stamp, the aggregate, and the key bit-packed into 128 bits at the column
// widths the compiler charges for it, unpacked only if the end-of-window dump
// emits it. A key that does not pack (a string column, more than 128 bits, a
// value wider than its declared field) leaves a 64-bit hash tag in k0
// instead, and ref points at its columns in the bank's store of tagged keys.
type bankSlot struct {
	epoch  uint32 // live when equal to the bank's epoch
	ref    uint32 // 0 for a packed key; refTagged | store index for a tagged one
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
	// store holds the columns of each tagged key, written on its first
	// insert; pos is the slot of every stored key, packed or tagged, in
	// insertion order.
	store keytab.Store
	pos   []uint32
	// key is the scratch a tagged key's columns are gathered into.
	key []tuple.Value
	// dump is the arena the end-of-window dump writes key columns into;
	// Reset truncates it.
	dump []tuple.Value
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

// packs reports whether a key of nk columns can pack at all.
func (b *RegisterBank) packs(nk int) bool { return b.widths != nil && len(b.widths) == nk }

// keyCols holds the keys of a batch's rows as hashRows leaves them: row k's
// hash, its chain-0 slot, and its slot key k1:k0 — the packed columns, or
// the hash itself when tagged[k] (the key does not pack).
type keyCols struct {
	h, k0, k1 []uint64
	p0        []uint32
	tagged    []bool
}

// hashRows is the first half of a batch's probe: it hashes and packs the key
// cols[keyIdx...] of every frame in rows as values, a column at a time in two
// small kernels (hashFirst, hashNext), and computes each row's chain-0 slot
// once. Overflow is only ORed on the way: rows are tagged one by one only when
// some value is wider than its field, or all of them when the key cannot pack.
func (b *RegisterBank) hashRows(ks *keyCols, cols []tuple.Column, keyIdx []int, rows []int32) {
	n := len(rows)
	if cap(ks.h) < n {
		ks.h, ks.k0, ks.k1 = make([]uint64, n), make([]uint64, n), make([]uint64, n)
		ks.p0, ks.tagged = make([]uint32, n), make([]bool, n)
	}
	h, k0, k1, p0, tagged := ks.h[:n], ks.k0[:n], ks.k1[:n], ks.p0[:n], ks.tagged[:n]
	ks.h, ks.k0, ks.k1, ks.p0, ks.tagged = h, k0, k1, p0, tagged
	packs := b.packs(len(keyIdx))
	var over uint64 // the bits of every value above its field
	for j, c := range keyIdx {
		col, w := &cols[c], uint8(64)
		if packs {
			w = b.widths[j]
		}
		switch {
		case col.V != nil:
			for k, r := range rows {
				if j == 0 {
					h[k] = keytab.HashSeed
				}
				h[k] = keytab.HashValue(h[k], &col.V[r])
			}
			packs = false
		case j == 0:
			over |= hashFirst(h, k0, k1, col.U, rows, w)
		default:
			over |= hashNext(h, k0, k1, col.U, rows, w)
		}
	}
	if packs && over == 0 {
		clear(tagged)
	} else {
		for k, r := range rows {
			tag := !packs
			for j := 0; !tag && j < len(keyIdx); j++ {
				tag = cols[keyIdx[j]].U[r]>>b.widths[j] != 0
			}
			if tagged[k] = tag; tag {
				k0[k], k1[k] = h[k], 0
			}
		}
	}
	seed, entries := b.seeds[0], b.entries
	for k := range h {
		p0[k] = uint32(fastRange(keytab.Mix64(h[k]^seed), entries))
	}
}

// hashFirst starts the hash and the packed key of every row from its first
// key column u, w bits wide, returning the OR of the bits above w.
func hashFirst(h, k0, k1, u []uint64, rows []int32, w uint8) (over uint64) {
	hi := ^uint64(0) << w
	for k, r := range rows {
		v := u[r]
		h[k], k0[k], k1[k] = keytab.HashU64(keytab.HashSeed, v), v, 0
		over |= v & hi
	}
	return over
}

// hashNext folds the next key column u, w bits wide, into every row's hash
// and shifts it into the packed key, returning the OR of the bits above w.
// Shift counts masked below 64 keep range checks out of the loop; m clears
// what a 64-bit column shifts out.
func hashNext(h, k0, k1, u []uint64, rows []int32, w uint8) (over uint64) {
	s, t, m := w&63, (64-w)&63, ^uint64(0)
	if w == 64 {
		m = 0
	}
	hi := ^uint64(0) << s & m
	for k, r := range rows {
		v := u[r]
		h[k], k0[k], k1[k] = keytab.HashU64(h[k], v), k0[k]<<s&m|v, k1[k]<<s&m|k0[k]>>t
		over |= v & hi
	}
	return over
}

// touch loads the chain-0 slot of every hashed row, back to back: a loop of
// independent loads, so the cache misses of the whole batch are in flight
// together — the memory-level parallelism a probe loop that finishes one row
// before starting the next cannot expose. foldRow then finds its slots on
// their way in. The returned sum only keeps the loads alive.
func (b *RegisterBank) touch(ks *keyCols) (sum uint32) {
	for _, p := range ks.p0 {
		sum += b.slots[p].epoch
	}
	return sum
}

// foldRow is the second half, the probe of row k of the keys hashRows
// prepared, which is frame i of cols: it walks the key's d slots from its
// chain-0 slot on and folds v into the one holding the key, using fn. A
// packed key hits on equal words in a packed slot, reading nothing but that
// slot's line; a tagged key must also equal a tagged slot's store entry. ok
// is false when all d chains collide (the caller shunts the packet to the
// stream processor); newKey reports the key's first touch this window.
func (b *RegisterBank) foldRow(ks *keyCols, k int, cols []tuple.Column, keyIdx []int, i int, v uint64, fn query.AggFunc) (newVal uint64, newKey, ok bool) {
	k0, k1, p := ks.k0[k], ks.k1[k], int(ks.p0[k])
	var key []tuple.Value // a tagged key's columns
	if ks.tagged[k] {
		key = b.key[:0]
		for _, c := range keyIdx {
			key = append(key, cols[c].At(i))
		}
		b.key = key
	}
	for c := 0; ; {
		s := &b.slots[p]
		if s.epoch != b.epoch {
			var ref uint32
			if key != nil {
				ref = refTagged | uint32(b.store.Append(key, 0))
			}
			*s = bankSlot{epoch: b.epoch, ref: ref, agg: v, k0: k0, k1: k1}
			b.pos = append(b.pos, uint32(p))
			return v, true, true
		}
		if s.k0 == k0 && s.k1 == k1 && (s.ref == 0) == (key == nil) &&
			(s.ref == 0 || equalKey(b.store.KeyVals(int(s.ref&^refTagged)), key)) {
			s.agg = fn.Apply(s.agg, v)
			return s.agg, false, true
		}
		if c++; c == len(b.seeds) {
			break
		}
		p = c*b.entries + int(fastRange(keytab.Mix64(ks.h[k]^b.seeds[c]), b.entries))
	}
	b.collisions++
	return 0, false, false
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
	rows := make([]int32, len(col.U)+len(col.V))
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
// order, 0 <= i < Stored() — deterministic, unlike a map iteration. Its
// KeyVals are written into the bank's dump arena (dumpKey).
func (b *RegisterBank) Entry(i int) DumpEntry {
	return DumpEntry{KeyVals: b.dumpKey(i), Val: b.slots[b.pos[i]].agg}
}

// dumpKey appends stored key i's columns to the dump arena and returns them:
// a packed key unpacked from its slot, a tagged one copied from the store.
// They stay valid through Reset, until the next window's dump writes the
// arena again.
func (b *RegisterBank) dumpKey(i int) []tuple.Value {
	s := &b.slots[b.pos[i]]
	if s.ref == 0 {
		return b.unpack(s.k0, s.k1)
	}
	start := len(b.dump)
	b.dump = append(b.dump, b.store.KeyVals(int(s.ref&^refTagged))...)
	return b.dump[start:len(b.dump):len(b.dump)]
}

// unpack appends the columns of the packed key k1:k0 to the dump arena and
// returns them.
func (b *RegisterBank) unpack(k0, k1 uint64) []tuple.Value {
	start := len(b.dump)
	b.dump = append(b.dump, make([]tuple.Value, len(b.widths))...)
	key := b.dump[start:len(b.dump):len(b.dump)]
	for j := len(key) - 1; j >= 0; j-- {
		w := b.widths[j] // a shift by 64 leaves 0, so w == 64 needs no case
		key[j].U, k0, k1 = k0&(1<<w-1), k0>>w|k1<<(64-w), k1>>w
	}
	return key
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
	b.pos, b.dump = b.pos[:0], b.dump[:0]
	b.epoch++
	if b.epoch == 0 {
		clear(b.slots)
		b.epoch = 1
	}
	col := b.collisions
	b.collisions = 0
	return col
}

// Stored returns the number of keys currently held, packed or tagged: one
// recorded slot position each (the store holds the tagged ones only).
func (b *RegisterBank) Stored() int { return len(b.pos) }

// Capacity returns the total slot count across all chains.
func (b *RegisterBank) Capacity() int { return len(b.slots) }

// DumpEntry is one (key, aggregate) pair read from the registers.
type DumpEntry struct {
	KeyVals []tuple.Value
	Val     uint64
}

// RegisterBits is the register footprint of a stateful operator: d chains
// of n slots, each slot holding key and value.
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

// RegisterSize sizes stateful table tab's registers for an expected key
// count: EntriesFor's slot count per chain, capped at the largest power of
// two, 256 at least, whose d chains fit the per-op budget. It returns the
// slot count, the bits the d chains take, and whether the cap bound.
func (c Config) RegisterSize(tab *compile.Table, expectedKeys uint64) (n int, footprint int64, capped bool) {
	want := EntriesFor(expectedKeys)
	n = want
	for n > 256 && RegisterBits(n, c.RegisterChains, tab.KeyBits, tab.ValBits) > c.MaxRegisterBitsPerOp {
		n /= 2
	}
	return n, RegisterBits(n, c.RegisterChains, tab.KeyBits, tab.ValBits), n < want
}
