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
	// touched only keeps touch's loads alive.
	touched uint32
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

// rowKey is one row's key as hashRows leaves it: its hash, its chain-0
// slot, and its slot key k1:k0 — the packed columns, or the hash itself when
// tagged (the key does not pack). A batch's keys are one array of these, so
// the probe loop reads a row's key from one place.
type rowKey struct {
	h, k0, k1 uint64
	p0        uint32
	tagged    bool
}

// rowFold is one stateful table's batch as foldRows takes it: the rows of
// cols to fold, what each folds, and what the table does with them. keys
// and collided are scratch a caller reuses from batch to batch.
type rowFold struct {
	cols   []tuple.Column
	keyIdx []int
	rows   []int32
	// inc is the frame-indexed value each row folds; nil folds 1 (a
	// distinct's bit, a packet count).
	inc []uint64
	fn  query.AggFunc
	// sel is the batch's selection. A row that stops at the table clears its
	// bit: every row when last (its keys report through the dump), a hit when
	// distinct (a mid-pipeline distinct passes first occurrences), and a
	// collided row, which is appended to collided instead.
	sel            []uint64
	last, distinct bool
	// agg, when not nil, is the frame-indexed column a mid-pipeline reduce
	// writes each passing row's running aggregate into.
	agg      []uint64
	keys     []rowKey
	collided []int32
}

// foldRows runs a stateful table over a batch of rows: hashRows hashes and
// packs every key, touch loads the chain-0 slots back to back, and one loop
// folds the rows into the bank in row order. A packed key's chain-0 hit — a
// live slot holding a packed key with both words equal — is decided inline;
// only inserts, tagged keys and later chains take foldRow's chain walk.
func (b *RegisterBank) foldRows(f *rowFold) {
	f.keys = b.hashRows(f.keys, f.cols, f.keyIdx, f.rows)
	b.touched += b.touch(f.keys)
	slots, epoch, fn, stop := b.slots, b.epoch, f.fn, f.last || f.distinct
	keys := f.keys[:len(f.rows)]
	for k, r := range f.rows {
		i := int(r)
		v := uint64(1)
		if f.inc != nil {
			v = f.inc[i]
		}
		key := &keys[k]
		if s := &slots[key.p0]; s.epoch == epoch && s.ref == 0 && !key.tagged && s.k0 == key.k0 && s.k1 == key.k1 {
			s.agg = fn.Apply(s.agg, v)
			if stop {
				f.sel[i>>6] &^= 1 << uint(i&63)
				continue
			}
			v = s.agg
		} else {
			newVal, newKey, ok := b.foldRow(key, f.cols, f.keyIdx, i, v, fn)
			if !ok || f.last || f.distinct && !newKey {
				if !ok {
					f.collided = append(f.collided, r)
				}
				f.sel[i>>6] &^= 1 << uint(i&63)
				continue
			}
			v = newVal
		}
		if f.agg != nil {
			f.agg[i] = v
		}
	}
}

// hashRows returns in keys, grown if need be, the key cols[keyIdx...] of
// every frame in rows, hashed and packed as values, with its chain-0 slot.
// A key of one to three numeric columns takes one fused pass
// (hashPack1..3); a string key or a wider one goes a column at a time.
// Overflow is only ORed on the way: rows are tagged one by one only when
// some value is wider than its field, or all of them when the key cannot
// pack.
func (b *RegisterBank) hashRows(keys []rowKey, cols []tuple.Column, keyIdx []int, rows []int32) []rowKey {
	if cap(keys) < len(rows) {
		keys = make([]rowKey, len(rows))
	}
	keys = keys[:len(rows)]
	packs := b.packs(len(keyIdx))
	var w [3]uint8 // the fused kernels' column widths; 64 when the key cannot pack
	numeric := len(keyIdx) <= len(w)
	for j, c := range keyIdx {
		if numeric = numeric && cols[c].V == nil; !numeric {
			break
		}
		if w[j] = 64; packs {
			w[j] = b.widths[j]
		}
	}
	var over uint64 // the bits of every value above its field
	seed, entries := b.seeds[0], b.entries
	switch {
	case numeric && len(keyIdx) == 1:
		over = hashPack1(keys, cols[keyIdx[0]].U, rows, w[0], seed, entries)
	case numeric && len(keyIdx) == 2:
		over = hashPack2(keys, cols[keyIdx[0]].U, cols[keyIdx[1]].U, rows, w[0], w[1], seed, entries)
	case numeric && len(keyIdx) == 3:
		over = hashPack3(keys, cols[keyIdx[0]].U, cols[keyIdx[1]].U, cols[keyIdx[2]].U, rows, w, seed, entries)
	default:
		for k := range keys {
			keys[k] = rowKey{h: keytab.HashSeed}
		}
		for j, c := range keyIdx {
			col := &cols[c]
			if col.V != nil {
				for k, r := range rows {
					keys[k].h = keytab.HashValue(keys[k].h, &col.V[r])
				}
				packs = false
				continue
			}
			wj := uint8(64)
			if packs {
				wj = b.widths[j]
			}
			over |= hashNext(keys, col.U, rows, wj)
		}
		for k := range keys {
			keys[k].p0 = uint32(fastRange(keytab.Mix64(keys[k].h^seed), entries))
		}
	}
	if !packs || over != 0 {
		for k, r := range rows {
			key := &keys[k]
			key.tagged = !packs
			for j := 0; !key.tagged && j < len(keyIdx); j++ {
				key.tagged = cols[keyIdx[j]].U[r]>>b.widths[j] != 0
			}
			if key.tagged {
				key.k0, key.k1 = key.h, 0
			}
		}
	}
	return keys
}

// hashPack1 hashes and packs a key of one numeric column a, wa bits wide,
// for every row, with its chain-0 slot; it returns the OR of the bits above
// the field.
func hashPack1(keys []rowKey, a []uint64, rows []int32, wa uint8, seed uint64, entries int) (over uint64) {
	hiA := ^uint64(0) << wa
	keys = keys[:len(rows)]
	for k, r := range rows {
		va := a[r]
		h := keytab.HashU64(keytab.HashSeed, va)
		keys[k] = rowKey{h: h, k0: va, p0: uint32(fastRange(keytab.Mix64(h^seed), entries))}
		over |= va & hiA
	}
	return over
}

// hashPack2 is hashPack1 for a key of two numeric columns: b shifts in
// below a, as hashNext shifts a next column in.
func hashPack2(keys []rowKey, a, b []uint64, rows []int32, wa, wb uint8, seed uint64, entries int) (over uint64) {
	sb, tb, mb := shifts(wb)
	hiA, hiB := ^uint64(0)<<wa, ^uint64(0)<<sb&mb
	keys = keys[:len(rows)]
	for k, r := range rows {
		va, vb := a[r], b[r]
		h := keytab.HashU64(keytab.HashU64(keytab.HashSeed, va), vb)
		keys[k] = rowKey{h: h, k0: va<<sb&mb | vb, k1: va >> tb, p0: uint32(fastRange(keytab.Mix64(h^seed), entries))}
		over |= va&hiA | vb&hiB
	}
	return over
}

// hashPack3 is hashPack1 for a key of three numeric columns a, b, c, w[j]
// bits wide.
func hashPack3(keys []rowKey, a, b, c []uint64, rows []int32, w [3]uint8, seed uint64, entries int) (over uint64) {
	sb, tb, mb := shifts(w[1])
	sc, tc, mc := shifts(w[2])
	hiA, hiB, hiC := ^uint64(0)<<w[0], ^uint64(0)<<sb&mb, ^uint64(0)<<sc&mc
	keys = keys[:len(rows)]
	for k, r := range rows {
		va, vb, vc := a[r], b[r], c[r]
		h := keytab.HashU64(keytab.HashU64(keytab.HashU64(keytab.HashSeed, va), vb), vc)
		lo := va<<sb&mb | vb
		keys[k] = rowKey{h: h, k0: lo<<sc&mc | vc, k1: va>>tb<<sc&mc | lo>>tc, p0: uint32(fastRange(keytab.Mix64(h^seed), entries))}
		over |= va&hiA | vb&hiB | vc&hiC
	}
	return over
}

// shifts returns how a next key column w bits wide shifts into a packed key
// k1:k0 — k0<<s&m | v and k1<<s&m | k0>>t. Counts masked below 64 keep range
// checks out of the loops; m clears what a 64-bit column shifts out.
func shifts(w uint8) (s, t uint8, m uint64) {
	s, t, m = w&63, (64-w)&63, ^uint64(0)
	if w == 64 {
		m = 0
	}
	return s, t, m
}

// hashNext folds the next key column u, w bits wide, into every row's hash
// and shifts it into the packed key, returning the OR of the bits above w.
func hashNext(keys []rowKey, u []uint64, rows []int32, w uint8) (over uint64) {
	s, t, m := shifts(w)
	hi := ^uint64(0) << s & m
	keys = keys[:len(rows)]
	for k, r := range rows {
		v, key := u[r], &keys[k]
		key.h, key.k0, key.k1 = keytab.HashU64(key.h, v), key.k0<<s&m|v, key.k1<<s&m|key.k0>>t
		over |= v & hi
	}
	return over
}

// touch loads the chain-0 slot of every hashed row, back to back: a loop of
// independent loads, so the cache misses of the whole batch are in flight
// together — the memory-level parallelism a probe loop that finishes one row
// before starting the next cannot expose. The fold then finds its slots on
// their way in. The returned sum only keeps the loads alive.
func (b *RegisterBank) touch(keys []rowKey) (sum uint32) {
	for k := range keys {
		sum += b.slots[keys[k].p0].epoch
	}
	return sum
}

// foldRow is the chain walk of a row's key, which is frame i of cols: it
// walks the key's d slots from its chain-0 slot on and folds v into the one
// holding the key, using fn. A packed key hits on equal words in a packed
// slot, reading nothing but that slot's line; a tagged key must also equal a
// tagged slot's store entry. ok is false when all d chains collide (the
// caller shunts the packet to the stream processor); newKey reports the
// key's first touch this window.
func (b *RegisterBank) foldRow(rk *rowKey, cols []tuple.Column, keyIdx []int, i int, v uint64, fn query.AggFunc) (newVal uint64, newKey, ok bool) {
	k0, k1, p := rk.k0, rk.k1, int(rk.p0)
	var key []tuple.Value // a tagged key's columns
	if rk.tagged {
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
		p = c*b.entries + int(fastRange(keytab.Mix64(rk.h^b.seeds[c]), b.entries))
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

// FoldColumn counts a packet into the slot of every row's key — col is a
// one-column key — in row order, by the probe the switch runs, and returns
// how many rows collided in all d chains: the collision-rate model of
// Figure 3.
func (b *RegisterBank) FoldColumn(col tuple.Column) (collided int) {
	n := len(col.U) + len(col.V)
	f := rowFold{cols: []tuple.Column{col}, keyIdx: []int{0}, rows: make([]int32, n),
		fn: query.AggSum, sel: make([]uint64, (n+63)/64), last: true}
	for i := range f.rows {
		f.rows[i] = int32(i)
	}
	b.foldRows(&f)
	return len(f.collided)
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
