package pisa

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/keytab"
	"repro/internal/query"
	"repro/internal/tuple"
)

// modelBank is the register bank written the obvious way: d explicit chains
// of n entry pointers, the key kept as its values, the entries also listed
// in insertion order. It shares only the hash arithmetic (which fixes where
// a key lands) with RegisterBank — no packing, no tags, no epochs, no store.
type modelBank struct {
	n          int
	chains     [][]*modelEntry
	order      []*modelEntry
	collisions uint64
}

type modelEntry struct {
	key []tuple.Value
	val uint64
}

func newModelBank(n, d int) *modelBank {
	m := &modelBank{n: n, chains: make([][]*modelEntry, d)}
	for c := range m.chains {
		m.chains[c] = make([]*modelEntry, n)
	}
	return m
}

func (m *modelBank) update(vals []tuple.Value, keyIdx []int, v uint64, fn query.AggFunc) (uint64, bool, bool) {
	key := make([]tuple.Value, len(keyIdx))
	h := uint64(keytab.HashSeed)
	for j, c := range keyIdx {
		key[j] = vals[c]
		if key[j].Str {
			h = keytab.HashStr(h, key[j].S)
		} else {
			h = keytab.HashU64(h, key[j].U)
		}
	}
	for c := range m.chains {
		seed := 0x9E3779B97F4A7C15 * uint64(c+1)
		slot := &m.chains[c][fastRange(keytab.Mix64(h^seed), m.n)]
		if *slot == nil {
			*slot = &modelEntry{key: key, val: v}
			m.order = append(m.order, *slot)
			return v, true, true
		}
		if equalKey((*slot).key, key) {
			(*slot).val = fn.Apply((*slot).val, v)
			return (*slot).val, false, true
		}
	}
	m.collisions++
	return 0, false, false
}

func (m *modelBank) reset() uint64 {
	for c := range m.chains {
		clear(m.chains[c])
	}
	col := m.collisions
	m.order, m.collisions = nil, 0
	return col
}

// TestRegisterBankMatchesModel drives randomized update sequences through
// RegisterBank — frame-at-a-time via Update and batch-at-a-time via hashRows
// and foldRow — and through the model: every update must return the same
// (newVal, newKey, ok), and every epoch must end with the same entries in
// the same order and the same collision count. The key shapes cover a packed
// key of one, two and three columns, values at and above 2^32 (wider than a
// 32-bit column, so that key is tagged; at home in a 64-bit one), a
// three-column key past 128 bits (every key tagged) and a string column;
// banks are small enough that updates hit, insert, land in a later chain and
// collide in all d.
func TestRegisterBankMatchesModel(t *testing.T) {
	num := func(max uint64) func(r *rand.Rand) tuple.Value {
		return func(r *rand.Rand) tuple.Value { return tuple.U64(uint64(r.Int63n(int64(max)))) }
	}
	// wide draws mostly small values, sometimes one at or past 2^32.
	wide := func(r *rand.Rand) tuple.Value {
		if r.Intn(4) == 0 {
			return tuple.U64(1<<32 + uint64(r.Intn(3))<<40 + uint64(r.Intn(4)))
		}
		return tuple.U64(uint64(r.Intn(6)))
	}
	str := func(r *rand.Rand) tuple.Value { return tuple.Str(fmt.Sprintf("name-%d", r.Intn(5))) }
	shapes := []struct {
		name    string
		keyBits []int
		draw    []func(*rand.Rand) tuple.Value
		packs   bool // whether the bank can pack keys of this many columns at all
		tagged  bool // whether some key of the sequence must fall back to a tag
	}{
		{"1col", []int{32}, []func(*rand.Rand) tuple.Value{num(40)}, true, false},
		{"1col-too-wide", []int{32}, []func(*rand.Rand) tuple.Value{wide}, true, true},
		{"1col-64bit", []int{64}, []func(*rand.Rand) tuple.Value{wide}, true, false},
		{"2col", []int{32, 16}, []func(*rand.Rand) tuple.Value{num(8), num(6)}, true, false},
		{"3col-80bit", []int{32, 16, 32}, []func(*rand.Rand) tuple.Value{num(4), num(3), wide}, true, true},
		{"3col-128bit", []int{64, 32, 32}, []func(*rand.Rand) tuple.Value{wide, num(3), num(3)}, true, false},
		{"3col-160bit", []int{64, 64, 32}, []func(*rand.Rand) tuple.Value{wide, num(3), num(3)}, false, true},
		{"string", []int{32, 32}, []func(*rand.Rand) tuple.Value{num(6), str}, true, true},
	}
	funcs := []query.AggFunc{query.AggSum, query.AggMax, query.AggBitOr}

	for _, shape := range shapes {
		for _, d := range []int{1, 3} {
			for _, fn := range funcs {
				name := fmt.Sprintf("%s/d%d/%v", shape.name, d, fn)
				t.Run(name, func(t *testing.T) {
					r := rand.New(rand.NewSource(int64(len(name))*7919 + int64(d)))
					const n = 8
					scalar := NewRegisterBank(n, d, shape.keyBits)
					batched := NewRegisterBank(n, d, shape.keyBits)
					model := newModelBank(n, d)
					if got := scalar.packs(len(shape.keyBits)); got != shape.packs {
						t.Fatalf("packs = %v, want %v", got, shape.packs)
					}
					// The tuple carries a value column ahead of the key columns so
					// keyIdx is not the identity.
					keyIdx := make([]int, len(shape.draw))
					for j := range keyIdx {
						keyIdx[j] = j + 1
					}
					var seen struct{ hit, insert, collide, tagged bool }
					for epoch := 0; epoch < 4; epoch++ {
						for batch := 0; batch < 6; batch++ {
							rows := make([][]tuple.Value, 1+r.Intn(40))
							for i := range rows {
								rows[i] = []tuple.Value{tuple.U64(uint64(1 + r.Intn(9)))}
								for _, draw := range shape.draw {
									rows[i] = append(rows[i], draw(r))
								}
							}
							// Batch form: the rows as frame-indexed columns, every
							// other frame of the batch unselected.
							cols := make([]tuple.Column, len(rows[0]))
							var sel []int32
							for c := range cols {
								if rows[0][c].Str {
									cols[c].V = make([]tuple.Value, 2*len(rows))
								} else {
									cols[c].U = make([]uint64, 2*len(rows))
								}
							}
							for i, row := range rows {
								sel = append(sel, int32(2*i))
								for c := range row {
									cols[c].Set(2*i, row[c])
								}
							}
							var ks keyCols
							batched.hashRows(&ks, cols, keyIdx, sel)
							for i, row := range rows {
								v := row[0].U
								wv, wk, wok := model.update(row, keyIdx, v, fn)
								if gv, gk, gok := scalar.Update(row, keyIdx, v, fn); gv != wv || gk != wk || gok != wok {
									t.Fatalf("epoch %d Update(%v) = (%d, %v, %v), model (%d, %v, %v)", epoch, row, gv, gk, gok, wv, wk, wok)
								}
								if gv, gk, gok := batched.foldRow(&ks, i, cols, keyIdx, 2*i, v, fn); gv != wv || gk != wk || gok != wok {
									t.Fatalf("epoch %d foldRow(%v) = (%d, %v, %v), model (%d, %v, %v)", epoch, row, gv, gk, gok, wv, wk, wok)
								}
								seen.hit = seen.hit || (wok && !wk)
								seen.insert = seen.insert || wk
								seen.collide = seen.collide || !wok
								seen.tagged = seen.tagged || ks.tagged[i]
							}
						}
						for _, b := range []*RegisterBank{scalar, batched} {
							if b.Stored() != len(model.order) {
								t.Fatalf("epoch %d: Stored = %d, model holds %d", epoch, b.Stored(), len(model.order))
							}
							for i, want := range model.order {
								if got := b.Entry(i); got.Val != want.val || !equalKey(got.KeyVals, want.key) {
									t.Fatalf("epoch %d: Entry(%d) = %+v, model %+v", epoch, i, got, *want)
								}
							}
							if polled := b.poll(nil); len(polled) != len(model.order) {
								t.Fatalf("epoch %d: poll returned %d aggregates, model holds %d", epoch, len(polled), len(model.order))
							}
						}
						want := model.reset()
						if got := scalar.Reset(); got != want {
							t.Fatalf("epoch %d: Reset = %d collisions, model %d", epoch, got, want)
						}
						if got := batched.Reset(); got != want {
							t.Fatalf("epoch %d: batched Reset = %d collisions, model %d", epoch, got, want)
						}
					}
					if !seen.hit || !seen.insert || !seen.collide {
						t.Errorf("sequence too tame: %+v", seen)
					}
					if seen.tagged != shape.tagged {
						t.Errorf("tagged keys seen = %v, want %v", seen.tagged, shape.tagged)
					}
				})
			}
		}
	}
}

// TestRegisterBankSlotLayout pins the layout the probe's cost rests on: a
// slot is 32 bytes, so two share a cache line, and a packed key round-trips
// through the slot's 128 key bits.
func TestRegisterBankSlotLayout(t *testing.T) {
	if size := unsafe.Sizeof(bankSlot{}); size != 32 {
		t.Fatalf("bankSlot is %d bytes, want 32", size)
	}
	b := NewRegisterBank(4, 1, []int{32, 16, 32})
	var k0, k1 uint64
	ok := true
	for j, u := range []uint64{0xC0A80001, 0xBEEF, 0x0A000001} {
		var fits bool
		k0, k1, fits = packU64(k0, k1, u, b.widths[j])
		ok = ok && fits
	}
	if !ok || k1 != 0xC0A8 || k0 != 0x0001BEEF0A000001 {
		t.Fatalf("packed = %#x:%#x ok=%v", k1, k0, ok)
	}
	if key := b.unpack(k0, k1); len(key) != 3 || key[0].U != 0xC0A80001 || key[1].U != 0xBEEF || key[2].U != 0x0A000001 {
		t.Fatalf("unpack = %v", key)
	}
	if _, _, fits := packU64(0, 0, 1<<16, 16); fits {
		t.Error("a 17-bit value fit a 16-bit column")
	}
}

// TestRegisterBankTagIsOnlyATag builds the two coincidences a random
// sequence never produces. Two different unpackable keys with the same hash
// share a tag and a probe path, so only the comparison against the store
// tells them apart; and a packed key whose 128 bits happen to equal another
// key's tag must not match that tagged slot.
func TestRegisterBankTagIsOnlyATag(t *testing.T) {
	keyIdx := []int{0, 1, 2}
	// The hash folds a column as h = (h ^ u) * prime, so for any first columns
	// a and a2 a second column b2 exists that cancels the difference.
	const a, a2, b, c = 7, 9, 11, 13
	b2 := uint64(b) ^ keytab.HashU64(keytab.HashSeed, a) ^ keytab.HashU64(keytab.HashSeed, a2)
	k1 := []tuple.Value{tuple.U64(a), tuple.U64(b), tuple.U64(c)}
	k2 := []tuple.Value{tuple.U64(a2), tuple.U64(b2), tuple.U64(c)}
	bank := NewRegisterBank(4, 2, []int{64, 64, 32}) // 160 bits: every key is tagged
	if _, newKey, ok := bank.Update(k1, keyIdx, 1, query.AggSum); !newKey || !ok {
		t.Fatal("first key did not insert")
	}
	if _, newKey, ok := bank.Update(k2, keyIdx, 1, query.AggSum); !newKey || !ok {
		t.Fatalf("a second key with the first one's hash was taken for it: newKey=%v ok=%v", newKey, ok)
	}
	if v, newKey, ok := bank.Update(k1, keyIdx, 5, query.AggSum); v != 6 || newKey || !ok {
		t.Fatalf("first key lost: v=%d newKey=%v ok=%v", v, newKey, ok)
	}
	if bank.Stored() != 2 || bank.slots[bank.pos[0]].k0 != bank.slots[bank.pos[1]].k0 {
		t.Fatalf("the two keys were meant to share a tag: stored=%d", bank.Stored())
	}

	// One slot, one chain: every key probes the same slot. The tagged key
	// (second column wider than its 32 bits) leaves its hash there; the packed
	// key is chosen so that its 128 bits are exactly (0, that hash).
	bank = NewRegisterBank(1, 1, []int{64, 32})
	tagged := []tuple.Value{tuple.U64(3), tuple.U64(1 << 40)}
	h := keytab.HashU64(keytab.HashU64(keytab.HashSeed, 3), 1<<40)
	packed := []tuple.Value{tuple.U64(h >> 32), tuple.U64(h & (1<<32 - 1))}
	bank.Update(tagged, []int{0, 1}, 1, query.AggSum)
	if s := bank.slots[0]; s.ref&refTagged == 0 || s.k0 != h || s.k1 != 0 {
		t.Fatalf("tagged slot = %+v, want tag %#x", s, h)
	}
	if _, _, ok := bank.Update(packed, []int{0, 1}, 1, query.AggSum); ok {
		t.Fatal("a packed key matched a slot holding a tag with the same bits")
	}
	if e := bank.Entry(0); e.Val != 1 {
		t.Fatalf("the tagged key's aggregate moved: %+v", e)
	}
}
