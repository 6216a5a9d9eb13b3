package pisa

import (
	"fmt"
	"math/rand"
	"slices"
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

// foldBatch sets f up as one stateful table's batch over the selected
// frames rows of cols, column 0 holding each frame's value: mode 0 is the
// switch's last table, 1 a mid-pipeline distinct, 2 a mid-pipeline reduce.
// Every mode folds the value column, so a bank fed by foldRows holds what
// the model holds whatever the mode. f's scratch is reused.
func foldBatch(f rowFold, cols []tuple.Column, keyIdx []int, rows []int32, fn query.AggFunc, mode int) rowFold {
	frames := len(cols[0].U)
	sel := append(f.sel[:0], make([]uint64, (frames+63)/64)...)
	for _, r := range rows {
		sel[r>>6] |= 1 << uint(r&63)
	}
	f = rowFold{cols: cols, keyIdx: keyIdx, rows: rows, inc: cols[0].U, fn: fn, sel: sel,
		last: mode == 0, distinct: mode == 1, keys: f.keys, collided: f.collided[:0]}
	if mode == 2 {
		f.agg = make([]uint64, frames)
	}
	return f
}

// foldOutcome checks what foldRows left for frame i against the model's
// update of it: a collided frame is listed and unselected; a last table
// unselects every frame; a distinct keeps first occurrences only; a reduce
// passes every other frame with its running aggregate.
func foldOutcome(f *rowFold, i int, newVal uint64, newKey, ok bool) error {
	collided := slices.Contains(f.collided, int32(i))
	kept := f.sel[i>>6]>>uint(i&63)&1 != 0
	switch {
	case collided != !ok:
		return fmt.Errorf("collided = %v, model ok = %v", collided, ok)
	case !ok || f.last:
		if kept {
			return fmt.Errorf("frame still selected")
		}
	case f.distinct:
		if kept != newKey {
			return fmt.Errorf("selected = %v, model newKey = %v", kept, newKey)
		}
	case !kept || f.agg[i] != newVal:
		return fmt.Errorf("selected = %v with aggregate %d, model %d", kept, f.agg[i], newVal)
	}
	return nil
}

// TestRegisterBankMatchesModel drives randomized update sequences through
// RegisterBank — frame-at-a-time via Update, batch-at-a-time via hashRows
// and foldRow, and a batch per foldRows call — and through the model: every
// update must return the same (newVal, newKey, ok), as far as the batch
// probe's selection, running aggregate and collided rows show it, and every
// epoch must end with the same entries in the same order and the same
// collision count. The batches take turns at being a last table's, a
// mid-pipeline distinct's and a mid-pipeline reduce's. The key shapes cover
// a packed key of one, two and three columns, values at and above 2^32
// (wider than a 32-bit column, so that key is tagged; at home in a 64-bit
// one), a three-column key past 128 bits (every key tagged) and a string
// column; banks are small enough that updates hit, insert, land in a later
// chain and collide in all d.
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
					folded := NewRegisterBank(n, d, shape.keyBits)
					model := newModelBank(n, d)
					var f rowFold
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
							ks := batched.hashRows(nil, cols, keyIdx, sel)
							f = foldBatch(f, cols, keyIdx, sel, fn, batch%3)
							folded.foldRows(&f)
							for i, row := range rows {
								v := row[0].U
								wv, wk, wok := model.update(row, keyIdx, v, fn)
								if err := foldOutcome(&f, 2*i, wv, wk, wok); err != nil {
									t.Fatalf("epoch %d foldRows(%v): %v", epoch, row, err)
								}
								if gv, gk, gok := scalar.Update(row, keyIdx, v, fn); gv != wv || gk != wk || gok != wok {
									t.Fatalf("epoch %d Update(%v) = (%d, %v, %v), model (%d, %v, %v)", epoch, row, gv, gk, gok, wv, wk, wok)
								}
								if gv, gk, gok := batched.foldRow(&ks[i], cols, keyIdx, 2*i, v, fn); gv != wv || gk != wk || gok != wok {
									t.Fatalf("epoch %d foldRow(%v) = (%d, %v, %v), model (%d, %v, %v)", epoch, row, gv, gk, gok, wv, wk, wok)
								}
								seen.hit = seen.hit || (wok && !wk)
								seen.insert = seen.insert || wk
								seen.collide = seen.collide || !wok
								seen.tagged = seen.tagged || ks[i].tagged
							}
						}
						for _, b := range []*RegisterBank{scalar, batched, folded} {
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
						if got := folded.Reset(); got != want {
							t.Fatalf("epoch %d: folded Reset = %d collisions, model %d", epoch, got, want)
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

	// The other way round, through the batch probe's inline chain-0 hit: the
	// packed key holds the slot, and the tagged key whose tag equals its bits
	// must collide rather than hit.
	bank = NewRegisterBank(1, 1, []int{64, 32})
	cols := []tuple.Column{{U: []uint64{packed[0].U, 3}}, {U: []uint64{packed[1].U, 1 << 40}}}
	f := rowFold{cols: cols, keyIdx: []int{0, 1}, rows: []int32{0, 1}, fn: query.AggSum, sel: []uint64{3}}
	bank.foldRows(&f)
	if !slices.Equal(f.collided, []int32{1}) || bank.Stored() != 1 || bank.slots[0].ref != 0 {
		t.Fatalf("collided = %v, stored = %d, slot = %+v: the tagged key hit the packed slot", f.collided, bank.Stored(), bank.slots[0])
	}
}

// fuzzBytes reads a fuzz input a byte at a time, and zeros past its end.
type fuzzBytes []byte

func (in *fuzzBytes) next() byte {
	if len(*in) == 0 {
		return 0
	}
	c := (*in)[0]
	*in = (*in)[1:]
	return c
}

// value reads one key value of a column w bits wide: c < 0x80 is a small
// value (keys collide and repeat), c < 0xC0 one at or just below the top of
// the field, and c >= 0xC0 one wider than the field — for a 64-bit column,
// the next eight bytes. A string column takes one of four names.
func (in *fuzzBytes) value(w int, str bool) tuple.Value {
	c := in.next()
	switch {
	case str:
		return tuple.Str(string(rune('a' + c%4)))
	case c < 0x80:
		return tuple.U64(uint64(c & 0x0F))
	case c < 0xC0:
		return tuple.U64(^uint64(0) >> (64 - w) &^ uint64(c&3))
	case w < 64:
		return tuple.U64(1<<w | uint64(c&0x13)<<(w/2) | uint64(c&3))
	}
	var u uint64
	for i := 0; i < 8; i++ {
		u = u<<8 | uint64(in.next())
	}
	return tuple.U64(u)
}

// FuzzRegisterBank runs the batch probe, foldRows, over a selection of a
// batch's frames, and the end-of-window dump (Stored, Entry, poll, Reset)
// against modelBank, and every batch against refFoldRows on a twin bank, for
// a bank and an update stream read from the input. The first bytes fix the
// bank: 1–4 key columns, each 1–64 bits wide or string-valued, 1–3 chains of
// 1–16 slots, and the aggregation function. Then each batch is a header byte
// (0xFF ends the window: dump, compare, reset; else 1–32 frames, and its top
// three bits mod 3 make the batch a last table's, a mid-pipeline distinct's
// or a mid-pipeline reduce's), a selection byte (bit i%8 selects frame i; 0
// selects all), and per frame its value byte and its key values
// (fuzzBytes.value). One rowFold serves every batch, as the walk's scratch
// does. The seed corpus (testdata/fuzz) holds keys that differ only in their
// high packed word and keys whose values overflow their fields.
func FuzzRegisterBank(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		in := fuzzBytes(raw)
		nk := 1 + int(in.next()%4)
		keyBits, str := make([]int, nk), make([]bool, nk)
		keyIdx := make([]int, nk) // column 0 is the value
		for j := range keyBits {
			c := in.next()
			keyBits[j], str[j], keyIdx[j] = 1+int(c%64), c >= 0xC0, j+1
		}
		d, n := 1+int(in.next()%3), 1+int(in.next()%16)
		fn := query.AggFunc(in.next() % (uint8(query.AggBitOr) + 1))
		bank, model := NewRegisterBank(n, d, keyBits), newModelBank(n, d)
		twin := NewRegisterBank(n, d, keyBits)
		var f, tf rowFold
		dump := func() {
			t.Helper()
			if bank.Stored() != len(model.order) {
				t.Fatalf("Stored = %d, model holds %d", bank.Stored(), len(model.order))
			}
			for i, want := range model.order {
				if got := bank.Entry(i); got.Val != want.val || !equalKey(got.KeyVals, want.key) {
					t.Fatalf("Entry(%d) = %+v, model %+v", i, got, *want)
				}
			}
			if polled := bank.poll(nil); len(polled) != len(model.order) {
				t.Fatalf("poll returned %d aggregates, model holds %d", len(polled), len(model.order))
			}
			twin.Reset()
			if got, want := bank.Reset(), model.reset(); got != want {
				t.Fatalf("Reset = %d collisions, model %d", got, want)
			}
		}
		for len(in) > 0 {
			h := in.next()
			if h == 0xFF {
				dump()
				continue
			}
			frames, sel := 1+int(h%32), in.next()
			cols := make([]tuple.Column, nk+1)
			cols[0].U = make([]uint64, frames)
			for j := range keyBits {
				if str[j] {
					cols[j+1].V = make([]tuple.Value, frames)
				} else {
					cols[j+1].U = make([]uint64, frames)
				}
			}
			var rows []int32
			for i := 0; i < frames; i++ {
				cols[0].U[i] = uint64(in.next())
				for j, w := range keyBits {
					cols[j+1].Set(i, in.value(w, str[j]))
				}
				if sel == 0 || sel>>(i%8)&1 != 0 {
					rows = append(rows, int32(i))
				}
			}
			mode := int(h>>5) % 3
			f, tf = foldBatch(f, cols, keyIdx, rows, fn, mode), foldBatch(tf, cols, keyIdx, rows, fn, mode)
			bank.foldRows(&f)
			refFoldRows(twin, &tf)
			if err := sameFold(bank, twin, &f, &tf); err != nil {
				t.Fatalf("foldRows against refFoldRows, mode %d: %v", mode, err)
			}
			for _, r := range rows {
				row, v := tuple.AppendRow(nil, cols, int(r)), cols[0].U[r]
				wv, wk, wok := model.update(row, keyIdx, v, fn)
				if err := foldOutcome(&f, int(r), wv, wk, wok); err != nil {
					t.Fatalf("foldRows(%v), mode %d: %v", row, mode, err)
				}
			}
		}
		dump()
	})
}

// refHashRows is the column-at-a-time hash the fused kernels replaced, kept
// as their reference: it hashes and packs the key cols[keyIdx...] of every
// frame in rows a column at a time (refHashFirst, then refHashNext per
// further column), works out every row's tag — whether or not the
// kernels' overflow word says some value overflowed — and computes each
// row's chain-0 slot.
func refHashRows(b *RegisterBank, keys []rowKey, cols []tuple.Column, keyIdx []int, rows []int32) []rowKey {
	if cap(keys) < len(rows) {
		keys = make([]rowKey, len(rows))
	}
	keys = keys[:len(rows)]
	packs := b.packs(len(keyIdx))
	var over uint64
	for j, c := range keyIdx {
		col, w := &cols[c], uint8(64)
		if packs {
			w = b.widths[j]
		}
		switch {
		case col.V != nil:
			for k, r := range rows {
				if j == 0 {
					keys[k].h = keytab.HashSeed
				}
				keys[k].h = keytab.HashValue(keys[k].h, &col.V[r])
			}
			packs = false
		case j == 0:
			over |= refHashFirst(keys, col.U, rows, w)
		default:
			over |= refHashNext(keys, col.U, rows, w)
		}
	}
	for k, r := range rows {
		tag := !packs
		for j := 0; !tag && j < len(keyIdx); j++ {
			tag = cols[keyIdx[j]].U[r]>>b.widths[j] != 0
		}
		if keys[k].tagged = tag; tag {
			keys[k].k0, keys[k].k1 = keys[k].h, 0
		}
	}
	seed, entries := b.seeds[0], b.entries
	for k := range keys {
		keys[k].p0 = uint32(fastRange(keytab.Mix64(keys[k].h^seed), entries))
	}
	return keys
}

func refHashFirst(keys []rowKey, u []uint64, rows []int32, w uint8) (over uint64) {
	hi := ^uint64(0) << w
	for k, r := range rows {
		v := u[r]
		keys[k].h, keys[k].k0, keys[k].k1 = keytab.HashU64(keytab.HashSeed, v), v, 0
		over |= v & hi
	}
	return over
}

func refHashNext(keys []rowKey, u []uint64, rows []int32, w uint8) (over uint64) {
	s, t, m := w&63, (64-w)&63, ^uint64(0)
	if w == 64 {
		m = 0
	}
	hi := ^uint64(0) << s & m
	for k, r := range rows {
		v, key := u[r], &keys[k]
		key.h, key.k0, key.k1 = keytab.HashU64(key.h, v), key.k0<<s&m|v, key.k1<<s&m|key.k0>>t
		over |= v & hi
	}
	return over
}

// refFoldRows is foldRows as the switch walk ran it before the batch probe:
// refHashRows, touch, then every row through foldRow's chain walk from
// chain 0, its outcome applied row by row.
func refFoldRows(b *RegisterBank, f *rowFold) {
	f.keys = refHashRows(b, f.keys, f.cols, f.keyIdx, f.rows)
	b.touched += b.touch(f.keys)
	for k, r := range f.rows {
		i := int(r)
		var inc uint64 = 1
		if f.inc != nil {
			inc = f.inc[i]
		}
		newVal, newKey, ok := b.foldRow(&f.keys[k], f.cols, f.keyIdx, i, inc, f.fn)
		switch {
		case !ok:
			f.collided = append(f.collided, r)
			f.sel[i>>6] &^= 1 << uint(i&63)
		case f.last || f.distinct && !newKey:
			f.sel[i>>6] &^= 1 << uint(i&63)
		case f.agg != nil:
			f.agg[i] = newVal
		}
	}
}

// sameFold reports the first difference between two banks and two batch
// probes that should have run alike: their prepared keys, slots, position
// lists, collision counts, selections, aggregates and collided rows.
func sameFold(got, want *RegisterBank, gf, wf *rowFold) error {
	switch {
	case len(gf.keys) != len(wf.keys):
		return fmt.Errorf("%d keys, want %d", len(gf.keys), len(wf.keys))
	case !slices.Equal(gf.keys, wf.keys):
		k := 0
		for gf.keys[k] == wf.keys[k] {
			k++
		}
		return fmt.Errorf("row %d key = %+v, want %+v", k, gf.keys[k], wf.keys[k])
	case !slices.Equal(got.slots, want.slots):
		return fmt.Errorf("slots differ")
	case !slices.Equal(got.pos, want.pos):
		return fmt.Errorf("pos = %v, want %v", got.pos, want.pos)
	case got.collisions != want.collisions:
		return fmt.Errorf("collisions = %d, want %d", got.collisions, want.collisions)
	case !slices.Equal(gf.sel, wf.sel):
		return fmt.Errorf("sel = %x, want %x", gf.sel, wf.sel)
	case !slices.Equal(gf.agg, wf.agg):
		return fmt.Errorf("agg = %v, want %v", gf.agg, wf.agg)
	case !slices.Equal(gf.collided, wf.collided):
		return fmt.Errorf("collided = %v, want %v", gf.collided, wf.collided)
	}
	return nil
}

// TestFoldRowsMatchesReference holds the batch probe — the fused
// hash-and-pack kernels and the inline chain-0 hit — to the column-at-a-time
// hash and row-by-row chain walk it replaced (refFoldRows): random banks of
// 1–4 key columns, each 1–64 bits wide (64 often, the shift that clears
// everything), some string-valued; key values small, at the top of their
// field, wider than it, or any 64 bits; and batches that are a last table's,
// a mid-pipeline distinct's or a mid-pipeline reduce's. After every batch
// the prepared keys, the slots, the position list, the collision count, the
// selection, the running aggregate and the collided rows must be equal; at
// every window end so must the dump.
func TestFoldRowsMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(50))
	var seen struct{ hit, inserted, collided, tagged int }
	for trial := 0; trial < 400; trial++ {
		nk := 1 + r.Intn(4)
		keyBits, str := make([]int, nk), make([]bool, nk)
		keyIdx := make([]int, nk)
		for j := range keyBits {
			keyBits[j], keyIdx[j] = 1+r.Intn(64), j+1
			if r.Intn(3) == 0 {
				keyBits[j] = 64
			}
			str[j] = r.Intn(12) == 0
		}
		value := func(j int) tuple.Value {
			w := keyBits[j]
			switch c := r.Intn(16); {
			case str[j]:
				return tuple.Str(fmt.Sprintf("k%d", r.Intn(4)))
			case c < 10:
				return tuple.U64(uint64(r.Intn(6)))
			case c < 13:
				return tuple.U64(^uint64(0) >> (64 - w) &^ uint64(r.Intn(3)))
			case c < 15 && w < 64:
				return tuple.U64(1<<w | uint64(r.Intn(3)))
			default:
				return tuple.U64(r.Uint64())
			}
		}
		// Rows draw their keys from a small pool, so keys repeat and hit.
		pool := make([][]tuple.Value, 2+r.Intn(30))
		for p := range pool {
			for j := range keyBits {
				pool[p] = append(pool[p], value(j))
			}
		}
		n, d := 1+r.Intn(16), 1+r.Intn(3)
		fn := query.AggFunc(r.Intn(int(query.AggBitOr) + 1))
		got, want := NewRegisterBank(n, d, keyBits), NewRegisterBank(n, d, keyBits)
		var gf, wf rowFold
		for batch := 0; batch < 12; batch++ {
			if r.Intn(5) == 0 {
				for i := 0; i < got.Stored(); i++ {
					if g, w := got.Entry(i), want.Entry(i); g.Val != w.Val || !equalKey(g.KeyVals, w.KeyVals) {
						t.Fatalf("trial %d: Entry(%d) = %+v, want %+v", trial, i, g, w)
					}
				}
				if g, w := got.Reset(), want.Reset(); g != w {
					t.Fatalf("trial %d: Reset = %d collisions, want %d", trial, g, w)
				}
			}
			frames := 1 + r.Intn(150)
			cols := make([]tuple.Column, nk+1)
			cols[0].U = make([]uint64, frames)
			for j := range keyBits {
				if str[j] {
					cols[j+1].V = make([]tuple.Value, frames)
				} else {
					cols[j+1].U = make([]uint64, frames)
				}
			}
			var rows []int32
			for i := 0; i < frames; i++ {
				cols[0].U[i] = uint64(r.Intn(9))
				key := pool[r.Intn(len(pool))]
				for j := range keyBits {
					cols[j+1].Set(i, key[j])
				}
				if r.Intn(4) != 0 {
					rows = append(rows, int32(i))
				}
			}
			mode := r.Intn(3)
			gf = foldBatch(gf, cols, keyIdx, rows, fn, mode)
			wf = foldBatch(wf, cols, keyIdx, rows, fn, mode)
			if mode == 1 {
				gf.inc, wf.inc = nil, nil // a distinct folds a 1 per row
			}
			stored := got.Stored()
			got.foldRows(&gf)
			refFoldRows(want, &wf)
			if err := sameFold(got, want, &gf, &wf); err != nil {
				t.Fatalf("trial %d batch %d (%d key columns %v, str %v, mode %d): %v", trial, batch, nk, keyBits, str, mode, err)
			}
			for k := range rows {
				if gf.keys[k].tagged {
					seen.tagged++
				}
			}
			inserted := got.Stored() - stored
			seen.inserted += inserted
			seen.collided += len(gf.collided)
			seen.hit += len(rows) - inserted - len(gf.collided)
		}
	}
	t.Logf("rows: %+v", seen)
	if seen.hit == 0 || seen.inserted == 0 || seen.collided == 0 || seen.tagged == 0 {
		t.Errorf("sequence too tame: %+v", seen)
	}
}
