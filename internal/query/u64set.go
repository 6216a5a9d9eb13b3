package query

import "math/bits"

// u64Set is a set of uint64 keys in a flat open-addressing table: a power of
// two slots, at most half of them full, linear probing from a multiplicative
// hash — so a probe is a multiply, a shift and, nearly always, one cache
// line, with no bucket chain to chase. Zero marks an empty slot; key zero is
// kept beside the table.
type u64Set struct {
	slots []uint64
	shift uint // 64 - log2(len(slots))
	zero  bool
}

// newU64Set returns an empty set with room for n keys.
func newU64Set(n int) u64Set {
	lg := uint(bits.Len(uint(max(2*n, 2) - 1)))
	return u64Set{slots: make([]uint64, 1<<lg), shift: 64 - lg}
}

// add inserts k; the caller keeps the total within the n the set was made for.
func (s *u64Set) add(k uint64) {
	if k == 0 {
		s.zero = true
		return
	}
	mask := uint64(len(s.slots) - 1)
	for i := k * 0x9E3779B97F4A7C15 >> s.shift; ; i = (i + 1) & mask {
		switch s.slots[i] {
		case 0:
			s.slots[i] = k
			return
		case k:
			return
		}
	}
}

// has reports whether k is in the set.
func (s *u64Set) has(k uint64) bool {
	if k == 0 {
		return s.zero
	}
	mask := uint64(len(s.slots) - 1)
	for i := k * 0x9E3779B97F4A7C15 >> s.shift; ; i = (i + 1) & mask {
		switch s.slots[i] {
		case k:
			return true
		case 0:
			return false
		}
	}
}
