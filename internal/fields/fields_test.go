package fields

import (
	"testing"
	"testing/quick"
)

func TestLookupAllRegistered(t *testing.T) {
	for _, id := range All() {
		info := Lookup(id)
		if info.ID != id {
			t.Errorf("Lookup(%v).ID = %v", id, info.ID)
		}
		if info.Name == "" {
			t.Errorf("field %d has no name", id)
		}
		if info.Bits <= 0 {
			t.Errorf("field %v has non-positive width %d", id, info.Bits)
		}
		if info.Hierarchical && info.MaxLevel <= 0 {
			t.Errorf("hierarchical field %v has MaxLevel %d", id, info.MaxLevel)
		}
	}
}

func TestByNameRoundTrip(t *testing.T) {
	for _, id := range All() {
		got, ok := ByName(id.String())
		if !ok || got != id {
			t.Errorf("ByName(%q) = %v, %v; want %v", id.String(), got, ok, id)
		}
	}
	if _, ok := ByName("no.such.field"); ok {
		t.Error("ByName accepted an unregistered name")
	}
}

func TestLookupPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Lookup(Unknown) did not panic")
		}
	}()
	Lookup(Unknown)
}

func TestValid(t *testing.T) {
	if Valid(Unknown) {
		t.Error("Valid(Unknown) = true")
	}
	if !Valid(DstIP) {
		t.Error("Valid(DstIP) = false")
	}
	if Valid(numIDs) {
		t.Error("Valid(numIDs) = true")
	}
}

func TestTruncateU64IPv4(t *testing.T) {
	addr := uint64(0xC0A80164) // 192.168.1.100
	cases := []struct {
		level int
		want  uint64
	}{
		{32, 0xC0A80164},
		{24, 0xC0A80100},
		{16, 0xC0A80000},
		{8, 0xC0000000},
		{1, 0x80000000},
		{0, 0},
		{-3, 0},
		{40, 0xC0A80164}, // beyond MaxLevel is identity
	}
	for _, c := range cases {
		if got := TruncateU64(DstIP, addr, c.level); got != c.want {
			t.Errorf("TruncateU64(DstIP, %#x, %d) = %#x, want %#x", addr, c.level, got, c.want)
		}
	}
}

// TestLevelShift holds the shift a loop resolves once to the definition of
// truncation, at every level from below zero to beyond MaxLevel, for the
// 32-bit and the 64-bit hierarchical fields.
func TestLevelShift(t *testing.T) {
	for _, id := range []ID{SrcIP, DstIP, SrcIPv6, DstIPv6} {
		max := Lookup(id).MaxLevel
		for _, v := range []uint64{0, 1, 0xC0A80164, 0x20010db8_85a3_0001, 1<<uint(max-1) | 1, ^uint64(0) >> uint(64-max)} {
			for level := -2; level <= max+3; level++ {
				want := v // at MaxLevel and beyond: the identity
				switch {
				case level <= 0:
					want = 0
				case level < max:
					want = v &^ (1<<uint(max-level) - 1)
				}
				s := LevelShift(id, level)
				if got := v >> s << s; got != want || TruncateU64(id, v, level) != want {
					t.Errorf("%s %#x level %d: shift %d gives %#x, TruncateU64 %#x, want %#x",
						id, v, level, s, got, TruncateU64(id, v, level), want)
				}
			}
		}
	}
	for _, id := range []ID{Proto, DNSQName, Unknown, numIDs} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("LevelShift(%d) did not panic", id)
				}
			}()
			LevelShift(id, 4)
		}()
	}
}

func TestTruncateU64PanicsOnFlatField(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("TruncateU64 on flat field did not panic")
		}
	}()
	TruncateU64(Proto, 6, 4)
}

// Property: truncation is idempotent and monotone in coarseness — truncating
// to level l then to a coarser level k equals truncating directly to k.
func TestTruncateComposition(t *testing.T) {
	f := func(v uint64, lRaw, kRaw uint8) bool {
		l := int(lRaw%32) + 1
		k := int(kRaw%32) + 1
		if k > l {
			l, k = k, l
		}
		direct := TruncateU64(DstIP, v&0xffffffff, k)
		composed := TruncateU64(DstIP, TruncateU64(DstIP, v&0xffffffff, l), k)
		idem := TruncateU64(DstIP, direct, k)
		return direct == composed && idem == direct
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a truncated address is always ≤ the original and shares the top
// `level` bits.
func TestTruncatePrefixPreserving(t *testing.T) {
	f := func(v uint64, lRaw uint8) bool {
		level := int(lRaw % 33)
		addr := v & 0xffffffff
		got := TruncateU64(DstIP, addr, level)
		if got > addr {
			return false
		}
		if level > 0 && got>>(32-uint(level)) != addr>>(32-uint(level)) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFlagConstants(t *testing.T) {
	// Query 1 filters on tcp.flags == 2, which must be exactly SYN.
	if FlagSYN != 2 {
		t.Errorf("FlagSYN = %d, want 2", FlagSYN)
	}
	all := FlagFIN | FlagSYN | FlagRST | FlagPSH | FlagACK | FlagURG
	if all != 0x3f {
		t.Errorf("flag bits overlap or skip: union = %#x", all)
	}
}
