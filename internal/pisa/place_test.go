package pisa

import (
	"slices"
	"strings"
	"testing"
)

// TestPlaceFirstFit: Place puts each switch table of two Query 1 instances
// in the first stage after its predecessor's with room left for it (tables
// 0-2 are stateless, table 3 holds 196,608 register bits), refuses what
// Validate refuses, with Validate's message where the stages do not matter,
// and leaves a program Validate accepts unchanged.
func TestPlaceFirstFit(t *testing.T) {
	cases := []struct {
		name   string
		cfg    func(c *Config)
		stages [][]int // per instance; nil when Place must refuse
		err    string
	}{
		{"one stage per table", func(c *Config) {}, [][]int{{0, 1, 2, 3}, {0, 1, 2, 3}}, ""},
		{"one stateful action per stage (C2)", func(c *Config) { c.StatefulPerStage = 1 },
			[][]int{{0, 1, 2, 3}, {0, 1, 2, 4}}, ""},
		{"one register per stage (C1)", func(c *Config) { c.RegisterBitsPerStage = 196_608 },
			[][]int{{0, 1, 2, 3}, {0, 1, 2, 4}}, ""},
		{"one stateless action per stage", func(c *Config) { c.StatelessPerStage = 1 },
			[][]int{{0, 1, 2, 3}, {3, 4, 5, 6}}, ""},
		{"too few stages (C3)", func(c *Config) { c.Stages, c.StatefulPerStage = 4, 1 },
			nil, "q2/r0/s0 table 3 does not fit in stages 3..3"},
		{"stateful actions nowhere", func(c *Config) { c.StatefulPerStage = 0 },
			nil, "q1/r0/s0 table 3 does not fit in stages 3..15"},
		{"per-op register cap", func(c *Config) { c.MaxRegisterBitsPerOp = 64 },
			nil, "q1/r0/s0 table 3: 1024 entries of 64 bits in 3 chains exceed per-op cap 64"},
		{"metadata budget (C5)", func(c *Config) { c.MetadataBits = 200 },
			nil, "program needs 242 metadata bits, PHV budget 200 (C5)"},
		{"bad configuration", func(c *Config) { c.RegisterChains = 0 }, nil, "need at least one register chain"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultConfig()
			c.cfg(&cfg)
			prog := &Program{Instances: []*InstanceSpec{specFor(query1(3), 4, 1024), specFor(query1(3), 4, 1024)}}
			prog.Instances[1].QID = 2
			for _, inst := range prog.Instances {
				inst.StageOf = nil
			}
			err := prog.Place(cfg)
			if c.stages == nil {
				if err == nil || !strings.Contains(err.Error(), c.err) {
					t.Fatalf("Place = %v, want an error containing %q", err, c.err)
				}
				return
			}
			if err != nil {
				t.Fatalf("Place: %v", err)
			}
			for i, inst := range prog.Instances {
				if !slices.Equal(inst.StageOf, c.stages[i]) {
					t.Errorf("%s placed in stages %v, want %v", inst.Name(), inst.StageOf, c.stages[i])
				}
			}
			if err := prog.Validate(cfg); err != nil {
				t.Errorf("Validate refuses the placed program: %v", err)
			}
		})
	}

	// Tables the cut leaves to the stream processor get no stage, and a
	// malformed table is Validate's error before any stage is tried.
	spec := specFor(query1(3), 2, 1024)
	if err := (&Program{Instances: []*InstanceSpec{spec}}).Place(DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(spec.StageOf, []int{0, 1, -1, -1}) {
		t.Errorf("a cut after table 2 placed in stages %v, want [0 1 -1 -1]", spec.StageOf)
	}
	spec = specFor(query1(3), 4, 1024)
	spec.Tables[1].OpIdx = 99
	if err := (&Program{Instances: []*InstanceSpec{spec}}).Place(DefaultConfig()); err == nil ||
		!strings.Contains(err.Error(), "q1/r0/s0 table 1: op 99") {
		t.Errorf("Place = %v, want the op index refused", err)
	}
}

// TestRegisterSize: a stateful table's registers are EntriesFor's size
// until the d chains would pass the per-op budget, then the largest power
// of two whose chains fit it, and never below 256 slots.
func TestRegisterSize(t *testing.T) {
	tab := &specFor(query1(3), 4, 1024).Tables[3] // 64-bit slots
	cfg := DefaultConfig()                        // 3 chains, 4 Mb per op
	for _, c := range []struct {
		maxOp  int64
		keys   uint64
		n      int
		capped bool
	}{
		{4 << 20, 0, 256, false},
		{4 << 20, 1000, 2048, false},
		{4 << 20, 1 << 20, 16384, true}, // 3 × 16384 × 64 bits = 3 Mb
		{3 << 20, 1 << 20, 16384, true}, // exactly the budget
		{1 << 10, 1000, 256, true},      // no size fits: the floor
	} {
		cfg.MaxRegisterBitsPerOp = c.maxOp
		n, bits, capped := cfg.RegisterSize(tab, c.keys)
		if n != c.n || capped != c.capped || bits != RegisterBits(n, cfg.RegisterChains, tab.KeyBits, tab.ValBits) {
			t.Errorf("per-op budget %d, %d keys: %d slots of %d bits, capped %v; want %d slots, capped %v",
				c.maxOp, c.keys, n, bits, capped, c.n, c.capped)
		}
	}
}
