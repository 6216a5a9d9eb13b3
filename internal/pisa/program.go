package pisa

import (
	"fmt"

	"repro/internal/compile"
	"repro/internal/query"
)

// Side distinguishes the two pipelines of a join query (matching
// stream.Side but kept independent so the packages stay decoupled).
type Side uint8

const (
	SideLeft  Side = 0
	SideRight Side = 1
)

// InstanceSpec describes one (query, refinement level, side) pipeline as
// installed on the switch: its compiled tables, how many run here, where
// they are placed, and how the registers are sized.
type InstanceSpec struct {
	QID   uint16
	Level uint8
	Side  Side

	// Ops is the (augmented) dataflow pipeline; Tables its lowering.
	Ops    []query.Op
	Tables []compile.Table
	// CutAt is the number of leading tables executed on the switch.
	CutAt int
	// StageOf[t] is the pipeline stage of table t (t < CutAt). Stages must
	// be strictly increasing along the table sequence.
	StageOf []int
	// RegEntries[t] is the per-chain slot count n for stateful table t.
	RegEntries []int
	// NeedsPacket asks the mirror to carry the original frame because the
	// stream processor's portion parses it further (payload queries,
	// packet-phase joins).
	NeedsPacket bool
}

// Name identifies the instance in logs and dynamic table updates.
func (s *InstanceSpec) Name() string {
	return fmt.Sprintf("q%d/r%d/s%d", s.QID, s.Level, s.Side)
}

// MetaBits is the instance's PHV footprint when any table runs on the
// switch.
func (s *InstanceSpec) MetaBits() int {
	if s.CutAt == 0 {
		return 0
	}
	return compile.MetaBits(s.Ops)
}

// statefulSlotBits returns the register footprint of table t.
func (s *InstanceSpec) statefulSlotBits(cfg Config, t int) int64 {
	tab := &s.Tables[t]
	return RegisterBits(s.RegEntries[t], cfg.RegisterChains, tab.KeyBits, tab.ValBits)
}

// Program is the full switch configuration: every installed instance.
type Program struct {
	Instances []*InstanceSpec
}

// CheckLowering reports whether every instance's ops are a pipeline the
// evaluator can run (query.CheckOps) and its switch tables, up to the cut,
// are the compiler's lowering of them — the last one possibly without its
// merged threshold, which a network-wide deployment leaves to the stream
// processor. Validate and the walk take both on trust, and the planner's
// programs hold them by construction; a program decoded from a control
// connection must be checked first, or the walk indexes past its tuples.
func (p *Program) CheckLowering() error {
	for i, inst := range p.Instances {
		if inst == nil {
			return fmt.Errorf("pisa: instance %d is nil", i)
		}
		if err := query.CheckOps(inst.Ops); err != nil {
			return fmt.Errorf("pisa: %s: %w", inst.Name(), err)
		}
		lowered := compile.CompilePipeline(inst.Ops).Tables
		if inst.CutAt < 0 || inst.CutAt > len(inst.Tables) || inst.CutAt > len(lowered) {
			return fmt.Errorf("pisa: %s: cut %d out of range", inst.Name(), inst.CutAt)
		}
		for t, tab := range inst.Tables[:inst.CutAt] {
			want := lowered[t]
			if t == inst.CutAt-1 && tab.MergedFilterOp < 0 {
				want.MergedFilterOp = -1
			}
			if tab != want {
				return fmt.Errorf("pisa: %s table %d: %+v, but its ops lower to %+v", inst.Name(), t, tab, want)
			}
		}
	}
	return nil
}

// Validate checks a program against the switch constraints — the runtime
// analogue of the planner's ILP constraints C1-C5 — and that its switch-side
// tables reference what the instance carries: a program that crossed the
// control channel is untrusted input.
func (p *Program) Validate(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	statefulPerStage := make([]int, cfg.Stages)
	statelessPerStage := make([]int, cfg.Stages)
	bitsPerStage := make([]int64, cfg.Stages)
	totalMeta := 0

	for i, inst := range p.Instances {
		if inst == nil {
			return fmt.Errorf("pisa: instance %d is nil", i)
		}
		if inst.CutAt < 0 || inst.CutAt > len(inst.Tables) {
			return fmt.Errorf("pisa: %s: cut %d out of range", inst.Name(), inst.CutAt)
		}
		if len(inst.StageOf) < inst.CutAt {
			return fmt.Errorf("pisa: %s: missing stage assignment", inst.Name())
		}
		prev := -1
		for t := 0; t < inst.CutAt; t++ {
			st := inst.StageOf[t]
			if st < 0 || st >= cfg.Stages {
				return fmt.Errorf("pisa: %s table %d: stage %d outside [0,%d) (C3)", inst.Name(), t, st, cfg.Stages)
			}
			if st <= prev {
				return fmt.Errorf("pisa: %s table %d: stage %d not after %d (C4)", inst.Name(), t, st, prev)
			}
			prev = st
			tab := &inst.Tables[t]
			if tab.OpIdx < 0 || tab.OpIdx >= len(inst.Ops) {
				return fmt.Errorf("pisa: %s table %d: op %d outside the instance's %d ops", inst.Name(), t, tab.OpIdx, len(inst.Ops))
			}
			if tab.MergedFilterOp >= len(inst.Ops) {
				return fmt.Errorf("pisa: %s table %d: merged filter op %d outside the instance's %d ops",
					inst.Name(), t, tab.MergedFilterOp, len(inst.Ops))
			}
			if tab.Stateful {
				if len(inst.RegEntries) < inst.CutAt {
					return fmt.Errorf("pisa: %s table %d: %d register sizes for %d switch tables",
						inst.Name(), t, len(inst.RegEntries), inst.CutAt)
				}
				// Bound every factor before multiplying: the product must not
				// overflow past the cap, and the slot count is what gets
				// allocated.
				n, d := int64(inst.RegEntries[t]), int64(cfg.RegisterChains)
				if n <= 0 || tab.KeyBits < 0 || tab.ValBits <= 0 ||
					int64(tab.KeyBits) > cfg.MaxRegisterBitsPerOp || int64(tab.ValBits) > cfg.MaxRegisterBitsPerOp {
					return fmt.Errorf("pisa: %s table %d: %d register entries of %d key and %d value bits",
						inst.Name(), t, n, tab.KeyBits, tab.ValBits)
				}
				if slot := int64(tab.KeyBits + tab.ValBits); n > cfg.MaxRegisterBitsPerOp/(d*slot) {
					return fmt.Errorf("pisa: %s table %d: %d entries of %d bits in %d chains exceed per-op cap %d",
						inst.Name(), t, n, slot, d, cfg.MaxRegisterBitsPerOp)
				}
				statefulPerStage[st]++
				bitsPerStage[st] += inst.statefulSlotBits(cfg, t)
			} else {
				statelessPerStage[st]++
			}
		}
		totalMeta += inst.MetaBits()
	}
	for s := 0; s < cfg.Stages; s++ {
		if statefulPerStage[s] > cfg.StatefulPerStage {
			return fmt.Errorf("pisa: stage %d has %d stateful actions, limit %d (C2)",
				s, statefulPerStage[s], cfg.StatefulPerStage)
		}
		if statelessPerStage[s] > cfg.StatelessPerStage {
			return fmt.Errorf("pisa: stage %d has %d stateless actions, limit %d",
				s, statelessPerStage[s], cfg.StatelessPerStage)
		}
		if bitsPerStage[s] > cfg.RegisterBitsPerStage {
			return fmt.Errorf("pisa: stage %d uses %d register bits, limit %d (C1)",
				s, bitsPerStage[s], cfg.RegisterBitsPerStage)
		}
	}
	if totalMeta > cfg.MetadataBits {
		return fmt.Errorf("pisa: program needs %d metadata bits, PHV budget %d (C5)",
			totalMeta, cfg.MetadataBits)
	}
	return nil
}
