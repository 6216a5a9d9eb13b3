package pisa

import (
	"errors"
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
}

// Name identifies the instance in logs and dynamic table updates.
func (s *InstanceSpec) Name() string {
	return fmt.Sprintf("q%d/r%d/s%d", s.QID, s.Level, s.Side)
}

// EntryOp is the dataflow op where the stream processor resumes the
// pipeline: the one after the last op the switch tables cover (a merged
// threshold filter included), 0 when nothing runs on the switch.
func (s *InstanceSpec) EntryOp() int {
	if s.CutAt == 0 {
		return 0
	}
	return s.Tables[s.CutAt-1].LastOp() + 1
}

// MetaBits is the instance's PHV footprint when any table runs on the
// switch.
func (s *InstanceSpec) MetaBits() int {
	if s.CutAt == 0 {
		return 0
	}
	return compile.MetaBits(s.Ops)
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

// Place assigns every instance's switch tables to stages, first-fit in
// program order: each table takes the first stage after its predecessor's
// with room left for it under C1, C2 and the stateless-action limit. It
// overwrites StageOf (partly, when it fails) and, in the same pass, checks
// everything Validate checks — the per-op register cap, C5 and the
// structural checks — so a program it places passes Validate unchanged.
func (p *Program) Place(cfg Config) error { return p.check(cfg, true) }

// Validate checks a program whose stages are given (one decoded from a
// control connection is untrusted input) against the switch constraints —
// the runtime analogue of the paper's Table 2 constraints C1-C5 — replaying
// its StageOf through the per-stage accounting Place fills, and that its
// switch-side tables reference what the instance carries.
func (p *Program) Validate(cfg Config) error { return p.check(cfg, false) }

// check is Place when place is set, Validate otherwise.
func (p *Program) check(cfg Config, place bool) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	use := make([]stageUse, cfg.Stages)
	totalMeta := 0
	for i, inst := range p.Instances {
		if inst == nil {
			return fmt.Errorf("pisa: instance %d is nil", i)
		}
		if inst.CutAt < 0 || inst.CutAt > len(inst.Tables) {
			return fmt.Errorf("pisa: %s: cut %d out of range", inst.Name(), inst.CutAt)
		}
		if place {
			inst.StageOf = make([]int, len(inst.Tables))
			for t := range inst.StageOf {
				inst.StageOf[t] = -1
			}
		} else if len(inst.StageOf) < inst.CutAt {
			return fmt.Errorf("pisa: %s: missing stage assignment", inst.Name())
		}
		prev := -1
		for t := 0; t < inst.CutAt; t++ {
			if err := inst.checkTable(cfg, t); err != nil {
				return err
			}
			st := prev + 1
			if place {
				for st < cfg.Stages && use[st].take(cfg, inst, t) != nil {
					st++
				}
				if st == cfg.Stages {
					return fmt.Errorf("pisa: %s table %d does not fit in stages %d..%d", inst.Name(), t, prev+1, cfg.Stages-1)
				}
				inst.StageOf[t] = st
			} else if st = inst.StageOf[t]; st < 0 || st >= cfg.Stages {
				return fmt.Errorf("pisa: %s table %d: stage %d outside [0,%d) (C3)", inst.Name(), t, st, cfg.Stages)
			} else if st <= prev {
				return fmt.Errorf("pisa: %s table %d: stage %d not after %d (C4)", inst.Name(), t, st, prev)
			} else if err := use[st].take(cfg, inst, t); err != nil {
				return fmt.Errorf("pisa: %s table %d: stage %d is over its %w", inst.Name(), t, st, err)
			}
			prev = st
		}
		totalMeta += inst.MetaBits()
	}
	if totalMeta > cfg.MetadataBits {
		return fmt.Errorf("pisa: program needs %d metadata bits, PHV budget %d (C5)",
			totalMeta, cfg.MetadataBits)
	}
	return nil
}

// checkTable checks that switch table t references what the instance
// carries and, if stateful, that its registers are sized and fit the per-op
// cap.
func (s *InstanceSpec) checkTable(cfg Config, t int) error {
	tab := &s.Tables[t]
	if tab.OpIdx < 0 || tab.OpIdx >= len(s.Ops) {
		return fmt.Errorf("pisa: %s table %d: op %d outside the instance's %d ops", s.Name(), t, tab.OpIdx, len(s.Ops))
	}
	if tab.MergedFilterOp >= len(s.Ops) {
		return fmt.Errorf("pisa: %s table %d: merged filter op %d outside the instance's %d ops",
			s.Name(), t, tab.MergedFilterOp, len(s.Ops))
	}
	if !tab.Stateful {
		return nil
	}
	if len(s.RegEntries) < s.CutAt {
		return fmt.Errorf("pisa: %s table %d: %d register sizes for %d switch tables",
			s.Name(), t, len(s.RegEntries), s.CutAt)
	}
	// Bound every factor before multiplying: the product must not overflow
	// past the cap, and the slot count is what gets allocated.
	n, d := int64(s.RegEntries[t]), int64(cfg.RegisterChains)
	if n <= 0 || tab.KeyBits < 0 || tab.ValBits <= 0 ||
		int64(tab.KeyBits) > cfg.MaxRegisterBitsPerOp || int64(tab.ValBits) > cfg.MaxRegisterBitsPerOp {
		return fmt.Errorf("pisa: %s table %d: %d register entries of %d key and %d value bits",
			s.Name(), t, n, tab.KeyBits, tab.ValBits)
	}
	if slot := int64(tab.KeyBits + tab.ValBits); n > cfg.MaxRegisterBitsPerOp/(d*slot) {
		return fmt.Errorf("pisa: %s table %d: %d entries of %d bits in %d chains exceed per-op cap %d",
			s.Name(), t, n, slot, d, cfg.MaxRegisterBitsPerOp)
	}
	return nil
}

// The per-stage limits a table can find full.
var (
	errStatefulFull  = errors.New("limit of stateful actions (C2)")
	errStatelessFull = errors.New("limit of stateless actions")
	errBitsFull      = errors.New("limit of register bits (C1)")
)

// stageUse is what the tables charged to one stage take of its limits:
// C2's stateful actions, C1's register bits, and stateless actions.
type stageUse struct {
	stateful, stateless int
	bits                int64
}

// take charges table t of inst, which checkTable passed, to the stage if it
// has room left for it, and otherwise returns the limit it would break.
func (u *stageUse) take(cfg Config, inst *InstanceSpec, t int) error {
	tab := &inst.Tables[t]
	if !tab.Stateful {
		if u.stateless >= cfg.StatelessPerStage {
			return errStatelessFull
		}
		u.stateless++
		return nil
	}
	bits := RegisterBits(inst.RegEntries[t], cfg.RegisterChains, tab.KeyBits, tab.ValBits)
	if u.stateful >= cfg.StatefulPerStage {
		return errStatefulFull
	}
	if u.bits+bits > cfg.RegisterBitsPerStage {
		return errBitsFull
	}
	u.stateful++
	u.bits += bits
	return nil
}
