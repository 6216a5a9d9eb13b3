// Package compile lowers dataflow pipelines to the match-action table model
// of a PISA switch (Section 3.1.2 of the paper) and computes the static
// resource footprint of each table. The planner combines these static costs
// with workload profiles to choose partitioning plans; the pisa package
// executes the resulting table programs.
package compile

import (
	"fmt"

	"repro/internal/query"
)

// TableKind enumerates the match-action table roles.
type TableKind uint8

const (
	// TableFilter matches static clauses over header/metadata fields.
	TableFilter TableKind = iota
	// TableDynFilter matches a runtime-updated key set (dynamic refinement).
	TableDynFilter
	// TableMap writes metadata fields from header fields or constants.
	TableMap
	// TableHashIndex computes a register index from the key columns (the
	// first of the two tables a stateful operator compiles to).
	TableHashIndex
	// TableStateUpdate performs the stateful register action, optionally
	// with a merged threshold filter deciding what is reported.
	TableStateUpdate
)

func (k TableKind) String() string {
	switch k {
	case TableFilter:
		return "filter"
	case TableDynFilter:
		return "dyn-filter"
	case TableMap:
		return "map"
	case TableHashIndex:
		return "hash-index"
	case TableStateUpdate:
		return "state-update"
	default:
		return fmt.Sprintf("table(%d)", uint8(k))
	}
}

// Table is one match-action table lowered from the pipeline.
type Table struct {
	Kind TableKind
	// OpIdx is the dataflow op this table implements (for TableHashIndex
	// and TableStateUpdate, the stateful op).
	OpIdx int
	// MergedFilterOp is the op index of a threshold filter folded into a
	// TableStateUpdate (Section 3.3's "more than one dataflow operator can
	// be compiled to the same table"); -1 when absent.
	MergedFilterOp int
	// Stateful is the paper's Z_t indicator.
	Stateful bool
	// KeyBits / ValBits size one register slot for stateful tables.
	KeyBits int
	ValBits int
}

// LastOp returns the last dataflow op index covered by this table.
func (t *Table) LastOp() int {
	if t.MergedFilterOp >= 0 {
		return t.MergedFilterOp
	}
	return t.OpIdx
}

// Pipeline is a compiled pipeline: the table sequence plus capability
// metadata.
type Pipeline struct {
	Ops    []query.Op
	Tables []Table
	// CapPrefix is the number of leading tables the switch is capable of
	// executing (ignoring resources): tables at or past this index involve
	// payload parsing, string keys, or arithmetic the data plane lacks.
	CapPrefix int
	// MetaBits is M_q: the metadata the query needs while traversing the
	// pipeline — the widest schema carried between operators plus the
	// per-query bookkeeping fields (qid, refinement level, report bit).
	MetaBits int
}

// perQueryOverheadBits counts the qid (16), level (8), and report (1) bits
// each query instance carries in the PHV.
const perQueryOverheadBits = 25

// aggValBits is the register value width for aggregates on the switch.
const aggValBits = 32

// CompilePipeline lowers ops to tables.
func CompilePipeline(ops []query.Op) Pipeline {
	p := Pipeline{Ops: ops}
	capOps := query.SwitchPrefixLen(&query.Pipeline{Ops: ops})
	p.CapPrefix = -1

	for i := 0; i < len(ops); i++ {
		if p.CapPrefix < 0 && i >= capOps {
			p.CapPrefix = len(p.Tables)
		}
		o := &ops[i]
		switch o.Kind {
		case query.OpFilter:
			kind := TableFilter
			if o.DynFilterTable != "" {
				kind = TableDynFilter
			}
			p.Tables = append(p.Tables, Table{Kind: kind, OpIdx: i, MergedFilterOp: -1})
		case query.OpMap:
			p.Tables = append(p.Tables, Table{Kind: TableMap, OpIdx: i, MergedFilterOp: -1})
		case query.OpReduce, query.OpDistinct:
			keyBits := 0
			in := o.InSchema()
			for _, k := range o.KeyCols {
				keyBits += in[k].Bits()
			}
			valBits := aggValBits
			if o.Kind == query.OpDistinct {
				valBits = 1 // the paper's bit_or(1) trick
			}
			p.Tables = append(p.Tables, Table{Kind: TableHashIndex, OpIdx: i, MergedFilterOp: -1})
			upd := Table{Kind: TableStateUpdate, OpIdx: i, MergedFilterOp: -1,
				Stateful: true, KeyBits: keyBits, ValBits: valBits}
			// Merge a directly-following supported threshold filter.
			if i+1 < len(ops) && i+1 < capOps && ops[i+1].Kind == query.OpFilter && ops[i+1].DynFilterTable == "" {
				upd.MergedFilterOp = i + 1
				i++
			}
			p.Tables = append(p.Tables, upd)
		}
	}
	if p.CapPrefix < 0 {
		p.CapPrefix = len(p.Tables)
	}
	p.MetaBits = MetaBits(ops)
	return p
}

// MetaBits computes the widest metadata footprint a pipeline carries: the
// maximum schema width across operators plus per-query bookkeeping bits.
func MetaBits(ops []query.Op) int {
	widest := 0
	for i := range ops {
		if s := ops[i].OutSchema(); s != nil {
			if b := s.Bits(); b > widest {
				widest = b
			}
		}
	}
	return widest + perQueryOverheadBits
}

// ValidPartitionPoints returns the table counts that are legal "last table
// on the switch" choices: 0 (nothing on the switch) up to CapPrefix, never
// splitting a hash-index from its state-update.
func (p *Pipeline) ValidPartitionPoints() []int {
	points := []int{0}
	for n := 1; n <= p.CapPrefix; n++ {
		if p.Tables[n-1].Kind == TableHashIndex {
			continue // meaningless cut between index and update
		}
		points = append(points, n)
	}
	return points
}
