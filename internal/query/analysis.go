package query

import (
	"fmt"

	"repro/internal/fields"
)

// SwitchSupport classifies whether an operator can execute in the data
// plane, and if not, why — the planner partitions at the first unsupported
// operator regardless of resource availability.
type SwitchSupport struct {
	OK     bool
	Reason string
}

// OpSwitchSupport analyzes one operator.
func OpSwitchSupport(o *Op) SwitchSupport {
	switch o.Kind {
	case OpFilter:
		if o.DynFilterTable != "" {
			return SwitchSupport{OK: true}
		}
		for i := range o.Clauses {
			cl := &o.Clauses[i]
			if cl.Cmp == CmpContains {
				return SwitchSupport{false, "payload/string matching requires the stream processor"}
			}
			if o.packetPhase && !fields.Lookup(cl.Field).SwitchParsable {
				return SwitchSupport{false, fmt.Sprintf("field %s is not switch-parsable", cl.Field)}
			}
			if cl.Arg.Str {
				return SwitchSupport{false, "string comparison requires the stream processor"}
			}
		}
		return SwitchSupport{OK: true}
	case OpMap:
		for i := range o.Cols {
			e := &o.Cols[i].Expr
			if !e.switchSupported() {
				return SwitchSupport{false, fmt.Sprintf("expression %s cannot run in the data plane", e)}
			}
		}
		return SwitchSupport{OK: true}
	case OpReduce, OpDistinct:
		// Stateful key columns must be register-indexable: string keys from
		// deep parsing (DNS names) cannot live in switch registers.
		schema := o.inSchema
		for _, k := range o.KeyCols {
			if fields.Lookup(schema[k]).Kind == fields.Bytes {
				return SwitchSupport{false, fmt.Sprintf("stateful key %s is a byte string", schema[k])}
			}
		}
		return SwitchSupport{OK: true}
	default:
		return SwitchSupport{false, "unknown operator"}
	}
}

// SwitchPrefixLen returns how many leading operators of the pipeline could
// execute on a switch with unbounded resources. Partitioning never places an
// operator on the switch past this point.
func SwitchPrefixLen(p *Pipeline) int {
	for i := range p.Ops {
		if s := OpSwitchSupport(&p.Ops[i]); !s.OK {
			return i
		}
	}
	return len(p.Ops)
}

// RefinementKey describes the hierarchical key the planner may coarsen.
type RefinementKey struct {
	Field fields.ID
	// MaxLevel is the finest level (e.g. 32 for IPv4).
	MaxLevel int
}

// FindRefinementKey identifies a refinement key for a pipeline, following
// Section 4.1: the key must be hierarchical, be used as a key in a stateful
// operator, and the pipeline's final aggregate filter must be monotone
// (Gt/Ge), so that coarsening the key can never miss satisfying traffic.
// It returns false when the pipeline has no refinable key.
func FindRefinementKey(p *Pipeline) (RefinementKey, bool) {
	// Find the first stateful op and its hierarchical keys.
	var candidate fields.ID
	statefulAt := -1
	for i := range p.Ops {
		o := &p.Ops[i]
		if !o.Stateful() {
			continue
		}
		statefulAt = i
		for _, k := range o.KeyCols {
			f := o.inSchema[k]
			if fields.Lookup(f).Hierarchical {
				candidate = f
				break
			}
		}
		break
	}
	if statefulAt < 0 || candidate == fields.Unknown {
		return RefinementKey{}, false
	}
	// Monotonicity: every tuple-phase filter after the stateful operator
	// must use >= or > comparisons on numeric columns. (A "count < Th"
	// filter could be missed at coarse levels, so it disqualifies.)
	for i := statefulAt + 1; i < len(p.Ops); i++ {
		o := &p.Ops[i]
		if o.Kind != OpFilter {
			continue
		}
		for j := range o.Clauses {
			if c := o.Clauses[j].Cmp; c != CmpGt && c != CmpGe {
				return RefinementKey{}, false
			}
		}
	}
	// The key must be traceable back to the raw packet field: the map that
	// introduced the column must extract it unmodified (possibly masked).
	return RefinementKey{Field: candidate, MaxLevel: fields.Lookup(candidate).MaxLevel}, true
}

// QueryRefinementKey identifies a refinement key for a whole query. For
// join queries both sides must share the key (the paper constrains joined
// sub-queries to a common refinement plan), so the key must be refinable in
// the right side and — when the left side has its own stateful operators —
// in the left side too.
func QueryRefinementKey(q *Query) (RefinementKey, bool) {
	if !q.HasJoin() {
		return FindRefinementKey(q.Left)
	}
	rk, ok := FindRefinementKey(q.Right)
	if !ok {
		return RefinementKey{}, false
	}
	// The join keys must include the refinement key so filtering coarse
	// results constrains both sides.
	if !containsField(q.JoinKeys, rk.Field) {
		return RefinementKey{}, false
	}
	if leftHasStateful(q.Left) {
		lk, ok := FindRefinementKey(q.Left)
		if !ok || lk.Field != rk.Field {
			return RefinementKey{}, false
		}
	}
	return rk, true
}

func leftHasStateful(p *Pipeline) bool {
	for i := range p.Ops {
		if p.Ops[i].Stateful() {
			return true
		}
	}
	return false
}

// ReadsDNS reports whether any part of q reads a field only the deep DNS
// decode produces — in a filter clause, a map expression, a dynamic filter's
// key or a join key. A packet whose DNS layer nobody reads need not be
// deep-decoded: the stream processor's emitter and planner training decode
// DNS only for query sets where this holds for some query.
func ReadsDNS(q *Query) bool {
	for _, f := range q.JoinKeys {
		if isDNSField(f) {
			return true
		}
	}
	for _, p := range []*Pipeline{q.Left, q.Right, q.Post} {
		if p == nil {
			continue
		}
		for i := range p.Ops {
			o := &p.Ops[i]
			if o.DynFilterTable != "" && isDNSField(o.DynKeyField) {
				return true
			}
			for c := range o.Clauses {
				if isDNSField(o.Clauses[c].Field) {
					return true
				}
			}
			for c := range o.Cols {
				for e := &o.Cols[c].Expr; e != nil; e = e.Sub {
					if (e.Kind == ExprField || e.Kind == ExprMask) && isDNSField(e.Field) {
						return true
					}
				}
			}
		}
	}
	return false
}

// isDNSField reports whether f is read from the DNS layer.
func isDNSField(f fields.ID) bool {
	switch f {
	case fields.DNSQName, fields.DNSRRName, fields.DNSQType, fields.DNSAnCount, fields.DNSQR:
		return true
	}
	return false
}

// NewDynPacketFilter constructs the packet-phase dynamic-refinement filter
// that query augmentation prepends at finer levels (the red filters of
// Figure 4): it admits only packets whose key field, masked to level,
// appears in the named runtime-updated table.
func NewDynPacketFilter(table string, key fields.ID, level int) Op {
	return Op{Kind: OpFilter, DynFilterTable: table, DynKeyField: key,
		DynLevel: level, packetPhase: true}
}

// NewPacketMap constructs a packet-phase map producing cols, its output
// schema their names. Unlike Builder.Map it allows two columns of one name:
// the stream processor lands a packet-phase join side through one, as the
// join keys followed by the post-join map's columns, which may repeat a key.
func NewPacketMap(cols []Column) Op {
	out := make([]fields.ID, len(cols))
	for i := range cols {
		out[i] = cols[i].Name
	}
	return Op{Kind: OpMap, Cols: cols, outSchema: out, packetPhase: true}
}

// Validate performs whole-query consistency checks beyond what the builder
// enforces, for queries constructed or rewritten programmatically.
func Validate(q *Query) error {
	if q.Left == nil || len(q.Left.Ops) == 0 {
		return fmt.Errorf("query %q: empty left pipeline", q.Name)
	}
	if q.Window <= 0 {
		return fmt.Errorf("query %q: non-positive window", q.Name)
	}
	if q.HasJoin() {
		if len(q.JoinKeys) == 0 {
			return fmt.Errorf("query %q: join without keys", q.Name)
		}
		rs := q.Right.OutSchema()
		if rs == nil {
			return fmt.Errorf("query %q: join right side has no tuple schema", q.Name)
		}
		for _, k := range q.JoinKeys {
			if rs.Index(k) < 0 {
				return fmt.Errorf("query %q: join key %s missing from right schema %s", q.Name, k, rs)
			}
		}
		if ls := q.Left.OutSchema(); ls != nil {
			for _, k := range q.JoinKeys {
				if ls.Index(k) < 0 {
					return fmt.Errorf("query %q: join key %s missing from left schema %s", q.Name, k, ls)
				}
			}
		}
	}
	return nil
}
