package planner

import (
	"repro/internal/ilp"
	"repro/internal/lp"
)

// solveILP selects one candidate per query by solving the plan-selection
// ILP with the repo's branch-and-bound solver. The formulation is the
// multiple-choice aggregation of the paper's Table 2 model:
//
//	min  sum_q sum_c N(q,c) * y[q,c]                 (the paper's objective)
//	s.t. sum_c y[q,c] = 1                for each q  (one plan per query)
//	     sum stateful-tables * y <= S*A              (aggregates C2 over stages)
//	     sum register-bits   * y <= S*B              (aggregates C1)
//	     sum metadata-bits   * y <= M                (C5)
//	     per-instance table count <= S enforced at candidate generation (C3, C4)
//
// Stage-granular packing (the exact C1-C4) is then verified by the same
// first-fit placer the greedy path uses; if the ILP's choice fails to
// place, the greedy incumbent is kept. This mirrors the paper's practice of
// accepting the best feasible solution found within a time budget.
func (s *selector) solveILP(incumbent []int) ([]int, bool) {
	// Variable layout: one binary per (query, candidate).
	type varRef struct{ qi, ci int }
	var refs []varRef
	base := make([]int, len(s.queries)+1)
	for qi := range s.queries {
		base[qi] = len(refs)
		for ci := range s.cands[qi] {
			refs = append(refs, varRef{qi, ci})
		}
	}
	base[len(s.queries)] = len(refs)
	n := len(refs)
	if n == 0 {
		return nil, false
	}

	prob := &ilp.Problem{C: make([]float64, n)}
	statefulCoef := make([]float64, n)
	bitsCoef := make([]float64, n)
	metaCoef := make([]float64, n)
	for v, ref := range refs {
		c := &s.cands[ref.qi][ref.ci]
		prob.C[v] = float64(c.cost)
		st, bits, meta := s.candidateResources(ref.qi, c)
		statefulCoef[v] = float64(st)
		bitsCoef[v] = float64(bits)
		metaCoef[v] = float64(meta)
		prob.Binary = append(prob.Binary, v)
	}
	// One plan per query.
	for qi := range s.queries {
		coef := make([]float64, base[qi+1])
		for v := base[qi]; v < base[qi+1]; v++ {
			coef[v] = 1
		}
		prob.Constraints = append(prob.Constraints, lp.Constraint{
			Coef: coef, Rel: lp.EQ, RHS: 1, Name: "one-plan"})
	}
	cfg := s.cfg
	prob.Constraints = append(prob.Constraints,
		lp.Constraint{Coef: statefulCoef, Rel: lp.LE,
			RHS: float64(cfg.Stages * cfg.StatefulPerStage), Name: "C2-aggregate"},
		lp.Constraint{Coef: bitsCoef, Rel: lp.LE,
			RHS: float64(cfg.RegisterBitsPerStage) * float64(cfg.Stages), Name: "C1-aggregate"},
		lp.Constraint{Coef: metaCoef, Rel: lp.LE,
			RHS: float64(cfg.MetadataBits), Name: "C5"},
	)

	sol, err := ilp.Solve(prob, ilp.Options{TimeBudget: s.opts.ILPBudget})
	if err != nil || (sol.Status != ilp.Optimal && sol.Status != ilp.Feasible) {
		return nil, false
	}
	choice := make([]int, len(s.queries))
	for qi := range choice {
		choice[qi] = -1
		for v := base[qi]; v < base[qi+1]; v++ {
			if sol.X[v] > 0.5 {
				choice[qi] = refs[v].ci
				break
			}
		}
		if choice[qi] < 0 {
			return nil, false
		}
	}
	// Exact stage-level feasibility, and only accept an improvement.
	if _, err := s.buildProgram(choice); err != nil {
		return nil, false
	}
	if incumbent != nil && s.totalCost(choice) >= s.totalCost(incumbent) {
		return nil, false
	}
	return choice, true
}

func (s *selector) totalCost(choice []int) uint64 {
	var total uint64
	for qi, ci := range choice {
		total += s.cands[qi][ci].cost
	}
	return total
}

// candidateResources aggregates a candidate's switch footprint — stateful
// table count, register bits, and metadata bits — over the pipelines it
// places, from the edges' priced tiers.
func (s *selector) candidateResources(qi int, c *candidate) (stateful int, bits int64, meta int) {
	s.placed = s.placements(qi, c, s.placed[:0])
	for _, p := range s.placed {
		pr := p.edge.at(p.side, p.cut, s.cfg)
		stateful += pr.stateful
		bits += pr.bits
		meta += pr.meta
	}
	return stateful, bits, meta
}
