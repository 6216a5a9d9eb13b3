package planner

import (
	"repro/internal/ilp"
	"repro/internal/lp"
	"repro/internal/pisa"
)

// ilpChoice selects one candidate per query with the plan-selection ILP,
// solved by the repo's branch and bound from the incumbent choice under the
// ilpNodes cap: the incumbent when it finds nothing cheaper, nil when the
// solver ends without a point. The formulation is the multiple-choice
// aggregation of the paper's Table 2 model:
//
//	min  sum_q sum_c N(q,c) * y[q,c]                 (the paper's objective)
//	s.t. sum_c y[q,c] = 1                for each q  (one plan per query)
//	     sum stateful-tables * y <= S*A              (aggregates C2 over stages)
//	     sum register-bits   * y <= S*B              (aggregates C1)
//	     sum metadata-bits   * y <= M                (C5)
//	     per-instance table count <= S enforced at candidate generation (C3, C4)
//
// resources is a candidate's switch footprint. The aggregate constraints
// admit choices pisa.Program.Place (the exact C1-C4) refuses, so the
// caller places a choice before it keeps it; as the paper accepted the best
// solution Gurobi found within its budget, it need not be optimal.
func ilpChoice(cands [][]candidate, cfg pisa.Config, incumbent []int,
	resources func(qi int, c *candidate) (stateful int, bits int64, meta int)) []int {
	// Variable layout: one binary per (query, candidate).
	base := make([]int, len(cands)+1)
	for qi := range cands {
		base[qi+1] = base[qi] + len(cands[qi])
	}
	n := base[len(cands)]
	prob := &ilp.Problem{C: make([]float64, n), Incumbent: make([]float64, n)}
	statefulCoef := make([]float64, n)
	bitsCoef := make([]float64, n)
	metaCoef := make([]float64, n)
	for qi := range cands {
		coef := make([]float64, base[qi+1])
		for ci := range cands[qi] {
			v := base[qi] + ci
			c := &cands[qi][ci]
			prob.C[v] = float64(c.cost)
			st, bits, meta := resources(qi, c)
			statefulCoef[v] = float64(st)
			bitsCoef[v] = float64(bits)
			metaCoef[v] = float64(meta)
			prob.Binary = append(prob.Binary, v)
			coef[v] = 1
		}
		prob.Constraints = append(prob.Constraints, lp.Constraint{Coef: coef, Rel: lp.EQ, RHS: 1})
		prob.Incumbent[base[qi]+incumbent[qi]] = 1
	}
	prob.Constraints = append(prob.Constraints,
		lp.Constraint{Coef: statefulCoef, Rel: lp.LE, RHS: float64(cfg.Stages * cfg.StatefulPerStage)},
		lp.Constraint{Coef: bitsCoef, Rel: lp.LE, RHS: float64(cfg.RegisterBitsPerStage) * float64(cfg.Stages)},
		lp.Constraint{Coef: metaCoef, Rel: lp.LE, RHS: float64(cfg.MetadataBits)})

	sol, err := ilp.Solve(prob, ilp.Options{MaxNodes: ilpNodes})
	if err != nil || (sol.Status != ilp.Optimal && sol.Status != ilp.Feasible) {
		return nil
	}
	choice := make([]int, len(cands))
	for qi := range choice {
		choice[qi] = -1
		for v := base[qi]; v < base[qi+1]; v++ {
			if sol.X[v] > 0.5 {
				choice[qi] = v - base[qi]
				break
			}
		}
		if choice[qi] < 0 {
			return nil
		}
	}
	return choice
}

// candidateResources aggregates a candidate's switch footprint — stateful
// table count, register bits, and metadata bits — over the pipelines it
// places, from the edges' priced tiers.
func (s *selector) candidateResources(qi int, c *candidate) (stateful int, bits int64, meta int) {
	s.placed = s.placements(qi, c, s.placed[:0])
	for _, p := range s.placed {
		pr := p.edge.at(p.side, p.cut)
		stateful += pr.stateful
		bits += pr.bits
		meta += pr.meta
	}
	return stateful, bits, meta
}
