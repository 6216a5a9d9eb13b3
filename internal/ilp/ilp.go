// Package ilp implements a 0/1 integer linear program solver by branch and
// bound over LP relaxations (package lp). It fills the role Gurobi plays in
// the paper's query planner: Section 6.1 notes the authors capped Gurobi at
// 20 minutes and accepted the best incumbent; this solver takes the same
// budgeted, best-incumbent approach, with a node budget in place of a
// wall-clock one so that a solve is the same on every host.
package ilp

import (
	"container/heap"
	"fmt"
	"math"
	"slices"

	"repro/internal/lp"
)

// Problem is a minimization ILP. Variables listed in Binary must take
// values in {0,1}; the rest are continuous and non-negative.
type Problem struct {
	// C is the objective; its length fixes the variable count.
	C           []float64
	Constraints []lp.Constraint
	// Binary marks 0/1 variables by index.
	Binary []int
	// Incumbent is a feasible point the caller already holds (a warm
	// start), or nil. Its objective is the cutoff: the search prunes every
	// subproblem that cannot beat it and returns it when it finds nothing
	// better.
	Incumbent []float64
}

// Options tune the search.
type Options struct {
	// MaxNodes bounds the number of branch-and-bound nodes, each one LP
	// relaxation solved; zero means 1e6.
	MaxNodes int
}

// Status classifies the solve outcome.
type Status uint8

const (
	// Optimal: the search closed the tree; the incumbent is optimal.
	Optimal Status = iota
	// Feasible: node budget exhausted with an incumbent in hand (the
	// paper's "best possibly sub-optimal solution within 20 minutes").
	Feasible
	// Infeasible: no integer point satisfies the constraints.
	Infeasible
	// Unknown: the budget ran out before any integer point was found, with
	// subproblems still open — the instance may or may not be feasible.
	Unknown
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Feasible:
		return "feasible(budget)"
	case Infeasible:
		return "infeasible"
	default:
		return "unknown(budget)"
	}
}

// Solution is the solver's result.
type Solution struct {
	Status    Status
	X         []float64
	Objective float64
	Nodes     int
}

const intTol = 1e-6

// Solve runs best-first branch and bound.
func Solve(p *Problem, opts Options) (Solution, error) {
	if opts.MaxNodes <= 0 {
		opts.MaxNodes = 1_000_000
	}
	for _, b := range p.Binary {
		if b < 0 || b >= len(p.C) {
			return Solution{}, fmt.Errorf("ilp: binary index %d out of range", b)
		}
	}
	if p.Incumbent != nil && len(p.Incumbent) != len(p.C) {
		return Solution{}, fmt.Errorf("ilp: incumbent has %d values for %d variables", len(p.Incumbent), len(p.C))
	}
	s := &search{prob: p, isBin: make([]bool, len(p.C)), bounded: make([]bool, len(p.C)),
		maxNodes: opts.MaxNodes, bestObj: math.Inf(1)}
	for _, b := range p.Binary {
		s.isBin[b] = true
	}
	// A binary needs no x <= 1 row when a <= or = row without negative
	// coefficients bounds it already, as a one-of-n row does: fewer rows keep
	// each relaxation's tableau small.
	for _, c := range p.Constraints {
		if c.Rel != lp.GE && !slices.ContainsFunc(c.Coef, func(v float64) bool { return v < 0 }) {
			for j, v := range c.Coef {
				s.bounded[j] = s.bounded[j] || (v > 0 && c.RHS <= v)
			}
		}
	}
	if p.Incumbent != nil {
		s.bestX, s.bestObj = p.Incumbent, 0
		for j, c := range p.C {
			s.bestObj += c * p.Incumbent[j]
		}
	}

	s.expand(node{fixed: map[int]float64{}})
	for len(s.heap) > 0 && s.nodes < s.maxNodes {
		nd := s.pop()
		if nd.bound >= s.bestObj-1e-9 {
			continue // pruned
		}
		s.branch(nd)
	}

	switch {
	case s.bestX == nil:
		if len(s.heap) == 0 && s.nodes < s.maxNodes {
			// The tree closed without an integer point: proven infeasible.
			return Solution{Status: Infeasible, Nodes: s.nodes}, nil
		}
		return Solution{Status: Unknown, Nodes: s.nodes}, nil
	case len(s.heap) == 0:
		return Solution{Status: Optimal, X: s.bestX, Objective: s.bestObj, Nodes: s.nodes}, nil
	default:
		return Solution{Status: Feasible, X: s.bestX, Objective: s.bestObj, Nodes: s.nodes}, nil
	}
}

// node is one branch-and-bound subproblem: a set of fixed binary variables.
type node struct {
	fixed map[int]float64
	bound float64
	relax []float64
}

type search struct {
	prob     *Problem
	isBin    []bool
	bounded  []bool
	maxNodes int

	heap    []node
	nodes   int
	bestObj float64
	bestX   []float64
}

// expand solves the node's LP relaxation and either records an incumbent,
// prunes, or queues the node for branching.
func (s *search) expand(nd node) {
	s.nodes++
	sol, err := lp.Solve(s.relaxation(nd.fixed))
	if err != nil || sol.Status != lp.Optimal {
		return // infeasible or unbounded subtree
	}
	if sol.Objective >= s.bestObj-1e-9 {
		return // bound prune
	}
	if j := s.fractional(sol.X); j < 0 {
		// Integer feasible: new incumbent.
		s.bestObj = sol.Objective
		s.bestX = append([]float64(nil), sol.X...)
		return
	}
	nd.bound = sol.Objective
	nd.relax = sol.X
	s.push(nd)
}

// branch splits on the most fractional binary variable.
func (s *search) branch(nd node) {
	j := s.fractional(nd.relax)
	if j < 0 {
		return
	}
	for _, v := range []float64{s.roundDir(nd.relax[j]), 1 - s.roundDir(nd.relax[j])} {
		child := node{fixed: make(map[int]float64, len(nd.fixed)+1)}
		for k, fv := range nd.fixed {
			child.fixed[k] = fv
		}
		child.fixed[j] = v
		s.expand(child)
	}
}

func (s *search) roundDir(v float64) float64 {
	if v >= 0.5 {
		return 1
	}
	return 0
}

// fractional returns the most fractional binary index, or -1 when all
// binaries are integral.
func (s *search) fractional(x []float64) int {
	best, bestDist := -1, intTol
	for j := range x {
		if !s.isBin[j] {
			continue
		}
		f := math.Abs(x[j] - math.Round(x[j]))
		if f > bestDist {
			// Prefer the variable closest to 0.5.
			d := math.Abs(x[j] - 0.5)
			if best < 0 || d < math.Abs(x[best]-0.5) {
				best = j
			}
		}
	}
	return best
}

// relaxation builds the node's LP: the base constraints, x<=1 for binaries
// no constraint bounds, and equality pins for fixed variables.
func (s *search) relaxation(fixed map[int]float64) *lp.Problem {
	p := &lp.Problem{C: s.prob.C}
	p.Constraints = append(p.Constraints, s.prob.Constraints...)
	for j, bin := range s.isBin {
		v, pinned := fixed[j]
		if !bin || (!pinned && s.bounded[j]) {
			continue
		}
		c := lp.Constraint{Coef: make([]float64, j+1), Rel: lp.LE, RHS: 1}
		c.Coef[j] = 1
		if pinned {
			c.Rel, c.RHS = lp.EQ, v
		}
		p.Constraints = append(p.Constraints, c)
	}
	return p
}

// push/pop implement a best-bound priority queue (smallest bound first)
// via container/heap.
func (s *search) push(nd node) { heap.Push((*nodeHeap)(&s.heap), nd) }

func (s *search) pop() node { return heap.Pop((*nodeHeap)(&s.heap)).(node) }

type nodeHeap []node

func (h nodeHeap) Len() int           { return len(h) }
func (h nodeHeap) Less(i, j int) bool { return h[i].bound < h[j].bound }
func (h nodeHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x any)        { *h = append(*h, x.(node)) }
func (h *nodeHeap) Pop() any {
	old := *h
	n := len(old)
	nd := old[n-1]
	*h = old[:n-1]
	return nd
}
