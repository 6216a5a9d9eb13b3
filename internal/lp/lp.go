// Package lp implements a dense two-phase simplex solver for linear
// programs in inequality form. It provides the relaxation bounds for the
// branch-and-bound ILP solver (package ilp) that stands in for the Gurobi
// solver the paper uses.
//
// Problems are stated as
//
//	minimize    c . x
//	subject to  A_i . x  (<=|>=|=)  b_i      for each constraint i
//	            x >= 0
//
// which is exactly the shape of the query-planning ILP's relaxation.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Relation is a constraint's comparison operator.
type Relation uint8

const (
	LE Relation = iota
	GE
	EQ
)

// Constraint is one linear constraint over the problem's variables. Coef
// may be shorter than the variable count; missing entries are zero.
type Constraint struct {
	Coef []float64
	Rel  Relation
	RHS  float64
}

// Problem is a minimization LP.
type Problem struct {
	// C is the objective coefficient vector; its length fixes the number of
	// variables.
	C           []float64
	Constraints []Constraint
}

// Status classifies a solve outcome.
type Status uint8

const (
	Optimal Status = iota
	Infeasible
	Unbounded
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	default:
		return "unbounded"
	}
}

// Solution is the result of a successful solve.
type Solution struct {
	Status    Status
	X         []float64
	Objective float64
}

// ErrBadProblem reports malformed input.
var ErrBadProblem = errors.New("lp: malformed problem")

const eps = 1e-9

// Solve runs two-phase simplex with Bland's anti-cycling rule.
func Solve(p *Problem) (Solution, error) {
	n := len(p.C)
	if n == 0 {
		return Solution{}, fmt.Errorf("%w: no variables", ErrBadProblem)
	}
	for i := range p.Constraints {
		if len(p.Constraints[i].Coef) > n {
			return Solution{}, fmt.Errorf("%w: constraint %d has %d coefficients for %d variables",
				ErrBadProblem, i, len(p.Constraints[i].Coef), n)
		}
	}
	t := newTableau(p)
	if t.needPhase1 {
		if ok := t.phase1(); !ok {
			return Solution{Status: Infeasible}, nil
		}
	}
	status := t.phase2()
	if status == Unbounded {
		return Solution{Status: Unbounded}, nil
	}
	x := t.extract(n)
	obj := 0.0
	for j := 0; j < n; j++ {
		obj += p.C[j] * x[j]
	}
	return Solution{Status: Optimal, X: x, Objective: obj}, nil
}

// tableau is the dense simplex tableau. Columns: n structural variables,
// then slack/surplus variables, then artificial variables; the final column
// is the RHS.
type tableau struct {
	rows       [][]float64 // m x (cols+1)
	obj        []float64   // phase-2 objective row (cols+1)
	basis      []int       // basic variable per row
	n          int         // structural variables
	cols       int         // total variables
	artStart   int         // first artificial column
	needPhase1 bool
}

func newTableau(p *Problem) *tableau {
	n := len(p.C)
	m := len(p.Constraints)
	slacks := 0
	arts := 0
	for _, c := range p.Constraints {
		switch c.Rel {
		case LE, GE:
			slacks++
		}
	}
	// Artificials: for GE and EQ rows, and for LE rows with negative RHS
	// (normalized below to GE). Allocate pessimistically: one per row.
	arts = m

	t := &tableau{n: n}
	t.artStart = n + slacks
	t.cols = n + slacks + arts
	t.rows = make([][]float64, m)
	t.basis = make([]int, m)

	slackIdx := n
	artIdx := t.artStart
	for i, c := range p.Constraints {
		row := make([]float64, t.cols+1)
		for j, v := range c.Coef {
			row[j] = v
		}
		rhs := c.RHS
		rel := c.Rel
		// Normalize to non-negative RHS.
		if rhs < 0 {
			for j := range row[:t.cols] {
				row[j] = -row[j]
			}
			rhs = -rhs
			switch rel {
			case LE:
				rel = GE
			case GE:
				rel = LE
			}
		}
		row[t.cols] = rhs
		switch rel {
		case LE:
			row[slackIdx] = 1
			t.basis[i] = slackIdx
			slackIdx++
		case GE:
			row[slackIdx] = -1
			slackIdx++
			row[artIdx] = 1
			t.basis[i] = artIdx
			artIdx++
			t.needPhase1 = true
		case EQ:
			row[artIdx] = 1
			t.basis[i] = artIdx
			artIdx++
			t.needPhase1 = true
		}
		t.rows[i] = row
	}

	// Phase-2 objective row (reduced costs computed on demand).
	t.obj = make([]float64, t.cols+1)
	for j := 0; j < n; j++ {
		t.obj[j] = p.C[j]
	}
	return t
}

// phase1 minimizes the sum of artificials; feasible iff it reaches ~0.
func (t *tableau) phase1() bool {
	w := make([]float64, t.cols+1)
	for j := t.artStart; j < t.cols; j++ {
		w[j] = 1
	}
	// Price out the basic artificials.
	for i, b := range t.basis {
		if b >= t.artStart {
			for j := 0; j <= t.cols; j++ {
				w[j] -= t.rows[i][j]
			}
		}
	}
	t.iterate(w, t.cols)
	if -w[t.cols] > 1e-7 { // sum of artificials still positive
		return false
	}
	// Drive any remaining artificials out of the basis.
	for i, b := range t.basis {
		if b < t.artStart {
			continue
		}
		pivoted := false
		for j := 0; j < t.artStart; j++ {
			if math.Abs(t.rows[i][j]) > eps {
				t.pivot(i, j)
				pivoted = true
				break
			}
		}
		if !pivoted {
			// Redundant row; zero it so it never constrains again.
			for j := 0; j <= t.cols; j++ {
				t.rows[i][j] = 0
			}
		}
	}
	return true
}

// phase2 optimizes the real objective, keeping artificial columns blocked.
func (t *tableau) phase2() Status {
	// Price out basic variables from the objective row.
	for i, b := range t.basis {
		if t.obj[b] != 0 {
			coef := t.obj[b]
			for j := 0; j <= t.cols; j++ {
				t.obj[j] -= coef * t.rows[i][j]
			}
		}
	}
	return t.iterate(t.obj, t.artStart)
}

// iterate runs simplex pivots on objective row w, considering entering
// columns below limit. Bland's rule: smallest eligible index.
func (t *tableau) iterate(w []float64, limit int) Status {
	for iter := 0; iter < 50000; iter++ {
		enter := -1
		for j := 0; j < limit; j++ {
			if w[j] < -eps {
				enter = j
				break
			}
		}
		if enter < 0 {
			return Optimal
		}
		// Ratio test.
		leave := -1
		best := math.Inf(1)
		for i := range t.rows {
			a := t.rows[i][enter]
			if a > eps {
				ratio := t.rows[i][t.cols] / a
				if ratio < best-eps || (math.Abs(ratio-best) <= eps && (leave < 0 || t.basis[i] < t.basis[leave])) {
					best = ratio
					leave = i
				}
			}
		}
		if leave < 0 {
			return Unbounded
		}
		t.pivot(leave, enter)
		// Update the objective row.
		coef := w[enter]
		if coef != 0 {
			for j := 0; j <= t.cols; j++ {
				w[j] -= coef * t.rows[leave][j]
			}
		}
	}
	// Iteration cap: report the current (feasible) point as optimal-ish.
	return Optimal
}

// pivot makes column enter basic in row leave.
func (t *tableau) pivot(leave, enter int) {
	row := t.rows[leave]
	piv := row[enter]
	for j := 0; j <= t.cols; j++ {
		row[j] /= piv
	}
	for i := range t.rows {
		if i == leave {
			continue
		}
		f := t.rows[i][enter]
		if f == 0 {
			continue
		}
		for j := 0; j <= t.cols; j++ {
			t.rows[i][j] -= f * row[j]
		}
	}
	t.basis[leave] = enter
}

// extract reads the structural variable values out of the tableau.
func (t *tableau) extract(n int) []float64 {
	x := make([]float64, n)
	for i, b := range t.basis {
		if b < n {
			v := t.rows[i][t.cols]
			if v < 0 && v > -eps {
				v = 0
			}
			x[b] = v
		}
	}
	return x
}
