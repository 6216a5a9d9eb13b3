package ilp

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/lp"
)

func TestKnapsack(t *testing.T) {
	// max 10a + 13b + 7c s.t. 3a + 4b + 2c <= 6  => a=1,c=1 (17) vs b+c (20):
	// 4+2=6 fits, value 20. Optimal: b=1, c=1.
	p := &Problem{
		C: []float64{-10, -13, -7},
		Constraints: []lp.Constraint{
			{Coef: []float64{3, 4, 2}, Rel: lp.LE, RHS: 6},
		},
		Binary: []int{0, 1, 2},
	}
	sol, err := Solve(p, Options{})
	if err != nil || sol.Status != Optimal {
		t.Fatalf("solve: %+v %v", sol, err)
	}
	if math.Abs(sol.Objective+20) > 1e-6 {
		t.Fatalf("objective = %v (x=%v), want -20", sol.Objective, sol.X)
	}
	if math.Round(sol.X[1]) != 1 || math.Round(sol.X[2]) != 1 || math.Round(sol.X[0]) != 0 {
		t.Fatalf("x = %v", sol.X)
	}
}

func TestInfeasibleILP(t *testing.T) {
	// a + b = 1.5 with binary a, b has LP solutions but no integer ones...
	// actually a=1,b=0.5 is fractional-only; binaries cannot sum to 1.5.
	p := &Problem{
		C: []float64{1, 1},
		Constraints: []lp.Constraint{
			{Coef: []float64{1, 1}, Rel: lp.EQ, RHS: 1.5},
		},
		Binary: []int{0, 1},
	}
	sol, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestMixedIntegerContinuous(t *testing.T) {
	// min -y - 5b s.t. y <= 2 + 3b, y <= 4, b binary.
	// b=1: y = min(5,4) = 4 => obj -9.
	p := &Problem{
		C: []float64{-1, -5},
		Constraints: []lp.Constraint{
			{Coef: []float64{1, -3}, Rel: lp.LE, RHS: 2},
			{Coef: []float64{1}, Rel: lp.LE, RHS: 4},
		},
		Binary: []int{1},
	}
	sol, err := Solve(p, Options{})
	if err != nil || sol.Status != Optimal {
		t.Fatalf("solve: %+v %v", sol, err)
	}
	if math.Abs(sol.Objective+9) > 1e-6 {
		t.Fatalf("objective = %v, want -9", sol.Objective)
	}
}

func TestExactCover(t *testing.T) {
	// Choose exactly one of three options per group; minimize cost.
	// Groups: {x0,x1,x2} cost {5,3,9}; {x3,x4} cost {2,1}; coupling
	// x1 + x4 <= 1 forces cost 3+2 or 5+1.
	p := &Problem{
		C: []float64{5, 3, 9, 2, 1},
		Constraints: []lp.Constraint{
			{Coef: []float64{1, 1, 1}, Rel: lp.EQ, RHS: 1},
			{Coef: []float64{0, 0, 0, 1, 1}, Rel: lp.EQ, RHS: 1},
			{Coef: []float64{0, 1, 0, 0, 1}, Rel: lp.LE, RHS: 1},
		},
		Binary: []int{0, 1, 2, 3, 4},
	}
	sol, err := Solve(p, Options{})
	if err != nil || sol.Status != Optimal {
		t.Fatalf("solve: %+v %v", sol, err)
	}
	if math.Abs(sol.Objective-5) > 1e-6 { // x1 (3) + x3 (2)
		t.Fatalf("objective = %v (x=%v), want 5", sol.Objective, sol.X)
	}
}

func TestBudgetReturnsIncumbent(t *testing.T) {
	// A larger knapsack; with a tiny node budget (the only budget there is)
	// the solver must still return some feasible incumbent or Unknown, never
	// a wrong Optimal.
	r := rand.New(rand.NewSource(7))
	n := 24
	p := &Problem{C: make([]float64, n)}
	w := make([]float64, n)
	for j := 0; j < n; j++ {
		p.C[j] = -float64(1 + r.Intn(50))
		w[j] = float64(1 + r.Intn(20))
		p.Binary = append(p.Binary, j)
	}
	p.Constraints = []lp.Constraint{{Coef: w, Rel: lp.LE, RHS: 40}}
	sol, err := Solve(p, Options{MaxNodes: 30})
	if err != nil {
		t.Fatal(err)
	}
	switch sol.Status {
	case Optimal, Feasible:
		// Incumbent must satisfy the knapsack.
		tot := 0.0
		for j := range w {
			tot += w[j] * sol.X[j]
		}
		if tot > 40+1e-6 {
			t.Fatalf("incumbent violates constraint: %v", tot)
		}
	case Unknown:
		// Acceptable under a tiny budget.
	default:
		t.Fatalf("status = %v", sol.Status)
	}
}

// TestIncumbentAtOptimumIsKept: a warm start at the optimum is the cutoff
// no point beats, so the solve closes the tree and returns the incumbent.
func TestIncumbentAtOptimumIsKept(t *testing.T) {
	opt := []float64{0, 1, 1}
	p := &Problem{
		C:           []float64{-10, -13, -7},
		Constraints: []lp.Constraint{{Coef: []float64{3, 4, 2}, Rel: lp.LE, RHS: 6}},
		Binary:      []int{0, 1, 2},
		Incumbent:   opt,
	}
	sol, err := Solve(p, Options{})
	if err != nil || sol.Status != Optimal {
		t.Fatalf("solve: %+v %v", sol, err)
	}
	if sol.Objective != -20 || !slices.Equal(sol.X, opt) {
		t.Fatalf("objective %v at %v, want the incumbent's -20 at %v", sol.Objective, sol.X, opt)
	}
}

// TestIncumbentAboveOptimumFindsIt: warm-started at a feasible point worse
// than the optimum, the solve still reaches the optimum, in no more nodes
// than the same solve from scratch.
func TestIncumbentAboveOptimumFindsIt(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 8 + r.Intn(8)
		p := &Problem{C: make([]float64, n)}
		w := make([]float64, n)
		for j := range w {
			p.C[j] = -float64(1 + r.Intn(50))
			w[j] = float64(1 + r.Intn(20))
			p.Binary = append(p.Binary, j)
		}
		p.Constraints = []lp.Constraint{{Coef: w, Rel: lp.LE, RHS: 40}}
		cold, err := Solve(p, Options{})
		if err != nil || cold.Status != Optimal {
			t.Fatalf("seed %d: cold solve %+v %v", seed, cold, err)
		}
		// The incumbent: the lightest item alone, feasible and worse than
		// the optimum.
		lightest := slices.Index(w, slices.Min(w))
		if p.C[lightest] <= cold.Objective {
			t.Fatalf("seed %d: the lightest item alone is optimal", seed)
		}
		p.Incumbent = make([]float64, n)
		p.Incumbent[lightest] = 1
		sol, err := Solve(p, Options{})
		if err != nil || sol.Status != Optimal {
			t.Fatalf("seed %d: warm solve %+v %v", seed, sol, err)
		}
		if math.Abs(sol.Objective-cold.Objective) > 1e-6 {
			t.Fatalf("seed %d: warm objective %v, cold %v", seed, sol.Objective, cold.Objective)
		}
		if sol.Nodes > cold.Nodes {
			t.Errorf("seed %d: warm start took %d nodes, cold %d", seed, sol.Nodes, cold.Nodes)
		}
	}
}

func TestBadBinaryIndex(t *testing.T) {
	p := &Problem{C: []float64{1}, Binary: []int{3}}
	if _, err := Solve(p, Options{}); err == nil {
		t.Error("bad binary index accepted")
	}
	p = &Problem{C: []float64{1, 2}, Binary: []int{0, 1}, Incumbent: []float64{1}}
	if _, err := Solve(p, Options{}); err == nil {
		t.Error("incumbent of the wrong length accepted")
	}
}

// Property: on random small knapsacks, branch and bound matches brute
// force.
func TestMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(8) // <= 9 binaries: brute force 512 points
		values := make([]float64, n)
		weights := make([]float64, n)
		for j := 0; j < n; j++ {
			values[j] = float64(1 + r.Intn(30))
			weights[j] = float64(1 + r.Intn(10))
		}
		cap := float64(5 + r.Intn(25))
		p := &Problem{C: make([]float64, n)}
		for j := range values {
			p.C[j] = -values[j]
			p.Binary = append(p.Binary, j)
		}
		p.Constraints = []lp.Constraint{{Coef: weights, Rel: lp.LE, RHS: cap}}
		sol, err := Solve(p, Options{})
		if err != nil || sol.Status != Optimal {
			return false
		}
		best := 0.0
		for mask := 0; mask < 1<<n; mask++ {
			wsum, vsum := 0.0, 0.0
			for j := 0; j < n; j++ {
				if mask&(1<<j) != 0 {
					wsum += weights[j]
					vsum += values[j]
				}
			}
			if wsum <= cap && vsum > best {
				best = vsum
			}
		}
		return math.Abs(-sol.Objective-best) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
