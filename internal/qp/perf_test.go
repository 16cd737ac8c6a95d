package qp

import (
	"math"
	"slices"
	"testing"
)

// constrainedProblem builds an n-variable MPC-shaped problem (a dominant
// rank-one tracking term plus a positive diagonal) whose unconstrained
// minimizer violates the box, with a mixed active set: some coordinates
// are pulled past the upper bound, others stay interior.
func constrainedProblem(n int) Problem {
	k := make([]float64, n)
	g := make([]float64, n)
	for i := range k {
		k[i] = 9 + 0.1*float64(i%7)
		g[i] = -(4000 + 2500*float64(i%5)) * k[i]
	}
	// A matches the MPC's Σh² = 30 over a 4-period horizon.
	return Problem{A: 30, K: k, D: constant(n, 400), G: g,
		Lo: constant(n, -1.6), Hi: constant(n, 0.4)}
}

// perturb returns a copy of p with the linear term nudged — the shape of an
// MPC re-solve one control period later (same Hessian, slightly different
// gap).
func perturb(p Problem, eps float64) Problem {
	q := p
	q.G = slices.Clone(p.G)
	for i := range q.G {
		q.G[i] *= 1 + eps
	}
	return q
}

// Warm-starting must reach the same minimizer as a cold solve, meeting the
// same scaled KKT tolerance with objectives equal to 1e-12 relative, in no
// more ψ evaluations, when re-solving a perturbed problem from the previous
// solution.
func TestWarmVsColdEquivalence(t *testing.T) {
	for _, n := range []int{8, 64} {
		p := constrainedProblem(n)
		base, err := Solve(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, eps := range []float64{0.001, 0.01, 0.2, -0.5} {
			next := perturb(p, eps)
			cold, err := Solve(next, Options{})
			if err != nil {
				t.Fatal(err)
			}
			warmPoint := slices.Clone(base.X)
			warm, err := Solve(next, Options{Warm: warmPoint})
			if err != nil {
				t.Fatal(err)
			}
			if !cold.Converged || !warm.Converged {
				t.Fatalf("n=%d eps=%g: both solves must converge: cold %g warm %g", n, eps, cold.Residual, warm.Residual)
			}
			if d := math.Abs(cold.Objective - warm.Objective); d > 1e-12*math.Abs(cold.Objective) {
				t.Fatalf("n=%d eps=%g: objectives differ by %g: cold %v warm %v", n, eps, d, cold.Objective, warm.Objective)
			}
			for i := range cold.X {
				if math.Abs(cold.X[i]-warm.X[i]) > 1e-9 {
					t.Fatalf("n=%d eps=%g: minimizers diverge at %d: cold %v warm %v", n, eps, i, cold.X[i], warm.X[i])
				}
			}
			if eps == 0.01 && warm.Evals > cold.Evals {
				t.Fatalf("n=%d: a 1%% re-solve took %d evaluations warm vs %d cold", n, warm.Evals, cold.Evals)
			}
			for i := range warmPoint {
				if warmPoint[i] != base.X[i] {
					t.Fatal("Options.Warm was mutated")
				}
			}
		}
	}
}

// A workspace solve must not allocate — this is the hot path's zero-alloc
// contract (DESIGN.md §10) — neither warm nor cold, including the
// breakpoint-bisection fallback.
func TestSolveWorkspaceZeroAlloc(t *testing.T) {
	p := constrainedProblem(32)
	ws := NewWorkspace(32)
	warm := make([]float64, 32)
	res, err := Solve(p, Options{Ws: ws})
	if err != nil {
		t.Fatal(err)
	}
	copy(warm, res.X)
	far := constant(32, -1.6) // a warm point many pieces from the root

	for name, opt := range map[string]Options{
		"warm":     {Ws: ws, Warm: warm},
		"cold":     {Ws: ws},
		"far warm": {Ws: ws, Warm: far},
	} {
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := Solve(p, opt); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s workspace solve allocates %.1f times per run, want 0", name, allocs)
		}
	}
}

// The structured solver must agree with the dense active-set oracle on the
// MPC-shaped problem: objective no worse, minimizers equal.
func TestStructuredMatchesOracle(t *testing.T) {
	for _, n := range []int{1, 4, 16, 64} {
		p := constrainedProblem(n)
		got, err := Solve(p, Options{Ws: NewWorkspace(n)})
		if err != nil {
			t.Fatal(err)
		}
		want, _, ok := newDense(p).solve(nil)
		if !got.Converged || !ok {
			t.Fatalf("n=%d: both solvers must converge: structured %g oracle %v", n, got.Residual, ok)
		}
		if f := p.objective(want); got.Objective > f+1e-12*math.Abs(f) {
			t.Fatalf("n=%d: objective %v worse than the oracle's %v", n, got.Objective, f)
		}
		for i := range want {
			if math.Abs(want[i]-got.X[i]) > 1e-9 {
				t.Fatalf("n=%d: oracle and structured minimizers diverge at %d: %v vs %v", n, i, want[i], got.X[i])
			}
		}
	}
}

func TestWarmDimensionMismatch(t *testing.T) {
	p := constrainedProblem(8)
	if _, err := Solve(p, Options{Warm: make([]float64, 5)}); err == nil {
		t.Fatal("expected dimension error for mismatched warm start")
	}
}
