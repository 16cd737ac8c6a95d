package qp

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomProblem draws an n-variable problem with mixed-sign coupling, so
// ψ's pieces bend both ways.
func randomProblem(rng *rand.Rand, n int) Problem {
	p := Problem{A: 10 * rng.Float64(), K: make([]float64, n), D: make([]float64, n),
		G: make([]float64, n), Lo: make([]float64, n), Hi: make([]float64, n)}
	for i := 0; i < n; i++ {
		p.K[i] = rng.NormFloat64() * 5
		p.D[i] = 0.5 + 3*rng.Float64()
		p.G[i] = rng.NormFloat64() * 3
		a, b := rng.NormFloat64(), rng.NormFloat64()
		p.Lo[i], p.Hi[i] = math.Min(a, b), math.Max(a, b)
	}
	return p
}

// diagonal returns the separable problem ½·xᵀdiag(d)x + gᵀx (A = 0).
func diagonal(d, g, lo, hi []float64) Problem {
	return Problem{K: make([]float64, len(g)), D: d, G: g, Lo: lo, Hi: hi}
}

func TestSolveUnconstrainedInterior(t *testing.T) {
	// min ½xᵀIx − [1 2]x with wide bounds → x = [1 2].
	p := diagonal(constant(2, 1), []float64{-1, -2}, constant(2, -100), constant(2, 100))
	r, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Converged {
		t.Fatal("should converge")
	}
	if math.Abs(r.X[0]-1) > 1e-9 || math.Abs(r.X[1]-2) > 1e-9 {
		t.Fatalf("X = %v, want [1 2]", r.X)
	}
	if r.Evals != 1 {
		t.Fatalf("interior solution should be the cold start's own piece, evals=%d", r.Evals)
	}
}

func TestSolveClampedToBounds(t *testing.T) {
	// Unconstrained minimum [1 2] but box [0,0.5]²; with A = 0 the
	// coordinates decouple: x = [0.5, 0.5].
	p := diagonal(constant(2, 1), []float64{-1, -2}, constant(2, 0), constant(2, 0.5))
	r, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Converged {
		t.Fatal("should converge")
	}
	if math.Abs(r.X[0]-0.5) > 1e-9 || math.Abs(r.X[1]-0.5) > 1e-9 {
		t.Fatalf("X = %v, want [0.5 0.5]", r.X)
	}
}

func TestSolveMatchesGridSearch2D(t *testing.T) {
	// Coupled 2-D problem, H = [[2 0.8] [0.8 1.5]] = 0.8·[1 1]ᵀ[1 1] +
	// diag(1.2, 0.7), verified against a fine grid search.
	p := Problem{A: 0.8, K: []float64{1, 1}, D: []float64{1.2, 0.7},
		G: []float64{1.0, -2.0}, Lo: []float64{-1, -1}, Hi: []float64{1, 1}}

	r, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	best := math.Inf(1)
	var bx, by float64
	const steps = 400
	for i := 0; i <= steps; i++ {
		for j := 0; j <= steps; j++ {
			x := []float64{-1 + 2*float64(i)/steps, -1 + 2*float64(j)/steps}
			if v := p.objective(x); v < best {
				best, bx, by = v, x[0], x[1]
			}
		}
	}
	if math.Abs(r.X[0]-bx) > 2.0/steps || math.Abs(r.X[1]-by) > 2.0/steps {
		t.Fatalf("solver X=%v, grid best=(%v,%v)", r.X, bx, by)
	}
	if r.Objective > best+1e-6 {
		t.Fatalf("solver objective %v worse than grid %v", r.Objective, best)
	}
}

func TestSolveSatisfiesKKTRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		p := randomProblem(rng, 1+rng.Intn(20))
		r, err := Solve(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !r.Converged {
			t.Fatalf("trial %d did not converge (KKT %g)", trial, r.Residual)
		}
		for i := range r.X {
			if r.X[i] < p.Lo[i] || r.X[i] > p.Hi[i] {
				t.Fatalf("trial %d: X[%d]=%v outside [%v,%v]", trial, i, r.X[i], p.Lo[i], p.Hi[i])
			}
		}
		// The oracle's unscaled residual, as the dense solver measured it.
		q := newDense(p)
		if res := q.residual(r.X, q.gradient(r.X)); res > 1e-9*(1+normInf(p.G)) {
			t.Fatalf("trial %d: KKT residual %v", trial, res)
		}
	}
}

// Property: the solver's objective never exceeds that of random feasible
// points (global optimality of convex QP solutions).
func TestSolveBeatsRandomFeasiblePointsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomProblem(rng, 2+rng.Intn(8))
		r, err := Solve(p, Options{})
		if err != nil || !r.Converged {
			return false
		}
		x := make([]float64, len(p.G))
		for k := 0; k < 50; k++ {
			for i := range x {
				x[i] = p.Lo[i] + rng.Float64()*(p.Hi[i]-p.Lo[i])
			}
			if p.objective(x) < r.Objective-1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadProblems(t *testing.T) {
	good := Problem{A: 1, K: []float64{1, 1}, D: []float64{1, 1}, G: []float64{0, 0}, Lo: []float64{0, 0}, Hi: []float64{1, 1}}
	if err := good.Validate(); err != nil {
		t.Fatalf("good problem rejected: %v", err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*Problem)
		want   error
	}{
		{"lo > hi", func(p *Problem) { p.Lo = []float64{2, 0} }, ErrBounds},
		{"short g", func(p *Problem) { p.G = []float64{0} }, ErrDimension},
		{"short k", func(p *Problem) { p.K = []float64{1} }, ErrDimension},
		{"zero diagonal", func(p *Problem) { p.D = []float64{1, 0} }, ErrNotConvex},
		{"negative A", func(p *Problem) { p.A = -1 }, ErrNotConvex},
		{"NaN A", func(p *Problem) { p.A = math.NaN() }, ErrNotConvex},
	} {
		bad := good
		tc.mutate(&bad)
		if err := bad.Validate(); !errors.Is(err, tc.want) {
			t.Fatalf("%s: Validate = %v, want %v", tc.name, err, tc.want)
		}
		if _, err := Solve(bad, Options{}); !errors.Is(err, tc.want) {
			t.Fatalf("%s: Solve must propagate validation errors, got %v", tc.name, err)
		}
	}
}

func TestSolveEmptyProblem(t *testing.T) {
	r, err := Solve(Problem{}, Options{})
	if err != nil || !r.Converged || len(r.X) != 0 {
		t.Fatalf("empty problem: r=%+v err=%v", r, err)
	}
}

// Degenerate boxes lo == hi pin the solution exactly, and a pinned
// coordinate has no optimality condition: a negative gradient on it is not
// a KKT violation, so the solve converges.
func TestSolveEqualBounds(t *testing.T) {
	for _, a := range []float64{0, 30} {
		p := Problem{A: a, K: []float64{9.6, 9.6, 9.6}, D: constant(3, 1),
			G: []float64{5, -5, 0}, Lo: constant(3, 0.3), Hi: constant(3, 0.3)}
		r, err := Solve(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i := range r.X {
			if r.X[i] != 0.3 {
				t.Fatalf("A=%g: X = %v, want all 0.3", a, r.X)
			}
		}
		if !r.Converged || r.Residual != 0 {
			t.Fatalf("A=%g: pinned coordinates reported residual %g (converged=%v)", a, r.Residual, r.Converged)
		}
	}
}

func TestSolveMPCSizedProblem(t *testing.T) {
	// 128 variables ≈ one frequency move per batch core on the rack.
	p := constrainedProblem(128)
	r, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Converged {
		t.Fatalf("128-var problem did not converge (KKT %g)", r.Residual)
	}
	x, _, _ := newDense(p).solve(nil)
	if f := p.objective(x); r.Objective > f+1e-12*math.Abs(f) {
		t.Fatalf("objective %v worse than the oracle's %v", r.Objective, f)
	}
}

func BenchmarkSolve128(b *testing.B) {
	p := constrainedProblem(128)
	ws := NewWorkspace(128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(p, Options{Ws: ws}); err != nil {
			b.Fatal(err)
		}
	}
}
