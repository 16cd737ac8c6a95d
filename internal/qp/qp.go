// Package qp solves the box-constrained convex quadratic programs that arise
// from SprintCon's model-predictive server power controller (paper Eq. 8–9).
// Under the paper's "same operation continues" simplification the MPC
// Hessian is a rank-one tracking term plus a positive diagonal control
// penalty, so every problem has the form
//
//	minimize   ½·A·(kᵀx)² + ½·Σᵢ Dᵢ·xᵢ² + gᵀx
//	subject to lo ≤ x ≤ hi   (element-wise)
//
// with A ≥ 0 and every Dᵢ > 0, which makes it strictly convex. (The
// full-horizon controller's Hessian is block-diagonal with one such block
// per control move, so it solves one Problem per block.)
//
// Once s = kᵀx is fixed the problem separates:
// xᵢ(s) = clamp(−(gᵢ + A·s·kᵢ)/Dᵢ, loᵢ, hiᵢ). The minimizer's s is the unique
// root of ψ(s) = s − Σᵢ kᵢ·xᵢ(s), which is strictly increasing and piecewise
// linear with at most 2n breakpoints. Solve finds the linear piece holding
// the root by Newton steps — each one solves the current piece in closed
// form — started from the warm point's bound pattern (Options.Warm) or else
// from the unconstrained minimizer, and safeguarded by bisection over the
// sorted breakpoints. The answer is exact up to rounding (iterative
// refinement covers very stiff coordinates), each ψ evaluation costs O(n),
// the worst case is O(n log n), and with a Workspace (Options.Ws) a solve
// performs no heap allocation.
package qp

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// Problem describes a rank-one-plus-diagonal box-constrained QP. All
// vectors have the same length n.
type Problem struct {
	A  float64   // weight of the rank-one term ½·A·(kᵀx)², ≥ 0
	K  []float64 // rank-one coupling direction (e.g. W/GHz per core)
	D  []float64 // diagonal weights, each > 0
	G  []float64 // linear cost term
	Lo []float64 // element-wise lower bounds (decision-variable units, e.g. GHz)
	Hi []float64 // element-wise upper bounds
}

// Options controls the solver. The zero value solves cold, allocating.
type Options struct {
	// Warm, when non-nil, starts the root search on the warm point's
	// piece of ψ: the coordinates where Warm sits at a bound of this box
	// stay there, the rest are free. An MPC re-solves a nearly identical
	// problem every period, so the previous period's bound pattern is
	// usually the new one and the first ψ evaluation confirms the root.
	// Warm must have the problem's dimension; it is read, never written.
	Warm []float64
	// Ws, when non-nil, provides preallocated scratch so the solve
	// performs no heap allocation; Result.X then aliases workspace memory
	// that the next Solve with the same workspace overwrites. Workspaces
	// are not safe for concurrent use.
	Ws *Workspace
}

// Result reports the solution of a Problem.
type Result struct {
	X         []float64 // minimizer (aliases Options.Ws scratch when set)
	Objective float64   // ½·A·(kᵀx)² + ½·Σ Dᵢxᵢ² + gᵀx at X
	// Evals counts ψ evaluations, each one O(n) pass over the variables.
	Evals int
	// Residual is the KKT residual at X, each coordinate's violation
	// scaled by the magnitude of the terms of its gradient (see
	// Problem.residual).
	Residual  float64
	Converged bool // Residual ≤ 1e-9
}

// Workspace holds the scratch buffers of one solver instance. Reusing a
// Workspace across Solve calls eliminates every steady-state allocation of
// the hot path; see Options.Ws for the aliasing contract.
type Workspace struct {
	x     []float64
	piece []piece
	bp    []float64 // breakpoints inside the bisection bracket
}

// piece describes how coordinate i contributes to ψ: for s ≤ t1 it sits at
// a bound and contributes k·bound = c1, for s ≥ t2 at the other bound (c2),
// and in between it is free and contributes −v − A·s·w. Coordinates whose
// value does not depend on s have t1 = t2 = +Inf.
type piece struct {
	t1, t2, c1, c2, w, v float64
}

// NewWorkspace returns a workspace for n-variable problems.
func NewWorkspace(n int) *Workspace {
	w := &Workspace{}
	w.ensure(n)
	return w
}

// ensure sizes the buffers for an n-variable problem.
func (w *Workspace) ensure(n int) {
	if len(w.x) == n {
		return
	}
	w.x = make([]float64, n)
	w.piece = make([]piece, n)
	w.bp = make([]float64, 0, 2*n)
}

const (
	// tol bounds the scaled KKT residual of a converged solve.
	tol = 1e-9
	// newtonCap bounds the Newton phase; a search still open after it
	// finishes by bisection over the breakpoints, which keeps the worst
	// case at O(log n) further evaluations.
	newtonCap = 8
	// maxRefine bounds the iterative-refinement passes after the root
	// search; each contracts the residual by about ε·(1 + A·Σkᵢ²/Dᵢ).
	maxRefine = 8
)

var (
	// ErrDimension reports inconsistent problem dimensions.
	ErrDimension = errors.New("qp: inconsistent problem dimensions")
	// ErrBounds reports lo[i] > hi[i] for some i.
	ErrBounds = errors.New("qp: lower bound exceeds upper bound")
	// ErrNotConvex reports a negative A or a non-positive diagonal weight.
	ErrNotConvex = errors.New("qp: problem is not strictly convex")
)

// Validate checks the problem for structural errors.
func (p Problem) Validate() error {
	n := len(p.G)
	if len(p.K) != n || len(p.D) != n || len(p.Lo) != n || len(p.Hi) != n {
		return fmt.Errorf("%w: n=%d k=%d d=%d lo=%d hi=%d", ErrDimension, n, len(p.K), len(p.D), len(p.Lo), len(p.Hi))
	}
	if !(p.A >= 0) {
		return fmt.Errorf("%w: A = %g", ErrNotConvex, p.A)
	}
	for i := 0; i < n; i++ {
		if p.Lo[i] > p.Hi[i] {
			return fmt.Errorf("%w: index %d (%g > %g)", ErrBounds, i, p.Lo[i], p.Hi[i])
		}
		if !(p.D[i] > 0) {
			return fmt.Errorf("%w: D[%d] = %g", ErrNotConvex, i, p.D[i])
		}
	}
	return nil
}

// objective evaluates ½·A·(kᵀx)² + ½·Σ Dᵢxᵢ² + gᵀx.
func (p Problem) objective(x []float64) float64 {
	s := dot(p.K, x)
	f := 0.5 * p.A * s * s
	for i, xi := range x {
		f += xi * (0.5*p.D[i]*xi + p.G[i])
	}
	return f
}

// residual returns the KKT residual at x: the largest violation of the
// first-order conditions (at a lower bound the gradient may be positive, at
// an upper bound negative, in the interior it must vanish), each divided by
// the magnitude of the terms that make up that coordinate's gradient,
// Σⱼ|A·kᵢ·kⱼ·xⱼ| + |Dᵢxᵢ| + |gᵢ|. That scale is what rounding is relative
// to, so the residual means the same at A = 10⁻² and A = 10⁴. Coordinates
// with lo ≥ hi are fixed, not bound-constrained, and have no condition.
func (p Problem) residual(x []float64) float64 {
	var s, sAbs float64
	for i, xi := range x {
		s += p.K[i] * xi
		sAbs += math.Abs(p.K[i] * xi)
	}
	var r float64
	for i, xi := range x {
		if p.Lo[i] >= p.Hi[i] {
			continue
		}
		gi := p.A*s*p.K[i] + p.D[i]*xi + p.G[i]
		var v float64
		switch {
		case xi <= p.Lo[i]:
			v = -gi // must be ≤ 0 to be optimal
		case xi >= p.Hi[i]:
			v = gi // must be ≤ 0 to be optimal
		default:
			v = math.Abs(gi)
		}
		if v <= 0 {
			continue
		}
		scale := p.A*math.Abs(p.K[i])*sAbs + math.Abs(p.D[i]*xi) + math.Abs(p.G[i])
		if v/scale > r {
			r = v / scale
		}
	}
	return r
}

// Solve minimizes the problem. The returned Result is valid even when
// Converged is false; an error is returned only for structurally invalid
// problems.
func Solve(p Problem, opt Options) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	n := len(p.G)
	if len(opt.Warm) != 0 && len(opt.Warm) != n {
		return Result{}, fmt.Errorf("%w: warm start has %d elements for n=%d", ErrDimension, len(opt.Warm), n)
	}
	if n == 0 {
		return Result{X: []float64{}, Converged: true}, nil
	}
	ws := opt.Ws
	if ws == nil {
		ws = NewWorkspace(n)
	}
	ws.ensure(n)

	// Tabulate each coordinate's piece of ψ, the bracket [sL, sR] that
	// kᵀx must lie in, and the starting point: the root of the piece on
	// which the coordinates where the warm point sits at a bound of this
	// box stay there and the rest are free. Cold, every coordinate is
	// free, which starts at the unconstrained minimizer.
	var sL, sR, c0, w0, v0 float64
	warm := opt.Warm
	for i := range ws.piece {
		k, d, g, lo, hi := p.K[i], p.D[i], p.G[i], p.Lo[i], p.Hi[i]
		if k >= 0 {
			sL, sR = sL+k*lo, sR+k*hi
		} else {
			sL, sR = sL+k*hi, sR+k*lo
		}
		c := &ws.piece[i]
		ak := p.A * k
		if ak == 0 || lo == hi {
			xi := clamp(-g/d, lo, hi)
			*c = piece{t1: math.Inf(1), t2: math.Inf(1), c1: k * xi}
			c0 += c.c1
			continue
		}
		// xᵢ(s) decreases in s when k > 0: it sits at hi for small s.
		below, above := hi, lo
		if ak < 0 {
			below, above = lo, hi
		}
		inv := 1 / ak
		kd := k / d
		*c = piece{
			t1: (-g - d*below) * inv, t2: (-g - d*above) * inv,
			c1: k * below, c2: k * above,
			w: k * kd, v: g * kd,
		}
		switch {
		case warm != nil && warm[i] <= lo:
			c0 += k * lo
		case warm != nil && warm[i] >= hi:
			c0 += k * hi
		default:
			w0 += c.w
			v0 += c.v
		}
	}
	s := clamp((c0-v0)/(1+p.A*w0), sL, sR)

	// Safeguarded Newton: jump to the root of the piece holding s. The
	// same piece yields bit-identical sums, so r == s exactly when s is
	// the root. Each evaluated point becomes an end of the bracket; when
	// a step would leave the bracket or return to an evaluated end, or
	// Newton has had newtonCap steps, the next point is instead the
	// median breakpoint inside the bracket. With none left, the bracket
	// lies on one linear piece, which is solved directly.
	evals, steps := 0, 0
	evalL, evalR, sorted := false, false, false
	bp := ws.bp[:0]
	for {
		r := ws.pieceRoot(p.A, s)
		evals++
		if r == s {
			break
		}
		if r > s {
			sL, evalL = s, true
		} else {
			sR, evalR = s, true
		}
		if steps < newtonCap && (r > sL || r == sL && !evalL) && (r < sR || r == sR && !evalR) {
			steps++
			s = r
			continue
		}
		if !sorted {
			for _, pc := range ws.piece {
				for _, t := range [2]float64{pc.t1, pc.t2} {
					if t > sL && t < sR {
						bp = append(bp, t)
					}
				}
			}
			slices.Sort(bp)
			sorted = true
		}
		for len(bp) > 0 && bp[0] <= sL {
			bp = bp[1:]
		}
		for len(bp) > 0 && bp[len(bp)-1] >= sR {
			bp = bp[:len(bp)-1]
		}
		if len(bp) == 0 {
			r = ws.pieceRoot(p.A, sL+(sR-sL)/2)
			evals++
			s = clamp(r, sL, sR)
			break
		}
		s = bp[len(bp)/2]
	}

	x := ws.x
	for i := range x {
		x[i] = clamp(-(p.G[i]+p.A*s*p.K[i])/p.D[i], p.Lo[i], p.Hi[i])
	}
	res := p.residual(x)
	// A stiff free coordinate (A·kᵢ²/Dᵢ ≫ 1) amplifies the rounding of s
	// into kᵀx and so into every gradient; refinement restores a residual
	// at the rounding level of the gradient's own terms.
	for pass := 0; res > tol && pass < maxRefine; pass++ {
		p.refine(x)
		evals++
		res = p.residual(x)
	}
	return Result{X: x, Objective: p.objective(x), Evals: evals, Residual: res, Converged: res <= tol}, nil
}

// refine takes one step of iterative refinement on the coordinates strictly
// inside their box: it solves (A·kkᵀ + D)·δ = −∇ over them by the
// Sherman–Morrison formula, δᵢ = (−∇ᵢ + kᵢ·c)/Dᵢ with
// c = A·Σkⱼ∇ⱼ/Dⱼ / (1 + A·Σkⱼ²/Dⱼ), and moves x by δ, clamped to the box.
func (p Problem) refine(x []float64) {
	s := dot(p.K, x)
	var t, w float64
	for i, xi := range x {
		if xi > p.Lo[i] && xi < p.Hi[i] {
			t += p.K[i] * (p.A*s*p.K[i] + p.D[i]*xi + p.G[i]) / p.D[i]
			w += p.K[i] * p.K[i] / p.D[i]
		}
	}
	c := p.A * t / (1 + p.A*w)
	for i, xi := range x {
		if xi > p.Lo[i] && xi < p.Hi[i] {
			grad := p.A*s*p.K[i] + p.D[i]*xi + p.G[i]
			x[i] = clamp(xi+(p.K[i]*c-grad)/p.D[i], p.Lo[i], p.Hi[i])
		}
	}
}

// pieceRoot evaluates ψ's linear piece at s and returns that piece's root:
// with C the contribution of the coordinates at a bound and W, V summed
// over the free ones, s = C − V − A·s·W gives s = (C − V)/(1 + A·W).
// The root is above s exactly when ψ(s) < 0.
func (w *Workspace) pieceRoot(a, s float64) float64 {
	var c, wf, vf float64
	for _, pc := range w.piece {
		switch {
		case s <= pc.t1:
			c += pc.c1
		case s >= pc.t2:
			c += pc.c2
		default:
			wf += pc.w
			vf += pc.v
		}
	}
	return (c - vf) / (1 + a*wf)
}

// dot returns Σ x[i]·y[i] over slices of equal length.
func dot(x, y []float64) float64 {
	var s float64
	for i := range x {
		s += x[i] * y[i]
	}
	return s
}

// clamp returns v limited to [lo, hi].
func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
