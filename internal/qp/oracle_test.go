package qp

import (
	"math"

	"sprintcon/internal/mathx"
)

// dense is the test oracle: the primal active-set solver that ran on the MPC
// hot path before the structured solver replaced it. It forms the Hessian
// explicitly and factors free-variable blocks, so it shares no logic with
// Solve. Several problems given together form one block-diagonal problem —
// the full-horizon MPC's shape.
type dense struct {
	h         *mathx.Matrix
	g, lo, hi mathx.Vector
}

// newDense assembles blockdiag(Aᵦ·kᵦkᵦᵀ + diag(Dᵦ)) over the blocks.
func newDense(blocks ...Problem) dense {
	var q dense
	n := 0
	for _, b := range blocks {
		n += len(b.G)
	}
	q.h = mathx.NewMatrix(n, n)
	off := 0
	for _, b := range blocks {
		for i := range b.G {
			for j := range b.G {
				q.h.Inc(off+i, off+j, b.A*b.K[i]*b.K[j])
			}
			q.h.Inc(off+i, off+i, b.D[i])
		}
		q.g = append(q.g, b.G...)
		q.lo = append(q.lo, b.Lo...)
		q.hi = append(q.hi, b.Hi...)
		off += len(b.G)
	}
	return q
}

func (q dense) gradient(x mathx.Vector) mathx.Vector {
	grad := q.h.MulVec(x)
	grad.AXPY(1, q.g)
	return grad
}

// residual is the unscaled KKT residual at x. Coordinates with lo ≥ hi are
// fixed, not bound-constrained, and have no condition.
func (q dense) residual(x, grad mathx.Vector) float64 {
	var r float64
	for i, gi := range grad {
		var v float64
		switch {
		case q.lo[i] >= q.hi[i]:
			continue
		case x[i] <= q.lo[i]:
			v = -gi
		case x[i] >= q.hi[i]:
			v = gi
		default:
			v = math.Abs(gi)
		}
		r = math.Max(r, v)
	}
	return r
}

// solve runs primal active-set Newton iterations from the projection of
// warm (or of 0 when warm is nil): each iteration solves the free block's
// Newton system, truncated at the first bound it crosses; after a full step
// the pinned coordinate with the worst multiplier is released. It returns
// the final iterate — always feasible — with the iteration count and
// whether the residual met 1e-9·(1 + ‖g‖∞).
func (q dense) solve(warm mathx.Vector) (mathx.Vector, int, bool) {
	n := len(q.g)
	atol := tol * (1 + q.g.NormInf())
	x := mathx.NewVector(n)
	pin := make([]bool, n)
	for i := range x {
		if warm != nil {
			x[i] = warm[i]
		}
		x[i] = math.Min(math.Max(x[i], q.lo[i]), q.hi[i])
		pin[i] = x[i] <= q.lo[i] || x[i] >= q.hi[i]
	}
	maxIter := 3*n + 16
	for iter := 0; iter < maxIter; iter++ {
		grad := q.gradient(x)
		if q.residual(x, grad) <= atol {
			return x, iter, true
		}
		var free []int
		for i := range pin {
			if !pin[i] {
				free = append(free, i)
			}
		}
		blocked := false
		if m := len(free); m > 0 {
			sub := mathx.NewMatrix(m, m)
			rhs := mathx.NewVector(m)
			for a, i := range free {
				rhs[a] = -grad[i]
				for b, j := range free {
					sub.Set(a, b, q.h.At(i, j))
				}
			}
			step, err := sub.SolveSPD(rhs)
			if err != nil {
				return x, iter, false
			}
			alpha, blk, blkAt := 1.0, -1, 0.0
			for a, i := range free {
				d := step[a]
				if d > 0 && x[i]+d > q.hi[i] {
					if s := (q.hi[i] - x[i]) / d; s < alpha {
						alpha, blk, blkAt = s, i, q.hi[i]
					}
				} else if d < 0 && x[i]+d < q.lo[i] {
					if s := (q.lo[i] - x[i]) / d; s < alpha {
						alpha, blk, blkAt = s, i, q.lo[i]
					}
				}
			}
			for a, i := range free {
				x[i] = math.Min(math.Max(x[i]+alpha*step[a], q.lo[i]), q.hi[i])
			}
			if blk >= 0 {
				x[blk], pin[blk], blocked = blkAt, true, true
			}
		}
		if blocked {
			continue
		}
		grad = q.gradient(x)
		worst, worstI := atol, -1
		for i := range pin {
			if !pin[i] || q.lo[i] >= q.hi[i] {
				continue
			}
			v := grad[i] // at an upper bound optimality needs grad ≤ 0
			if x[i] <= q.lo[i] {
				v = -grad[i]
			}
			if v > worst {
				worst, worstI = v, i
			}
		}
		if worstI < 0 {
			return x, iter + 1, q.residual(x, grad) <= atol
		}
		pin[worstI] = false
	}
	return x, maxIter, false
}
