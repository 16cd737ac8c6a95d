package qp

import "math"

// dense is the test oracle: the primal active-set solver that ran on the MPC
// hot path before the structured solver replaced it. It forms the Hessian
// explicitly and factors free-variable blocks, so it shares no logic with
// Solve. Several problems given together form one block-diagonal problem —
// the full-horizon MPC's shape.
type dense struct {
	n         int
	h         []float64 // row-major n×n Hessian
	g, lo, hi []float64
}

// newDense assembles blockdiag(Aᵦ·kᵦkᵦᵀ + diag(Dᵦ)) over the blocks.
func newDense(blocks ...Problem) dense {
	var q dense
	n := 0
	for _, b := range blocks {
		n += len(b.G)
	}
	q.n, q.h = n, make([]float64, n*n)
	off := 0
	for _, b := range blocks {
		for i := range b.G {
			for j := range b.G {
				q.h[(off+i)*n+off+j] += b.A * b.K[i] * b.K[j]
			}
			q.h[(off+i)*n+off+i] += b.D[i]
		}
		q.g = append(q.g, b.G...)
		q.lo = append(q.lo, b.Lo...)
		q.hi = append(q.hi, b.Hi...)
		off += len(b.G)
	}
	return q
}

// gradient returns H·x + g.
func (q dense) gradient(x []float64) []float64 {
	grad := make([]float64, q.n)
	for i := range grad {
		var s float64
		for j, v := range q.h[i*q.n : (i+1)*q.n] {
			s += v * x[j]
		}
		grad[i] = s + q.g[i]
	}
	return grad
}

// residual is the unscaled KKT residual at x. Coordinates with lo ≥ hi are
// fixed, not bound-constrained, and have no condition.
func (q dense) residual(x, grad []float64) float64 {
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
func (q dense) solve(warm []float64) ([]float64, int, bool) {
	n := q.n
	atol := tol * (1 + normInf(q.g))
	x := make([]float64, n)
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
			sub := make([]float64, m*m)
			rhs := make([]float64, m)
			for a, i := range free {
				rhs[a] = -grad[i]
				for b, j := range free {
					sub[a*m+b] = q.h[i*n+j]
				}
			}
			step, ok := solveSPD(m, sub, rhs)
			if !ok {
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

// solveSPD solves a·x = b for the symmetric positive-definite row-major m×m
// matrix a by a Cholesky factorization a = L·Lᵀ and forward and backward
// substitution. It reports false when a is not positive definite.
func solveSPD(m int, a, b []float64) ([]float64, bool) {
	l := make([]float64, m*m)
	for i := 0; i < m; i++ {
		for j := 0; j <= i; j++ {
			s := a[i*m+j]
			for k := 0; k < j; k++ {
				s -= l[i*m+k] * l[j*m+k]
			}
			if i == j {
				if s <= 0 {
					return nil, false
				}
				l[i*m+i] = math.Sqrt(s)
			} else {
				l[i*m+j] = s / l[j*m+j]
			}
		}
	}
	y := make([]float64, m)
	for i := 0; i < m; i++ { // L·y = b
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l[i*m+k] * y[k]
		}
		y[i] = s / l[i*m+i]
	}
	x := make([]float64, m)
	for i := m - 1; i >= 0; i-- { // Lᵀ·x = y
		s := y[i]
		for k := i + 1; k < m; k++ {
			s -= l[k*m+i] * x[k]
		}
		x[i] = s / l[i*m+i]
	}
	return x, true
}

// normInf returns the largest absolute element of x (0 when empty).
func normInf(x []float64) float64 {
	var m float64
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// constant returns a length-n slice with every element v.
func constant(n int, v float64) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = v
	}
	return x
}
