package qp

import (
	"math"
	"math/rand"
	"testing"
)

// Layout bits of the generated MPC-shaped problems.
const (
	layoutPerCoreK    = 1 << iota // per-core model slopes instead of one uniform slope
	layoutZeroK                   // some lanes have k = 0
	layoutLocked                  // some lanes are locked: lo = hi = 0
	layoutExtremeD                // some lanes have tiny or huge diagonal weights
	layoutBreakpoint              // the root sits exactly on breakpoints
	layoutFullHorizon             // 2–4 blocks sharing k, D and the box (ControlHorizon)
)

// genMPC generates the blocks of an MPC-shaped problem: a per-core slope k
// (W/GHz), diagonal weights from per-core urgency, a box from the cores'
// current frequencies in [0.4, 2.0] GHz, and a linear term pulling the
// batch power toward a random gap. A (the rank-one weight) spans
// 10^-2..10^4 as logA ranges over [0, 6).
func genMPC(seed int64, size, layout uint8, logA float64) []Problem {
	rng := rand.New(rand.NewSource(seed))
	n := 1 + int(size)%64
	blocks := 1
	if layout&layoutFullHorizon != 0 {
		n = 1 + int(size)%16 // the dense oracle factors n·blocks variables
		blocks = 2 + int(size)%3
	}
	if math.IsNaN(logA) || math.IsInf(logA, 0) {
		logA = 0
	}
	a := math.Pow(10, math.Mod(math.Abs(logA), 6)-2)

	k := make([]float64, n)
	d := make([]float64, n)
	lo := make([]float64, n)
	hi := make([]float64, n)
	slope := 1 + 30*rng.Float64()
	for i := 0; i < n; i++ {
		k[i] = slope
		if layout&layoutPerCoreK != 0 {
			k[i] = 1 + 30*rng.Float64()
		}
		if layout&layoutZeroK != 0 && rng.Intn(4) == 0 {
			k[i] = 0
		}
		d[i] = 40 * (1e-3 + 10*rng.Float64())
		if layout&layoutExtremeD != 0 && rng.Intn(3) == 0 {
			d[i] *= math.Pow(10, float64(12*rng.Intn(2)-6))
		}
		f := 0.4 + 1.6*rng.Float64()
		switch rng.Intn(6) { // cores parked at a frequency limit
		case 0:
			f = 0.4
		case 1:
			f = 2.0
		}
		lo[i], hi[i] = 0.4-f, 2.0-f
		if layout&layoutLocked != 0 && rng.Intn(4) == 0 {
			lo[i], hi[i] = 0, 0
		}
	}

	out := make([]Problem, blocks)
	for b := range out {
		ab := a * (1 + float64(b))
		g := make([]float64, n)
		if layout&layoutBreakpoint != 0 {
			g = onBreakpoints(rng, ab, k, d, lo, hi)
		} else {
			gap := rng.NormFloat64() * 500
			for i := range g {
				g[i] = -gap*k[i] + d[i]*(hi[i]-lo[i])*rng.Float64()
			}
		}
		out[b] = Problem{A: ab, K: k, D: d, G: g, Lo: lo, Hi: hi}
	}
	return out
}

// onBreakpoints picks a KKT point x* — each lane at a bound with a random
// multiplier, interior, or at a bound with a zero multiplier (exactly on
// its breakpoint) — and returns the linear term that makes x* optimal.
func onBreakpoints(rng *rand.Rand, a float64, k, d, lo, hi []float64) []float64 {
	n := len(k)
	x := make([]float64, n)
	mu := make([]float64, n)
	for i := range x {
		switch rng.Intn(4) {
		case 0:
			x[i], mu[i] = lo[i], rng.Float64()*100 // gradient ≥ 0 at lo
		case 1:
			x[i], mu[i] = hi[i], -rng.Float64()*100 // gradient ≤ 0 at hi
		case 2:
			x[i] = lo[i] + (hi[i]-lo[i])*rng.Float64()
		default:
			x[i] = hi[i] // degenerate: on the breakpoint
		}
	}
	s := dot(k, x)
	g := make([]float64, n)
	for i := range g {
		g[i] = mu[i] - a*s*k[i] - d[i]*x[i]
	}
	return g
}

// checkAgainstOracle solves the blocks cold and warm and holds the result
// to the dense oracle: every x inside its box, the scaled KKT residual
// within tolerance, warm and cold agreeing, and the total objective no worse
// than the oracle's.
func checkAgainstOracle(t *testing.T, blocks []Problem) {
	t.Helper()
	const relObj = 1e-12
	oracle, _, _ := newDense(blocks...).solve(nil)
	var got, want, mag float64
	off := 0
	for b, p := range blocks {
		n := len(p.G)
		cold, err := Solve(p, Options{})
		if err != nil {
			t.Fatalf("block %d: %v", b, err)
		}
		warm, err := Solve(p, Options{Warm: oracle[off : off+n], Ws: NewWorkspace(n)})
		if err != nil {
			t.Fatalf("block %d: %v", b, err)
		}
		for _, r := range []Result{cold, warm} {
			if !r.Converged {
				t.Fatalf("block %d: scaled KKT residual %g after %d evaluations", b, r.Residual, r.Evals)
			}
			for i, xi := range r.X {
				if xi < p.Lo[i] || xi > p.Hi[i] {
					t.Fatalf("block %d: x[%d] = %v outside [%v, %v]", b, i, xi, p.Lo[i], p.Hi[i])
				}
			}
		}
		scale := objectiveMagnitude(p, cold.X)
		if diff := math.Abs(cold.Objective - warm.Objective); diff > relObj*scale {
			t.Fatalf("block %d: warm objective %v vs cold %v", b, warm.Objective, cold.Objective)
		}
		got += cold.Objective
		want += p.objective(oracle[off : off+n])
		mag += scale
		off += n
	}
	if got > want+relObj*mag {
		t.Fatalf("objective %v worse than the oracle's %v (tolerance %g)", got, want, relObj*mag)
	}
}

// objectiveMagnitude sums the absolute values of the objective's terms at
// x, the scale its rounding error is relative to.
func objectiveMagnitude(p Problem, x []float64) float64 {
	s := dot(p.K, x)
	m := 0.5 * p.A * s * s
	for i, xi := range x {
		m += 0.5*p.D[i]*xi*xi + math.Abs(p.G[i]*xi)
	}
	return m
}

// FuzzQP differentially tests the structured solver against the dense
// active-set oracle on generated MPC-shaped problems.
func FuzzQP(f *testing.F) {
	for layout := uint8(0); layout < 64; layout += 3 {
		f.Add(int64(layout), uint8(7+layout), layout, float64(layout%6))
	}
	f.Add(int64(1), uint8(63), uint8(layoutPerCoreK|layoutLocked|layoutBreakpoint), 5.9)
	f.Add(int64(2), uint8(63), uint8(layoutExtremeD|layoutZeroK), 0.0)
	f.Add(int64(3), uint8(15), uint8(layoutFullHorizon|layoutBreakpoint|layoutLocked), 3.0)
	f.Fuzz(func(t *testing.T, seed int64, size, layout uint8, logA float64) {
		checkAgainstOracle(t, genMPC(seed, size, layout, logA))
	})
}

// The fuzz target's layouts, each over a spread of seeds and weights, run
// as part of the ordinary test suite.
func TestQPDifferentialLayouts(t *testing.T) {
	for layout := uint8(0); layout < 64; layout++ {
		for seed := int64(0); seed < 6; seed++ {
			checkAgainstOracle(t, genMPC(seed, uint8(seed*11+int64(layout)), layout, float64(seed)))
		}
	}
}
