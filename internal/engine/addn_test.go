package engine

import (
	"math"
	"math/rand"
	"testing"
)

// repeatAdd is the reference: n executions of x += d, as the tick loop
// runs them.
func repeatAdd(x, d float64, n int) float64 {
	for k := 0; k < n; k++ {
		x += d
	}
	return x
}

// FuzzRepeatedAdd checks AddN against the naive loop bit for bit, and that
// every addRun it reports is exact step by step.
func FuzzRepeatedAdd(f *testing.F) {
	f.Add(float64(1<<52), 0.5, 1000)                     // tie: 2r = u, rounds by parity
	f.Add(float64(1<<52)+1, 1.5, 1000)                   // tie with q = 1
	f.Add(1000.0, 0.3, 5000)                             // binade crossings
	f.Add(1.0, 1e-17, 1000)                              // absorption: |d| < u/2
	f.Add(1.0, -9e-17, 100)                              // |d| < u/2 down from lo: the finer grid takes it
	f.Add(1+5*0x1p20*0x1p-52, -(0x1p20+0.3)*0x1p-52, 10) // a run that would land on lo
	f.Add(300.0, -0.7, 2000)                             // negative d down through binades
	f.Add(0.5, -0.0625, 40)                              // crosses zero
	f.Add(-3.0, 0.001, 10000)                            // negative x toward zero
	f.Add(math.Copysign(0, -1), 0.0, 3)                  // −0 + +0
	f.Add(math.Copysign(0, -1), -1e-300, 3)              // −0 near zero
	f.Add(5e-324, 1e-310, 200)                           // subnormals
	f.Add(1e308, 1e307, 50)                              // overflow to +Inf
	f.Add(0.0, 1.0/3600, 86400)                          // a day of per-tick energy
	f.Fuzz(func(t *testing.T, x, d float64, n int) {
		if n < 0 {
			n = -n
		}
		n %= 1 << 16
		want := repeatAdd(x, d, n)
		if got := AddN(x, d, n); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("AddN(%v, %v, %d) = %v (%#x), loop gives %v (%#x)",
				x, d, n, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		if m, step := addRun(x, d, n); m > 0 {
			if m > n {
				t.Fatalf("addRun(%v, %v, %d) ran %d adds", x, d, n, m)
			}
			y := x
			for k := 1; k <= m; k++ {
				y += d
				if z := x + float64(k)*step; math.Float64bits(z) != math.Float64bits(y) {
					t.Fatalf("addRun(%v, %v, %d) = (%d, %v): add %d gives %v, x+k·step %v", x, d, n, m, step, k, y, z)
				}
				if k == 64 && m > 128 {
					k = m - 64 // check the run's head and tail
					y = x + float64(k)*step
				}
			}
		}
	})
}

// AddN is bit-identical to the loop on accumulator-shaped cases: sums of
// positive or negative per-tick increments over spans of up to a day.
func TestAddNMatchesLoopOnRandomCases(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		x := rng.Float64() * math.Pow(2, float64(rng.Intn(40)-10))
		d := rng.Float64() * math.Pow(2, float64(rng.Intn(30)-20))
		if rng.Intn(4) == 0 {
			d = -d
		}
		if rng.Intn(8) == 0 {
			x = -x
		}
		n := rng.Intn(90000)
		if got, want := AddN(x, d, n), repeatAdd(x, d, n); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("AddN(%v, %v, %d) = %v, loop gives %v", x, d, n, got, want)
		}
	}
}
