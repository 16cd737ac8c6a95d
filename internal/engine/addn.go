package engine

import "math"

// addRun reports how many of the next n executions of x += d add one and the
// same exact increment: for every k ≤ m, k executions leave exactly
// x + float64(k)·step in x, and that expression is exact. m == 0 means the
// next execution must be done as x += d, and so must the execution after a
// run shorter than n.
//
// Within one binade of x the spacing u of float64s is a fixed power of two.
// Write d = q·u + r with 0 ≤ r < u. Each x += d then rounds the exact sum to
// the u-grid the same way: step = q·u when 2r < u, (q+1)·u when 2r > u. The
// run stops one grid point short of the binade's edges, so every exact sum
// stays inside the binade, where the u-grid is the float64 grid. A tie
// (2r = u) rounds by the parity of x/u and ends the run; so do an x near
// zero (subnormal spacing), a non-finite x or d, and a |d| too large for
// the binade. Rounding is sign-symmetric, so a negative x runs mirrored.
func addRun(x, d float64, n int) (m int, step float64) {
	if n <= 0 {
		return 0, 0
	}
	neg := x < 0
	if neg {
		x, d = -x, -d
	}
	e := int(math.Float64bits(x) >> 52) // biased exponent; the sign is clear
	// u = 2^(e−1075) and u/2 must be normal, and the binade's upper edge
	// 2·lo must be finite. This also rejects ±0, NaN and ±Inf.
	if e < 54 || e > 2045 {
		return 0, 0
	}
	lo := math.Float64frombits(uint64(e) << 52)
	u := math.Float64frombits(uint64(e-52) << 52)
	if !(math.Abs(d) < lo/4) { // false for NaN too
		return 0, 0
	}
	// d/u = d·2^(1075−e) is exact (a power-of-two scaling with
	// |d/u| < 2^50), and so are q·u and, by Sterbenz, r = d − q·u — except
	// for q = −1, where r = d + u may round; rounding is monotone and u/2 is
	// representable, so the strict comparisons below stay right and only a
	// rounded tie falls back.
	t := d * math.Float64frombits(uint64(2098-e)<<52)
	q := float64(int64(t)) // floor: truncate, then step down below zero
	if q > t {
		q--
	}
	r := d - q*u
	switch {
	case 2*r < u:
		step = q * u
	case 2*r > u:
		step = (q + 1) * u
	default:
		return 0, 0
	}
	if step == 0 {
		// |d| below half a spacing: every add is absorbed, and x never
		// moves — unless x sits on the binade's lower edge and d points
		// down, where the finer grid below lo can take the sum.
		if x == lo && d < 0 {
			return 0, 0
		}
		return n, 0
	}
	// Distance to the last grid point before the edge: exact, a multiple
	// of u below lo. room/|step| is a ratio of integers below 2^52, so its
	// rounded quotient truncates to the exact count of whole steps.
	var room float64
	if step > 0 {
		room = (2*lo - u) - x
	} else {
		room = x - (lo + u)
	}
	k := int64(room / math.Abs(step)) // truncation floors a positive count
	if k <= 0 {
		return 0, 0
	}
	if k < int64(n) {
		n = int(k)
	}
	if neg {
		step = -step
	}
	return n, step
}

// AddN returns the value n executions of x += d leave in x, bit for bit, in
// O(binades crossed) instead of O(n): each addRun is closed with one exact
// multiply-add and every other add is executed as written.
func AddN(x, d float64, n int) float64 {
	if d == 0 {
		// x + ±0 is x, except that −0 + +0 is +0; either way one add
		// reaches the value every later add keeps.
		if n > 0 {
			x += d
		}
		return x
	}
	for n > 0 {
		if m, step := addRun(x, d, n); m > 0 {
			x += float64(m) * step
			n -= m
		}
		if n > 0 {
			// A run shorter than n stopped at its binade's edge, so the
			// next add is executed as written either way.
			x += d
			n--
		}
	}
	return x
}
