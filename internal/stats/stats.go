// Package stats provides the summary statistics the experiment harness
// reports: means, percentiles, time-weighted averages and RMS errors over
// simulation time series.
package stats

import (
	"errors"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs (0 for fewer than two
// values).
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// Std returns the population standard deviation of xs.
func Std(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Percentile returns the p-quantile (0 ≤ p ≤ 1) of xs using linear
// interpolation between order statistics. It returns an error for empty
// input or p outside [0, 1].
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, errors.New("stats: Percentile of empty slice")
	}
	if p < 0 || p > 1 {
		return 0, errors.New("stats: quantile must be in [0, 1]")
	}
	tmp := make([]float64, len(xs))
	copy(tmp, xs)
	sort.Float64s(tmp)
	if len(tmp) == 1 {
		return tmp[0], nil
	}
	pos := p * float64(len(tmp)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return tmp[lo], nil
	}
	frac := pos - float64(lo)
	return tmp[lo]*(1-frac) + tmp[hi]*frac, nil
}

// Min returns the smallest element (+Inf for empty input).
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		m = math.Min(m, x)
	}
	return m
}

// Max returns the largest element (−Inf for empty input).
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// RMSE returns the root-mean-square difference between a and b; it returns
// an error on length mismatch or empty input.
func RMSE(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, errors.New("stats: RMSE length mismatch")
	}
	if len(a) == 0 {
		return 0, errors.New("stats: RMSE of empty slices")
	}
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(a))), nil
}

// FracAbove returns the fraction of samples strictly above the threshold.
func FracAbove(xs []float64, threshold float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var n int
	for _, x := range xs {
		if x > threshold {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// SettlingTime returns the first time index i such that |xs[j] − target| ≤
// tol for all j ≥ i, or −1 if the series never settles. Used by the
// controller ablations to compare MPC and PI step responses.
func SettlingTime(xs []float64, target, tol float64) int {
	settled := -1
	for i, x := range xs {
		if math.Abs(x-target) <= tol {
			if settled < 0 {
				settled = i
			}
		} else {
			settled = -1
		}
	}
	return settled
}

// Overshoot returns the maximum excursion of xs beyond target relative to
// the step size |target − from| (0 if the series never crosses target, or
// for a zero-size step).
func Overshoot(xs []float64, from, target float64) float64 {
	step := target - from
	if step == 0 {
		return 0
	}
	var worst float64
	for _, x := range xs {
		var over float64
		if step > 0 {
			over = x - target
		} else {
			over = target - x
		}
		if over > worst {
			worst = over
		}
	}
	return worst / math.Abs(step)
}
