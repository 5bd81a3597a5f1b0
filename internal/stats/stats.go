// Package stats provides the small set of statistical primitives the HMN
// reproduction needs: the population standard deviation used by the paper's
// objective function (Eq. 10), Pearson correlation for the objective-vs-
// execution-time analysis (§5.2), and summary helpers used by the
// experiment harness when aggregating the 30 repetitions of each scenario.
//
// All functions operate on float64 slices and are deterministic. Functions
// that are undefined on empty input return 0 rather than NaN so that the
// harness can aggregate partially failed scenario runs without poisoning
// tables with NaNs; callers that need to distinguish "no data" should check
// len(xs) themselves.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// PopStdDev returns the population standard deviation of xs — the exact
// form of the paper's objective function (Eq. 10), which divides by n, not
// n-1. Returns 0 for empty input.
func PopStdDev(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	// The conversion keeps d*d unfused on every architecture (Eq. (10)
	// decides placements); declaring ss with var instead of := 0.0 pays
	// for it in the inliner's budget, which mapping.Objective sits at.
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += float64(d * d)
	}
	return math.Sqrt(ss / float64(len(xs)))
}

// SampleStdDev returns the sample (n-1) standard deviation of xs. Used for
// the error bars in Figure 1. Returns 0 when len(xs) < 2.
func SampleStdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += float64(d * d)
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// Pearson returns the Pearson product-moment correlation coefficient
// between xs and ys. It returns 0 when the slices differ in length, hold
// fewer than two points, or either series is constant (correlation
// undefined).
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Max returns the largest element of xs, or 0 for empty input.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. Returns 0 for empty input. The input
// slice is not modified.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Welford is an online accumulator for mean and variance using Welford's
// algorithm. The zero value is ready to use. It lets the experiment harness
// aggregate long scenario sweeps without retaining every sample.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add feeds one observation into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of observations seen so far.
func (w *Welford) N() int { return w.n }

// Mean returns the running mean, or 0 before the first observation.
func (w *Welford) Mean() float64 { return w.mean }

// PopStdDev returns the running population standard deviation, or 0 before
// the first observation.
func (w *Welford) PopStdDev() float64 {
	if w.n == 0 {
		return 0
	}
	return math.Sqrt(w.m2 / float64(w.n))
}

// SampleStdDev returns the running sample standard deviation, or 0 when
// fewer than two observations have been seen.
func (w *Welford) SampleStdDev() float64 {
	if w.n < 2 {
		return 0
	}
	return math.Sqrt(w.m2 / float64(w.n-1))
}
