// Package stats provides small statistical helpers used throughout the
// harvesting simulator: percentiles, CDFs, histograms, online accumulators,
// and deterministic random-number utilities.
//
// All functions are purely computational and deterministic; any randomness is
// injected by the caller through *rand.Rand so that experiments are
// reproducible.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned when a statistic is requested over an empty sample.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
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

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum
}

// Min returns the minimum of xs, or 0 for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs, or 0 for an empty slice.
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

// Summary returns the mean, maximum, and coefficient of variation of xs in
// one pass. It exists for hot callers that need all three (the re-clustering
// drift check runs it over every tenant's history window every refresh) and
// matches Mean/Max/CoefficientOfVariation exactly for the values they agree
// on. An empty slice returns all zeros.
func Summary(xs []float64) (mean, max, cv float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	sum := 0.0
	max = xs[0]
	for _, x := range xs {
		sum += x
		if x > max {
			max = x
		}
	}
	mean = sum / float64(len(xs))
	if mean == 0 {
		return mean, max, 0
	}
	sq := 0.0
	for _, x := range xs {
		d := x - mean
		sq += d * d
	}
	return mean, max, math.Sqrt(sq/float64(len(xs))) / mean
}

// Variance returns the population variance of xs.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	mean := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - mean
		sum += d * d
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// CoefficientOfVariation returns StdDev/Mean, or 0 when the mean is zero.
func CoefficientOfVariation(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return 0
	}
	return StdDev(xs) / m
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. It does not modify xs.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 100 {
		return 0, fmt.Errorf("stats: percentile %v out of range [0,100]", p)
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p), nil
}

// MustPercentile is Percentile but returns 0 on error. Convenient in
// reporting code where an empty series simply renders as zero.
func MustPercentile(xs []float64, p float64) float64 {
	v, err := Percentile(xs, p)
	if err != nil {
		return 0
	}
	return v
}

func percentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
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

// CDFPoint is a single point of an empirical cumulative distribution.
type CDFPoint struct {
	Value      float64 // sample value
	Cumulative float64 // fraction of samples <= Value, in (0, 1]
}

// CDF returns the empirical CDF of xs as a sorted sequence of points.
// Duplicate values are collapsed into a single point.
func CDF(xs []float64) []CDFPoint {
	if len(xs) == 0 {
		return nil
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	var out []CDFPoint
	n := float64(len(sorted))
	for i := 0; i < len(sorted); i++ {
		// Collapse runs of equal values to the last index of the run.
		if i+1 < len(sorted) && sorted[i+1] == sorted[i] {
			continue
		}
		out = append(out, CDFPoint{Value: sorted[i], Cumulative: float64(i+1) / n})
	}
	return out
}

// CDFAt evaluates the empirical CDF of xs at value v (fraction of samples <= v).
func CDFAt(xs []float64, v float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	count := 0
	for _, x := range xs {
		if x <= v {
			count++
		}
	}
	return float64(count) / float64(len(xs))
}

// Online is an online mean/variance accumulator (Welford's algorithm).
// The zero value is ready to use.
type Online struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add records a sample.
func (o *Online) Add(x float64) {
	o.n++
	if o.n == 1 {
		o.min, o.max = x, x
	} else {
		if x < o.min {
			o.min = x
		}
		if x > o.max {
			o.max = x
		}
	}
	delta := x - o.mean
	o.mean += delta / float64(o.n)
	o.m2 += delta * (x - o.mean)
}

// N returns the number of samples recorded.
func (o *Online) N() int { return o.n }

// Mean returns the running mean.
func (o *Online) Mean() float64 { return o.mean }

// Variance returns the running population variance.
func (o *Online) Variance() float64 {
	if o.n == 0 {
		return 0
	}
	return o.m2 / float64(o.n)
}

// StdDev returns the running population standard deviation.
func (o *Online) StdDev() float64 { return math.Sqrt(o.Variance()) }

// Min returns the smallest sample seen (0 when empty).
func (o *Online) Min() float64 { return o.min }

// Max returns the largest sample seen (0 when empty).
func (o *Online) Max() float64 { return o.max }

// Normalize scales xs in place so it sums to 1. A zero-sum slice is left
// unchanged and reported via the boolean return.
func Normalize(xs []float64) bool {
	sum := Sum(xs)
	if sum == 0 {
		return false
	}
	for i := range xs {
		xs[i] /= sum
	}
	return true
}

// Clamp limits x to the closed interval [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
