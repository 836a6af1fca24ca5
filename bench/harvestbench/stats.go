package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of an ascending-sorted sample by
// the nearest-rank rule: the smallest value with at least q·n samples at or
// below it. Latency samples are kept exact and sorted here — never pushed
// through obs.Histogram, whose buckets are powers of two.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// median sorts a copy of xs and returns its 0.5-quantile.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// tailLadder is the percentiles a tail report may name, lowest first.
var tailLadder = []float64{0.50, 0.90, 0.99, 0.999, 0.9999, 0.99999}

// highestSupported returns the highest ladder percentile that still has at
// least ten samples beyond it in a sample of n — the choosing-metrics rule for
// which tail a run may quote. ok is false when even the median has fewer than
// ten samples above it.
func highestSupported(n int) (q float64, ok bool) {
	for _, p := range tailLadder {
		beyond := n - int(math.Ceil(p*float64(n)))
		if beyond < 10 {
			break
		}
		q, ok = p, true
	}
	return q, ok
}
