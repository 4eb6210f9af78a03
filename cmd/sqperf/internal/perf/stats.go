// Package perf is sqperf's measurement kernel: exact order statistics over
// stored samples, and in-memory span tracing with a span-file format.
//
// End-to-end numbers come from here, never from synchq's own
// instrumentation: internal/metrics keeps log₂ buckets (every percentile
// reads as a power of two minus one) and is itself one of the layers the
// benchmark measures.
package perf

import (
	"math"
	"sort"
)

// Sorted returns a sorted copy of xs.
func Sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// Percentile returns the q-quantile (0 < q <= 1) of an ascending slice by
// the nearest-rank rule: the smallest sample with at least q·n samples at
// or below it. Every value it returns is a sample that was measured. It
// returns NaN for an empty slice.
func Percentile(sorted []float64, q float64) float64 {
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

// Beyond counts the samples of an ascending slice strictly greater than v:
// how many samples back a tail percentile.
func Beyond(sorted []float64, v float64) int {
	return len(sorted) - sort.Search(len(sorted), func(i int) bool { return sorted[i] > v })
}

// Median returns the median of xs (the mean of the two middle samples for
// an even count), or NaN when xs is empty.
func Median(xs []float64) float64 {
	s := Sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// Quartiles returns the first quartile, median and third quartile of xs
// with the same interpolation as Python's statistics.quantiles(xs, n=4)
// (the default "exclusive" method), so spreads computed here match the
// ones an outside checker computes from the same values. A single sample
// is its own quartiles; an empty slice gives NaNs.
func Quartiles(xs []float64) (q1, med, q3 float64) {
	s := Sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	m := n + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}
