// Package stats provides the small statistics toolkit used by the
// benchmark harness: summaries (mean/median/percentiles) and plain-text
// table/CSV rendering of benchmark series.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary describes a sample of float64 observations.
type Summary struct {
	N      int
	Mean   float64
	Stddev float64
	Min    float64
	Max    float64
	P50    float64
	P90    float64
	P99    float64
}

// Summarize computes a Summary of xs. It copies xs before sorting, so the
// argument is not disturbed. An empty input yields a zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)

	var sum, sumsq float64
	for _, x := range s {
		sum += x
		sumsq += x * x
	}
	n := float64(len(s))
	mean := sum / n
	variance := sumsq/n - mean*mean
	if variance < 0 {
		variance = 0 // floating point wobble
	}
	return Summary{
		N:      len(s),
		Mean:   mean,
		Stddev: math.Sqrt(variance),
		Min:    s[0],
		Max:    s[len(s)-1],
		P50:    Quantile(s, 0.50),
		P90:    Quantile(s, 0.90),
		P99:    Quantile(s, 0.99),
	}
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) of the sorted sample s
// using linear interpolation between order statistics. It panics if s is
// empty or unsorted inputs are the caller's responsibility.
func Quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		panic("stats: quantile of empty sample")
	}
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// String renders the summary compactly.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.1f sd=%.1f min=%.1f p50=%.1f p90=%.1f p99=%.1f max=%.1f",
		s.N, s.Mean, s.Stddev, s.Min, s.P50, s.P90, s.P99, s.Max)
}
