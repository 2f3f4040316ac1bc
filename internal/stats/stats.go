// Package stats provides the small set of descriptive statistics used by
// the experiment harness: means, standard deviations, extrema, and the
// avg (std) / avg [min,max] summaries that appear in the paper's Table 3
// and Figure 3.
package stats

import (
	"fmt"
	"math"
	"sort"
)

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

// SampleVariance returns the Bessel-corrected (n-1) variance of xs,
// or 0 if len(xs) < 2. The paper's Table 3 reports sample deviations.
func SampleVariance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs)-1)
}

// SampleStdDev returns the sample (n-1) standard deviation of xs.
func SampleStdDev(xs []float64) float64 { return math.Sqrt(SampleVariance(xs)) }

// Min returns the minimum of xs. It panics on an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Min of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs. It panics on an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Max of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Median returns the median of xs (average of the two middle elements for
// even lengths). It panics on an empty slice.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Median of empty slice")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Summary holds the aggregate descriptors the experiment tables report.
type Summary struct {
	N      int
	Mean   float64
	Std    float64 // sample (n-1) standard deviation
	Min    float64
	Max    float64
	Median float64
}

// Summarize computes a Summary of xs. An empty slice yields a zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	return Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		Std:    SampleStdDev(xs),
		Min:    Min(xs),
		Max:    Max(xs),
		Median: Median(xs),
	}
}

// String renders the summary in the paper's "avg (std)" style.
func (s Summary) String() string {
	return fmt.Sprintf("%.2f (%.2f)", s.Mean, s.Std)
}

// RangeString renders the summary in the paper's Figure-3 style:
// average with min–max bar.
func (s Summary) RangeString() string {
	return fmt.Sprintf("%.2f [%.2f, %.2f]", s.Mean, s.Min, s.Max)
}
