package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{}, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.in); !approx(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestSampleVariance(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if got := SampleVariance(xs); !approx(got, 2.5, 1e-12) {
		t.Errorf("SampleVariance = %v, want 2.5", got)
	}
	if SampleVariance([]float64{1}) != 0 {
		t.Error("SampleVariance of singleton should be 0")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -2, 8, 0}
	if Min(xs) != -2 {
		t.Errorf("Min = %v", Min(xs))
	}
	if Max(xs) != 8 {
		t.Errorf("Max = %v", Max(xs))
	}
}

func TestMinPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Min(nil) did not panic")
		}
	}()
	Min(nil)
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd Median = %v", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even Median = %v", got)
	}
	// Median must not mutate its input.
	xs := []float64{3, 1, 2}
	Median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("Median mutated input: %v", xs)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Errorf("unexpected summary %+v", s)
	}
	if !approx(s.Std, math.Sqrt(2.5), 1e-12) {
		t.Errorf("Std = %v", s.Std)
	}
	if got := Summarize(nil); got != (Summary{}) {
		t.Errorf("empty Summarize = %+v", got)
	}
}

func TestSummaryStrings(t *testing.T) {
	s := Summary{Mean: 1.654, Std: 0.178, Min: 1.2, Max: 2.1}
	if got := s.String(); got != "1.65 (0.18)" {
		t.Errorf("String = %q", got)
	}
	if got := s.RangeString(); got != "1.65 [1.20, 2.10]" {
		t.Errorf("RangeString = %q", got)
	}
}

func TestMeanBoundsProperty(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				clean = append(clean, math.Mod(x, 1e6))
			}
		}
		if len(clean) == 0 {
			return Mean(clean) == 0
		}
		m := Mean(clean)
		return m >= Min(clean)-1e-6 && m <= Max(clean)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVarianceNonNegativeProperty(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				clean = append(clean, math.Mod(x, 1e6))
			}
		}
		return SampleVariance(clean) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
