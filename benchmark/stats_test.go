package benchmark

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	for _, tc := range []struct{ q, want float64 }{
		{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0.001, 1},
	} {
		if got := Percentile(xs, tc.q); got != tc.want {
			t.Errorf("Percentile(1..100, %g) = %g, want %g", tc.q, got, tc.want)
		}
	}
	if xs[0] != 100 {
		t.Error("Percentile reordered its input")
	}
	if !math.IsNaN(Percentile(nil, 0.5)) {
		t.Error("Percentile of no samples is not NaN")
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g, want 2", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g, want 2.5", got)
	}
	if !math.IsNaN(Median(nil)) {
		t.Error("median of no samples is not NaN")
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4), the rule
// an external check of the benchmark's spread uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1}, 0, 3, 6},
		{[]float64{10.5, 9.25, 11, 12.75, 8, 9.5, 10, 10.25}, 9.3125, 10.125, 10.875},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, m, q3 := Quartiles(tc.xs)
		if q1 != tc.q1 || m != tc.m || q3 != tc.q3 {
			t.Errorf("Quartiles(%v) = %g, %g, %g; want %g, %g, %g", tc.xs, q1, m, q3, tc.q1, tc.m, tc.q3)
		}
	}
}

func TestSpread(t *testing.T) {
	if got := Spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-5.5/5.5) > 1e-12 {
		t.Errorf("Spread(1..10) = %g, want 1", got)
	}
	if got := Spread([]float64{0, 0, 0}); got != 0 {
		t.Errorf("Spread of constant zeros = %g, want 0", got)
	}
	if got := Spread([]float64{-1, 0, 1}); !math.IsInf(got, 1) {
		t.Errorf("Spread around a zero median = %g, want +Inf", got)
	}
}
