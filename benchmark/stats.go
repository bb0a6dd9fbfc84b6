package benchmark

import (
	"math"
	"sort"
)

// Percentile returns the nearest-rank q-quantile of xs (0 < q <= 1): the
// smallest sample with at least q of the samples at or below it. With 100
// samples the p90 is the 90th smallest, so ten samples lie beyond it. It
// sorts a copy and returns NaN for no samples.
func Percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// Median returns the middle of xs (the mean of the two middle samples for an
// even count), or NaN for no samples.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the first quartile, median and third quartile of xs by
// the same rule as Python's statistics.quantiles(xs, n=4) (the "exclusive"
// method), so spreads computed here agree with an external check of the
// same values. One sample is its own quartiles; none gives NaNs.
func Quartiles(xs []float64) (q1, med, q3 float64) {
	switch len(xs) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := sortedCopy(xs)
	n := len(s)
	m := n + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// Spread is the interquartile range of xs as a share of its median's
// magnitude: the run-to-run noise a bound has to exceed. A zero median with
// any spread is reported as +Inf.
func Spread(xs []float64) float64 {
	q1, med, q3 := Quartiles(xs)
	if q3 == q1 {
		return 0
	}
	if med == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(med)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
