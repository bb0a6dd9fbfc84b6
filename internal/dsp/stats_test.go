package dsp

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// Regression: a NaN sample used to poison the rank order — sort.Float64s
// leaves NaNs in arbitrary positions, so Median([1,2,3,NaN]) could report
// NaN or any sample. The contract now drops non-finite samples first.
func TestMedianIgnoresNaN(t *testing.T) {
	got := Median([]float64{1, 2, 3, math.NaN()})
	if got != 2 {
		t.Fatalf("Median([1,2,3,NaN]) = %g, want 2", got)
	}
	got = Median([]float64{math.NaN(), 5, math.NaN()})
	if got != 5 {
		t.Fatalf("Median([NaN,5,NaN]) = %g, want 5", got)
	}
}

func TestPercentileIgnoresInf(t *testing.T) {
	x := []float64{math.Inf(1), 10, 20, math.Inf(-1), 30}
	if got := Median(x); got != 20 {
		t.Fatalf("Median with ±Inf = %g, want 20", got)
	}
	if got := Percentile(x, 0); got != 10 {
		t.Fatalf("P0 with ±Inf = %g, want 10", got)
	}
	if got := Percentile(x, 100); got != 30 {
		t.Fatalf("P100 with ±Inf = %g, want 30", got)
	}
}

func TestPercentileAllNonFinite(t *testing.T) {
	for _, x := range [][]float64{
		nil,
		{},
		{math.NaN()},
		{math.Inf(1), math.Inf(-1), math.NaN()},
	} {
		if got := Median(x); !math.IsInf(got, -1) {
			t.Fatalf("Median(%v) = %g, want -Inf", x, got)
		}
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	x := []float64{5, 1, 4, 2, 3}
	Percentile(x, 50)
	want := []float64{5, 1, 4, 2, 3}
	for i := range x {
		if x[i] != want[i] {
			t.Fatalf("Percentile mutated x: %v", x)
		}
	}
}

// TestPercentileMatchesSortReference pins the quickselect path to the
// sort-based estimator rank for rank: identical results, not merely close
// ones.
func TestPercentileMatchesSortReference(t *testing.T) {
	ref := func(x []float64, p float64) float64 {
		s := append([]float64(nil), x...)
		sort.Float64s(s)
		if p <= 0 {
			return s[0]
		}
		if p >= 100 {
			return s[len(s)-1]
		}
		pos := p / 100 * float64(len(s)-1)
		lo := int(math.Floor(pos))
		hi := int(math.Ceil(pos))
		if lo == hi {
			return s[lo]
		}
		frac := pos - float64(lo)
		return s[lo]*(1-frac) + s[hi]*frac
	}
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		x := make([]float64, n)
		for i := range x {
			switch rng.Intn(4) {
			case 0:
				x[i] = float64(rng.Intn(5)) // heavy duplicates
			default:
				x[i] = rng.NormFloat64() * 100
			}
		}
		p := rng.Float64() * 100
		if got, want := Percentile(x, p), ref(x, p); got != want {
			t.Fatalf("trial %d: Percentile(n=%d, p=%g) = %g, want %g", trial, n, p, got, want)
		}
		cp := append([]float64(nil), x...)
		if got, want := PercentileInPlace(cp, p), ref(x, p); got != want {
			t.Fatalf("trial %d: PercentileInPlace = %g, want %g", trial, got, want)
		}
	}
}

func TestPercentileEdgeRanks(t *testing.T) {
	x := []float64{3, 1, 2}
	if got := Percentile(x, 0); got != 1 {
		t.Fatalf("P0 = %g", got)
	}
	if got := Percentile(x, 100); got != 3 {
		t.Fatalf("P100 = %g", got)
	}
	if got := Percentile(x, 50); got != 2 {
		t.Fatalf("P50 = %g", got)
	}
	if got := Percentile([]float64{7}, 33); got != 7 {
		t.Fatalf("single sample P33 = %g", got)
	}
	if got := Percentile(x, math.NaN()); !math.IsNaN(got) {
		t.Fatalf("NaN p = %g, want NaN", got)
	}
}

func BenchmarkMedianInPlace256(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	src := make([]float64, 256)
	for i := range src {
		src[i] = rng.NormFloat64()
	}
	x := make([]float64, len(src))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(x, src)
		MedianInPlace(x)
	}
}

func BenchmarkMedianSortRef256(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	src := make([]float64, 256)
	for i := range src {
		src[i] = rng.NormFloat64()
	}
	x := make([]float64, len(src))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(x, src)
		sort.Float64s(x)
	}
}
