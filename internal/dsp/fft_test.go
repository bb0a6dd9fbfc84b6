package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveDFT is the O(n^2) reference the Plan is validated against. It shares
// no tables with the Plan: each term takes its root of unity from a table
// indexed by k*t mod n, so the phase stays exact for every n.
func naiveDFT(x []complex128, inverse bool) []complex128 {
	n := len(x)
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	w := make([]complex128, n)
	for j := range w {
		s, c := math.Sincos(sign * 2 * math.Pi * float64(j) / float64(n))
		w[j] = complex(c, s)
	}
	out := make([]complex128, n)
	for k := range out {
		var sum complex128
		for t, v := range x {
			sum += v * w[k*t%n]
		}
		if inverse {
			sum /= complex(float64(n), 0)
		}
		out[k] = sum
	}
	return out
}

// forward and inverse run a fresh Rectangular plan out of place: the plain
// FFT and the 1/N-normalized inverse.
func forward(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	NewPlan(len(x), Rectangular).Forward(out, x)
	return out
}

func inverse(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	NewPlan(len(x), Rectangular).Inverse(out, x)
	return out
}

func maxErr(a, b []complex128) float64 {
	worst := 0.0
	for i := range a {
		if e := cmplx.Abs(a[i] - b[i]); e > worst {
			worst = e
		}
	}
	return worst
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1023: 1024, 1024: 1024, 1025: 2048}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestIsPow2(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 65536} {
		if !IsPow2(n) {
			t.Errorf("IsPow2(%d) = false, want true", n)
		}
	}
	for _, n := range []int{0, -1, 3, 6, 12, 100} {
		if IsPow2(n) {
			t.Errorf("IsPow2(%d) = true, want false", n)
		}
	}
}

func TestFFTMatchesNaiveDFTPow2(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{8, 16, 64, 256, 1024} {
		x := randomSignal(rng, n)
		if e := maxErr(forward(x), naiveDFT(x, false)); e > 1e-9*float64(n) {
			t.Errorf("n=%d: forward plan differs from naive DFT by %g", n, e)
		}
		if e := maxErr(inverse(x), naiveDFT(x, true)); e > 1e-9 {
			t.Errorf("n=%d: inverse plan differs from naive DFT by %g", n, e)
		}
	}
}

func TestIFFTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{8, 16, 128, 4096} {
		x := randomSignal(rng, n)
		back := inverse(forward(x))
		if e := maxErr(back, x); e > 1e-9*float64(n) {
			t.Errorf("n=%d: Inverse(Forward(x)) differs from x by %g", n, e)
		}
	}
}

func TestFFTDoesNotModifyInput(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := randomSignal(rng, 16)
	orig := make([]complex128, len(x))
	copy(orig, x)
	forward(x)
	inverse(x)
	if e := maxErr(x, orig); e != 0 {
		t.Errorf("out-of-place Forward/Inverse modified their input (max diff %g)", e)
	}
}

func TestFFTSingleToneBin(t *testing.T) {
	// A complex exponential at bin k must concentrate all energy in bin k.
	n, k := 64, 5
	x := make([]complex128, n)
	for i := range x {
		x[i] = cmplx.Exp(complex(0, 2*math.Pi*float64(k)*float64(i)/float64(n)))
	}
	spec := forward(x)
	for i, v := range spec {
		want := 0.0
		if i == k {
			want = float64(n)
		}
		if math.Abs(cmplx.Abs(v)-want) > 1e-9 {
			t.Errorf("bin %d amplitude = %g, want %g", i, cmplx.Abs(v), want)
		}
	}
}

func TestFFTParseval(t *testing.T) {
	// Property: sum |x|^2 == (1/N) sum |X|^2.
	f := func(re, im [8]float64) bool {
		x := make([]complex128, 8)
		for i := range x {
			// Skip extreme magnitudes whose squared energy overflows.
			if math.Abs(re[i]) > 1e6 || math.Abs(im[i]) > 1e6 {
				return true
			}
			x[i] = complex(re[i], im[i])
		}
		spec := forward(x)
		var et, ef float64
		for i := range x {
			et += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
			ef += real(spec[i])*real(spec[i]) + imag(spec[i])*imag(spec[i])
		}
		ef /= 8
		return math.Abs(et-ef) <= 1e-9*(1+et)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFFTLinearity(t *testing.T) {
	// Property: F(a*x + y) == a*F(x) + F(y).
	f := func(xr, yr [16]float64, a float64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) || math.Abs(a) > 1e6 {
			return true
		}
		x := make([]complex128, 16)
		y := make([]complex128, 16)
		z := make([]complex128, 16)
		for i := range x {
			x[i] = complex(xr[i], 0)
			y[i] = complex(yr[i], 0)
			z[i] = complex(a, 0)*x[i] + y[i]
		}
		fx, fy, fz := forward(x), forward(y), forward(z)
		for i := range fz {
			want := complex(a, 0)*fx[i] + fy[i]
			if cmplx.Abs(fz[i]-want) > 1e-6*(1+cmplx.Abs(want)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMagnitude(t *testing.T) {
	x := []complex128{3 + 4i, 0, -2}
	mag := make([]float64, len(x))
	MagnitudeInto(mag, x)
	wantMag := []float64{5, 0, 2}
	for i := range x {
		if math.Abs(mag[i]-wantMag[i]) > 1e-12 {
			t.Errorf("MagnitudeInto[%d] = %g, want %g", i, mag[i], wantMag[i])
		}
	}
}
