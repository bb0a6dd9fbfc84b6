package dsp

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// planReference computes the unfused pipeline the Plan replaces: window the
// input, divide by the coherent gain, and run the naive (I)DFT.
func planReference(x []complex128, w Window, inverse bool) []complex128 {
	n := len(x)
	c := w.Coefficients(n)
	g := Mean(c)
	y := make([]complex128, n)
	for i, v := range x {
		y[i] = v * complex(c[i]/g, 0)
	}
	return naiveDFT(y, inverse)
}

func randomSignal(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func maxRelErr(got, want []complex128) float64 {
	scale := 0.0
	for _, v := range want {
		if a := cmplx.Abs(v); a > scale {
			scale = a
		}
	}
	if scale == 0 {
		scale = 1
	}
	worst := 0.0
	for i := range want {
		if d := cmplx.Abs(got[i]-want[i]) / scale; d > worst {
			worst = d
		}
	}
	return worst
}

func TestPlanMatchesUnfusedPipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{8, 16, 32, 64, 256, 1024} {
		for _, w := range []Window{Rectangular, Hann, Hamming, Blackman} {
			for _, inverse := range []bool{false, true} {
				p := NewPlan(n, w)
				x := randomSignal(rng, n)
				want := planReference(x, w, inverse)
				dst := make([]complex128, n)
				if inverse {
					p.Inverse(dst, x)
				} else {
					p.Forward(dst, x)
				}
				if err := maxRelErr(dst, want); err > 1e-12 {
					t.Errorf("n=%d w=%v inverse=%v: max rel err %g", n, w, inverse, err)
				}
			}
		}
	}
}

func TestNewPlanUnshared(t *testing.T) {
	if NewPlan(64, Hann) == NewPlan(64, Hann) {
		t.Error("NewPlan returned a shared plan")
	}
}

// TestPlanInverseTablesLazy: a plan that only ran Forward holds no inverse
// tables, and the first inverse transform builds them bit-identical to the
// window and twiddle arithmetic they are defined by.
func TestPlanInverseTablesLazy(t *testing.T) {
	const n = 256
	for _, w := range []Window{Rectangular, Hann} {
		p := NewPlan(n, w)
		x := randomSignal(rand.New(rand.NewSource(11)), n)
		dst := make([]complex128, n)
		p.Forward(dst, x)
		if p.invCoef != nil || p.rootsInv != nil {
			t.Fatalf("%v: forward-only plan holds inverse tables", w)
		}
		p.Inverse(dst, x)
		win := w.Coefficients(n)
		invGain := 1 / Mean(win)
		for j, src := range p.perm {
			if want := win[src] * invGain / float64(n); p.invCoef[j] != want {
				t.Fatalf("%v: invCoef[%d] = %v, want %v", w, j, p.invCoef[j], want)
			}
		}
		for i, r := range p.roots {
			if want := complex(real(r), -imag(r)); p.rootsInv[i] != want {
				t.Fatalf("%v: rootsInv[%d] = %v, want %v", w, i, p.rootsInv[i], want)
			}
		}
	}
}

func TestPlanInverseManyRoundTrip(t *testing.T) {
	// A calibrated Rectangular inverse of a forward transform recovers the
	// signal: Inverse(Forward(x)) == x.
	rng := rand.New(rand.NewSource(10))
	const n, channels = 64, 3
	p := NewPlan(n, Rectangular)
	src := randomSignal(rng, channels*n)
	mid := make([]complex128, channels*n)
	for k := 0; k < channels; k++ {
		p.Forward(mid[k*n:(k+1)*n], src[k*n:(k+1)*n])
	}
	back := make([]complex128, channels*n)
	p.InverseMany(back, mid, channels, n)
	if err := maxRelErr(back, src); err > 1e-12 {
		t.Errorf("round trip error %g", err)
	}
}

func TestPlanCalibratedToneAmplitude(t *testing.T) {
	// A full-bin tone of amplitude A must peak at |A| under any window once
	// the coherent gain is divided out — the calibration RangeProfile
	// depends on.
	const n = 128
	const amp = 3.5
	for _, w := range []Window{Rectangular, Hann, Hamming} {
		p := NewPlan(n, w)
		x := make([]complex128, n)
		for i := range x {
			s, c := math.Sincos(2 * math.Pi * 5 * float64(i) / n)
			x[i] = complex(amp*c, amp*s)
		}
		dst := make([]complex128, n)
		p.Inverse(dst, x)
		peak := 0.0
		for _, v := range dst {
			if a := cmplx.Abs(v); a > peak {
				peak = a
			}
		}
		if math.Abs(peak-amp) > 1e-9 {
			t.Errorf("%v: calibrated peak %g, want %g", w, peak, amp)
		}
	}
}

func TestPlanPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	for _, n := range []int{0, 1, 4, 12, 200} {
		mustPanic(fmt.Sprintf("NewPlan(%d)", n), func() { NewPlan(n, Hann) })
	}
	p := NewPlan(16, Hann)
	buf := make([]complex128, 64)
	mustPanic("dst aliases src", func() { p.InverseMany(buf, buf, 2, 16) })
	mustPanic("dst overlaps src", func() { p.InverseMany(buf[8:40], buf[:32], 2, 16) })
	mustPanic("short stride", func() {
		p.InverseMany(make([]complex128, 64), make([]complex128, 64), 2, 8)
	})
	mustPanic("short buffer", func() {
		p.InverseMany(make([]complex128, 24), make([]complex128, 64), 2, 16)
	})
}

func BenchmarkPlanInverse256(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	p := NewPlan(256, Hann)
	src := randomSignal(rng, 256)
	dst := make([]complex128, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.InverseMany(dst, src, 1, 256)
	}
}

// TestForwardMagnitudeMatchesForward: ForwardMagnitude equals Forward on the
// zero-padded series followed by MagnitudeInto, bit for bit, at several
// series lengths in a row, so a recycled buffer's stale tail never leaks
// into the padding.
func TestForwardMagnitudeMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{16, 256} {
		p := NewPlan(n, Rectangular)
		for _, l := range []int{n, n / 2, 3, n / 4, 0} {
			x := make([]float64, l)
			padded := make([]complex128, n)
			for i := range x {
				x[i] = rng.NormFloat64()
				padded[i] = complex(x[i], 0)
			}
			full := make([]complex128, n)
			p.Forward(full, padded)
			want := make([]float64, n/2)
			MagnitudeInto(want, full[:n/2])
			got := make([]float64, n/2)
			p.ForwardMagnitude(got, x)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d, %d samples, bin %d: %v, Forward gives %v", n, l, i, got[i], want[i])
				}
			}
		}
	}
}
