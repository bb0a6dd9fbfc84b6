package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// planReference computes the unfused pipeline the Plan replaces: window the
// input, divide by the coherent gain, and run the allocating (I)FFT.
func planReference(x []complex128, w Window, inverse bool) []complex128 {
	n := len(x)
	c := w.Coefficients(n)
	g := w.CoherentGain(n)
	y := make([]complex128, n)
	for i, v := range x {
		y[i] = v * complex(c[i]/g, 0)
	}
	if inverse {
		return IFFT(y)
	}
	return FFT(y)
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
	for _, n := range []int{1, 2, 4, 8, 16, 64, 256, 12, 100, 255} {
		for _, w := range []Window{Rectangular, Hann, Hamming, Blackman} {
			for _, inverse := range []bool{false, true} {
				p := NewPlan(n, w)
				if p.Size() != n || p.PlanWindow() != w {
					t.Fatalf("plan identity: size %d window %v", p.Size(), p.PlanWindow())
				}
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

func TestPlanInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{16, 100} {
		p := NewPlan(n, Hann)
		x := randomSignal(rng, n)
		want := make([]complex128, n)
		p.Forward(want, x)
		p.Forward(x, x)
		if err := maxRelErr(x, want); err > 0 {
			t.Errorf("n=%d: in-place execution differs from out-of-place by %g", n, err)
		}
	}
}

func TestPlanCached(t *testing.T) {
	s, _ := testPlanSet()
	if s.PlanFor(64, Hann) != s.PlanFor(64, Hann) {
		t.Error("PlanFor rebuilt an existing plan")
	}
	if s.PlanFor(64, Hann) == s.PlanFor(64, Hamming) {
		t.Error("plans of different windows shared")
	}
	if s.PlanFor(64, Hann) == s.PlanFor(128, Hann) {
		t.Error("plans of different sizes shared")
	}
	if NewPlan(64, Hann) == NewPlan(64, Hann) {
		t.Error("NewPlan returned a shared plan")
	}
}

func TestPlanForwardMany(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n, channels = 32, 4
	p := NewPlan(n, Hann)
	src := randomSignal(rng, channels*n)
	dst := make([]complex128, channels*n)
	p.ForwardMany(dst, src, channels, n)
	for k := 0; k < channels; k++ {
		want := make([]complex128, n)
		p.Forward(want, src[k*n:(k+1)*n])
		if err := maxRelErr(dst[k*n:(k+1)*n], want); err > 0 {
			t.Errorf("channel %d differs from single-channel execution by %g", k, err)
		}
	}
}

func TestPlanInverseManyRoundTrip(t *testing.T) {
	// A calibrated Rectangular inverse of a forward transform recovers the
	// signal: Inverse(FFT(x)) == x.
	rng := rand.New(rand.NewSource(10))
	const n, channels = 64, 3
	p := NewPlan(n, Rectangular)
	src := randomSignal(rng, channels*n)
	mid := make([]complex128, channels*n)
	p.ForwardMany(mid, src, channels, n)
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
	mustPanic("NewPlan(0)", func() { NewPlan(0, Hann) })
	p := NewPlan(16, Hann)
	mustPanic("short dst", func() { p.Forward(make([]complex128, 8), make([]complex128, 16)) })
	mustPanic("short stride", func() {
		p.ForwardMany(make([]complex128, 64), make([]complex128, 64), 2, 8)
	})
	mustPanic("short buffer", func() {
		p.ForwardMany(make([]complex128, 24), make([]complex128, 64), 2, 16)
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
		p.Inverse(dst, src)
	}
}

func BenchmarkUnfusedInverse256(b *testing.B) {
	// The pre-plan pipeline: window multiply + in-place IFFT.
	rng := rand.New(rand.NewSource(11))
	src := randomSignal(rng, 256)
	dst := make([]complex128, 256)
	win := Hann.Coefficients(256)
	invGain := 1 / Hann.CoherentGain(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, v := range src {
			dst[j] = v * complex(win[j]*invGain, 0)
		}
		IFFTInPlace(dst)
	}
}
