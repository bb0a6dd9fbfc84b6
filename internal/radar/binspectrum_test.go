package radar

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"ros/internal/dsp"
)

// binSpectrumScene draws a random decode-mode-like scene: scatterers across
// the unambiguous range with azimuth, elevation, Doppler and extra phase.
func binSpectrumScene(c Config, rng *rand.Rand, count int) []Scatterer {
	out := make([]Scatterer, count)
	for i := range out {
		out[i] = Scatterer{
			Range:          (0.02 + 0.96*rng.Float64()) * c.MaxRange(),
			Azimuth:        (rng.Float64() - 0.5) * 2 * math.Pi / 3,
			Amplitude:      math.Pow(10, -3-2*rng.Float64()),
			Phase:          2 * math.Pi * rng.Float64(),
			Elevation:      (rng.Float64() - 0.5) * 0.2,
			RadialVelocity: (rng.Float64() - 0.5) * 60,
		}
	}
	return out
}

// TestBinSpectrumMatchesRangeProfile pins BinSpectrum's tone part to the
// time-domain path: Synthesize without noise, then the fused
// window+IFFT range transform, at every bin of every channel. The scenes
// cover random scatterers with Doppler, a tone exactly on a bin, tones on
// both side-kernel singularities, bins 0 and N-1, and a second transform
// size.
func TestBinSpectrumMatchesRangeProfile(t *testing.T) {
	base := TI1443()
	long := base
	long.Samples = 512
	for _, c := range []Config{base, long} {
		plan := c.NewSynthPlan()
		n := float64(c.Samples)
		bin := c.RangeBinSize()
		rng := rand.New(rand.NewSource(int64(c.Samples)))
		scenes := map[string][]Scatterer{
			"on-bin":     {{Range: 40 * bin, Azimuth: 0.3, Amplitude: 1e-3}},
			"side-upper": {{Range: (40 + n/(n-1)) * bin, Azimuth: -0.2, Amplitude: 1e-3}},
			"side-lower": {{Range: (40 - n/(n-1)) * bin, Azimuth: 0.1, Amplitude: 1e-3}},
			"edge-bins":  {{Range: 0.4 * bin, Amplitude: 1e-3}, {Range: (n - 1.3) * bin, Amplitude: 2e-3}},
		}
		for i := 0; i < 6; i++ {
			scenes[string(rune('A'+i))+"-random"] = binSpectrumScene(c, rng, 1+rng.Intn(24))
		}
		dst := make([]complex128, c.NumRx)
		for name, scat := range scenes {
			f := plan.Synthesize(scat, nil)
			rp := plan.RangeProfile(f)
			peak := 0.0
			for _, ch := range rp.Bins {
				for _, v := range ch {
					peak = math.Max(peak, cmplx.Abs(v))
				}
			}
			worst := 0.0
			for b := 0; b < c.Samples; b++ {
				plan.BinSpectrum(dst, scat, b, nil)
				for k, v := range dst {
					worst = math.Max(worst, cmplx.Abs(v-rp.Bins[k][b])/peak)
				}
			}
			if worst > 1e-12 {
				t.Errorf("N=%d %s: BinSpectrum differs from the range profile by %.3g of the peak", c.Samples, name, worst)
			}
			ReleaseFrame(f)
			ReleaseProfile(rp)
		}
	}
}

// TestHannKernelSingularities pins the windowed tone sum against the direct
// sum over the window coefficients at the kernels' exact removable
// singularities (phi = 0 and phi = -+2*pi/(N-1)), next to them, and at
// random angles.
func TestHannKernelSingularities(t *testing.T) {
	for _, n := range []int{8, 200, 256} {
		w := dsp.Hann.Coefficients(n)
		k := newBinKernel(w, 1)
		hs := []float64{0, k.halfStep, -k.halfStep, 1e-300, k.halfStep + 1e-13, -k.halfStep - 1e-9, math.Pi / 2, -math.Pi / 2}
		rng := rand.New(rand.NewSource(int64(n)))
		for i := 0; i < 50; i++ {
			hs = append(hs, (rng.Float64()-0.5)*math.Pi)
		}
		for _, h := range hs {
			var want complex128
			for j, wj := range w {
				want += complex(wj, 0) * cmplx.Exp(complex(0, 2*h*float64(j)))
			}
			mag, pRe, pIm := k.hann(h, n)
			got := complex(mag*pRe, mag*pIm)
			if d := cmplx.Abs(got - want); d > 1e-12*float64(n) {
				t.Errorf("N=%d h=%g: kernel %v, direct sum %v (|diff| %.3g)", n, h, got, want, d)
			}
		}
	}
}

// TestBinSpectrumNoisePower checks the bin-domain noise against the window's
// noise-bandwidth model, NoisePerBin * N*sum(w^2)/sum(w)^2, and against the
// noise the time-domain path actually leaves in its range bins.
func TestBinSpectrumNoisePower(t *testing.T) {
	c := TI1443()
	plan := c.NewSynthPlan()
	n := float64(c.Samples)
	// Symmetric Hann: sum(w^2) = 3(N-1)/8 and sum(w) = (N-1)/2, so the
	// noise bandwidth N*sum(w^2)/sum(w)^2 is 1.5*N/(N-1) bins.
	model := c.NoisePerBin() * 1.5 * n / (n - 1)

	const draws = 40000
	dst := make([]complex128, c.NumRx)
	var g dsp.Gauss
	sum := 0.0
	for i := 0; i < draws; i++ {
		g.Reseed(int64(i))
		plan.BinSpectrum(dst, nil, i%c.Samples, &g)
		for _, v := range dst {
			sum += real(v)*real(v) + imag(v)*imag(v)
		}
	}
	direct := sum / float64(draws*c.NumRx)
	// |X|^2 of complex Gaussian noise is exponential: relative standard
	// error 1/sqrt(160000) = 0.25%; 1.5% is six sigma.
	if r := direct / model; math.Abs(r-1) > 0.015 {
		t.Errorf("bin-domain noise power %.4g W, model %.4g W (ratio %.4f)", direct, model, r)
	}

	sum, count := 0.0, 0
	for i := 0; i < 200; i++ {
		g.Reseed(int64(1e6 + i))
		f := plan.Synthesize(nil, &g)
		rp := plan.RangeProfile(f)
		for _, ch := range rp.Bins {
			for _, v := range ch {
				sum += real(v)*real(v) + imag(v)*imag(v)
				count++
			}
		}
		ReleaseFrame(f)
		ReleaseProfile(rp)
	}
	timeDomain := sum / float64(count)
	// 204800 correlated bin samples (adjacent Hann bins correlate): 2%.
	if r := timeDomain / model; math.Abs(r-1) > 0.02 {
		t.Errorf("time-domain per-bin noise power %.4g W, model %.4g W (ratio %.4f)", timeDomain, model, r)
	}
}

func TestBinSpectrumRejectsBadArguments(t *testing.T) {
	c := TI1443()
	plan := c.NewSynthPlan()
	for name, call := range map[string]func(){
		"bin -1":    func() { plan.BinSpectrum(make([]complex128, c.NumRx), nil, -1, nil) },
		"bin N":     func() { plan.BinSpectrum(make([]complex128, c.NumRx), nil, c.Samples, nil) },
		"short dst": func() { plan.BinSpectrum(make([]complex128, c.NumRx-1), nil, 3, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			call()
		}()
	}
}

func BenchmarkBinSpectrum(b *testing.B) {
	c := TI1443()
	plan := c.NewSynthPlan()
	scat := binSpectrumScene(c, rand.New(rand.NewSource(1)), 4)
	dst := make([]complex128, c.NumRx)
	var g dsp.Gauss
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Reseed(int64(i))
		plan.BinSpectrum(dst, scat, 40, &g)
	}
}
