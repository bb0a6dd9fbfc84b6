package radar

// Frame-equivalence suite: pins the plan/executor front-end (SynthPlan ->
// contiguous Frame -> fused window+IFFT range transform) to the pre-refactor
// reference implementations, re-derived here sample by sample. The plan path
// reorders floating-point operations (structure-of-arrays tone lanes spread
// across channels by steering phasors, fused window butterfly), so equality
// is checked to a 1e-9 relative tolerance; the quantizer, which would
// amplify an ulp into a full step, is pinned bit-exactly.
//
// Noise contract: since the batched-Gaussian PR, thermal noise is drawn
// from dsp.Gauss (a ziggurat over a SplitMix64 sub-stream), a deliberate
// replacement of the stdlib NormFloat64 sequence. The reference here
// therefore consumes the same Gauss stream the executor does — the suite
// pins the tone/window/quantizer arithmetic, and the generator itself is
// pinned by its own moment and determinism tests in internal/dsp.

import (
	"math"
	"math/rand"
	"testing"

	"ros/internal/dsp"
	"ros/internal/em"
)

// refSynthesize is the pre-refactor Config.Synthesize: per-channel Sincos
// for the steering phase, single-lane rotation recurrence, noise pass in
// channel-major order, then AGC quantization with its own full-frame scan.
func refSynthesize(c Config, scatterers []Scatterer, g *dsp.Gauss) [][]complex128 {
	lambda := c.Wavelength()
	n := c.Samples
	out := make([][]complex128, c.NumRx)
	for k := range out {
		out[k] = make([]complex128, n)
	}
	for _, sc := range scatterers {
		if sc.Amplitude <= 0 || sc.Range <= 0 {
			continue
		}
		fb := 2*c.Slope*sc.Range/em.C + 2*sc.RadialVelocity/lambda
		base := 4*math.Pi*sc.Range/lambda + sc.Phase
		sinAz := math.Sin(sc.Azimuth)
		ds, dc := math.Sincos(-2 * math.Pi * fb / c.SampleRate)
		step := complex(dc, ds)
		for k := 0; k < c.NumRx; k++ {
			aoa := 2 * math.Pi * float64(k) * c.RxSpacing * sinAz / lambda
			s0, c0 := math.Sincos(-(base + aoa))
			cur := complex(sc.Amplitude*c0, sc.Amplitude*s0)
			ch := out[k]
			for t := range ch {
				ch[t] += cur
				cur *= step
			}
		}
	}
	if g != nil {
		// Consume the Gauss stream in the executor's order: one interleaved
		// re/im draw pair per sample, channel-major.
		sigma := math.Sqrt(c.NoisePerBin()*float64(n)) / math.Sqrt2
		for k := range out {
			ch := out[k]
			for t := range ch {
				ch[t] += complex(g.Norm()*sigma, g.Norm()*sigma)
			}
		}
	}
	if c.ADCBits > 0 {
		refQuantize(out, c.ADCBits)
	}
	return out
}

func refQuantize(chans [][]complex128, bits int) {
	peak := 0.0
	for _, ch := range chans {
		for _, v := range ch {
			if a := math.Abs(real(v)); a > peak {
				peak = a
			}
			if a := math.Abs(imag(v)); a > peak {
				peak = a
			}
		}
	}
	if peak == 0 {
		return
	}
	full := peak * 1.1
	levels := float64(int(1) << (bits - 1))
	step := full / levels
	q := func(x float64) float64 {
		return (math.Floor(x/step) + 0.5) * step
	}
	for _, ch := range chans {
		for t, v := range ch {
			ch[t] = complex(q(real(v)), q(imag(v)))
		}
	}
}

// refRangeProfile is the pre-refactor Config.RangeProfile: explicit Hann
// multiply normalized by the coherent gain, then an inverse DFT per
// channel — evaluated naively in O(n^2), so the reference shares no tables
// with the plan.
func refRangeProfile(c Config, chans [][]complex128) [][]complex128 {
	n := c.Samples
	win := dsp.Hann.Coefficients(n)
	invGain := 1 / dsp.Mean(win)
	// roots[j] = exp(2*pi*i*j/n); indexing by k*t mod n keeps every phase
	// exact.
	roots := make([]complex128, n)
	for j := range roots {
		s, co := math.Sincos(2 * math.Pi * float64(j) / float64(n))
		roots[j] = complex(co, s)
	}
	out := make([][]complex128, len(chans))
	for ch, samples := range chans {
		bins := make([]complex128, n)
		for k := range bins {
			var sum complex128
			for t, v := range samples {
				sum += v * complex(win[t]*invGain, 0) * roots[k*t%n]
			}
			bins[k] = sum / complex(float64(n), 0)
		}
		out[ch] = bins
	}
	return out
}

// randomScene draws a scatterer set spanning the radar's unambiguous range
// and field of view, with sub-bin range offsets, Doppler, and a wide
// amplitude spread.
func randomScene(rng *rand.Rand, c Config) []Scatterer {
	sc := make([]Scatterer, 1+rng.Intn(12))
	maxR := c.MaxRange() * 0.9
	for i := range sc {
		sc[i] = Scatterer{
			Range:          0.5 + rng.Float64()*maxR,
			Azimuth:        (rng.Float64() - 0.5) * math.Pi / 2,
			Amplitude:      math.Pow(10, -6+4*rng.Float64()),
			Phase:          rng.Float64() * 2 * math.Pi,
			RadialVelocity: (rng.Float64() - 0.5) * 40,
		}
	}
	return sc
}

// relTol is the acceptance bound: the plan path must match the reference
// within 1e-9 relative to the frame's peak magnitude.
const relTol = 1e-9

func maxRelDiff(t *testing.T, got Frame, ref [][]complex128) float64 {
	t.Helper()
	if got.NumRx != len(ref) {
		t.Fatalf("frame has %d channels, reference %d", got.NumRx, len(ref))
	}
	scale := 0.0
	for _, ch := range ref {
		for _, v := range ch {
			if a := math.Hypot(real(v), imag(v)); a > scale {
				scale = a
			}
		}
	}
	if scale == 0 {
		scale = 1
	}
	worst := 0.0
	for k, ch := range ref {
		gotCh := got.Channel(k)
		if len(gotCh) != len(ch) {
			t.Fatalf("channel %d has %d samples, reference %d", k, len(gotCh), len(ch))
		}
		for i, v := range ch {
			d := gotCh[i] - v
			if e := math.Hypot(real(d), imag(d)) / scale; e > worst {
				worst = e
			}
		}
	}
	return worst
}

func equivalenceConfigs() map[string]Config {
	// Every config shares the executor's one float64 kernel lane, so the
	// suite pins production synthesis to the pre-refactor arithmetic draw
	// for draw, ideal converter included.
	base := TI1443()
	adc := base
	adc.ADCBits = 12
	coarse := base
	coarse.ADCBits = 4
	return map[string]Config{"ideal": base, "adc12": adc, "adc4": coarse}
}

// TestSynthesizeMatchesReference pins the plan executor to the pre-refactor
// synthesis on random scenes, noiseless and noisy, with and without the
// quantizer.
func TestSynthesizeMatchesReference(t *testing.T) {
	for name, c := range equivalenceConfigs() {
		t.Run(name, func(t *testing.T) {
			plan := c.NewSynthPlan()
			for trial := 0; trial < 8; trial++ {
				seed := int64(1000*trial + 7)
				scene := randomScene(rand.New(rand.NewSource(seed)), c)
				for _, noisy := range []bool{false, true} {
					var gPlan, gRef *dsp.Gauss
					if noisy {
						gPlan = dsp.AcquireGauss(seed + 1)
						gRef = dsp.AcquireGauss(seed + 1)
					}
					got := plan.Synthesize(scene, gPlan)
					ref := refSynthesize(c, scene, gRef)
					if err := maxRelDiff(t, got, ref); err > relTol {
						t.Errorf("trial %d noisy=%v: max relative error %.3g > %.0g",
							trial, noisy, err, relTol)
					}
					ReleaseFrame(got)
				}
			}
		})
	}
}

// TestQuantizedSynthesisSameCells checks that the plan's quantizer (fused
// AGC peak tracking, step arithmetic matching the old (peak*1.1)/levels
// expression) puts every sample in the same quantization cell as the
// reference. The synthesized samples differ from the reference by ulps
// (reordered floating point), so the quantized outputs carry the same ulp
// noise — but a Floor flip would move a sample by a whole step, ~1% of the
// frame peak at 8 bits, and is what this test would catch.
func TestQuantizedSynthesisSameCells(t *testing.T) {
	c := TI1443()
	c.ADCBits = 8
	// One quantizer step relative to the AGC peak: 1.1 / 2^(bits-1).
	stepRel := 1.1 / float64(int(1)<<(c.ADCBits-1))
	plan := c.NewSynthPlan()
	for trial := 0; trial < 8; trial++ {
		seed := int64(31*trial + 3)
		scene := randomScene(rand.New(rand.NewSource(seed)), c)
		got := plan.Synthesize(scene, dsp.AcquireGauss(seed+2))
		ref := refSynthesize(c, scene, dsp.AcquireGauss(seed+2))
		if err := maxRelDiff(t, got, ref); err > stepRel*1e-6 {
			t.Errorf("trial %d: max relative error %.3g suggests a quantizer cell flip (step %.3g)",
				trial, err, stepRel)
		}
		ReleaseFrame(got)
	}
}

// TestRangeProfileMatchesReference pins the fused window+IFFT range
// transform to the explicit window-then-IFFT reference, on frames from the
// same random scenes.
func TestRangeProfileMatchesReference(t *testing.T) {
	for name, c := range equivalenceConfigs() {
		t.Run(name, func(t *testing.T) {
			plan := c.NewSynthPlan()
			for trial := 0; trial < 8; trial++ {
				seed := int64(500*trial + 11)
				scene := randomScene(rand.New(rand.NewSource(seed)), c)
				f := plan.Synthesize(scene, dsp.AcquireGauss(seed+1))
				refChans := make([][]complex128, c.NumRx)
				for k := range refChans {
					refChans[k] = append([]complex128(nil), f.Channel(k)...)
				}
				rp := plan.RangeProfile(f)
				ref := refRangeProfile(c, refChans)
				got := Frame{Data: flatten(rp.Bins), NumRx: c.NumRx, Samples: c.Samples}
				if err := maxRelDiff(t, got, ref); err > relTol {
					t.Errorf("trial %d: max relative error %.3g > %.0g", trial, err, relTol)
				}
				ReleaseFrame(f)
				ReleaseProfile(rp)
			}
		})
	}
}

func flatten(chans [][]complex128) []complex128 {
	var out []complex128
	for _, ch := range chans {
		out = append(out, ch...)
	}
	return out
}
