package coding

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"ros/internal/em"
)

// synthesizeRSS builds far-field RCS samples for a layout across a u span,
// with a smooth envelope and optional multiplicative noise.
func synthesizeRSS(l *Layout, uLo, uHi float64, n int, noise float64, rng *rand.Rand) (us, rss []float64) {
	lambda := em.Lambda79()
	pos := l.Positions()
	us = make([]float64, n)
	rss = make([]float64, n)
	for i := range us {
		u := uLo + (uHi-uLo)*float64(i)/float64(n-1)
		us[i] = u
		env := 1 - 0.4*u*u // broad single-stack envelope r_T
		v := env * MultiStackGain(pos, u, lambda)
		if noise > 0 {
			v *= 1 + noise*rng.NormFloat64()
			v += noise * rng.Float64() * 0.5
			if v < 0 {
				v = 0
			}
		}
		rss[i] = v
	}
	return
}

func newTestDecoder(t *testing.T, bits int) *Decoder {
	t.Helper()
	d, err := NewDecoder(bits, DefaultDelta(), em.Lambda79())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDecodeCleanAllOnes(t *testing.T) {
	l := mustLayout(t, "1111")
	us, rss := synthesizeRSS(l, -0.55, 0.55, 900, 0, nil)
	d := newTestDecoder(t, 4)
	res, err := d.Decode(us, rss, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := BitsString(res.Bits); got != "1111" {
		t.Fatalf("decoded %q, want 1111 (amps %v, noise %g+/-%g)", got, res.PeakAmps, res.NoiseMean, res.NoiseStd)
	}
	if res.SNRdB < 15 {
		t.Errorf("clean decode SNR = %g dB, want > 15", res.SNRdB)
	}
	if res.BER > 0.01 {
		t.Errorf("clean decode BER = %g, want < 1%%", res.BER)
	}
}

func TestDecodeMixedPatterns(t *testing.T) {
	d := newTestDecoder(t, 4)
	for _, pattern := range []string{"1010", "0101", "1001", "1111", "1000", "0011", "1110"} {
		bits, err := ParseBits(pattern)
		if err != nil {
			t.Fatal(err)
		}
		l, err := NewLayout(bits, DefaultDelta())
		if err != nil {
			t.Fatal(err)
		}
		us, rss := synthesizeRSS(l, -0.55, 0.55, 900, 0, nil)
		res, err := d.Decode(us, rss, nil)
		if err != nil {
			t.Fatalf("%s: %v", pattern, err)
		}
		if got := BitsString(res.Bits); got != pattern {
			t.Errorf("decoded %q, want %q (amps %v)", got, pattern, res.PeakAmps)
		}
	}
}

func TestDecodeWithNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	l := mustLayout(t, "1011")
	us, rss := synthesizeRSS(l, -0.55, 0.55, 900, 0.15, rng)
	d := newTestDecoder(t, 4)
	res, err := d.Decode(us, rss, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := BitsString(res.Bits); got != "1011" {
		t.Fatalf("noisy decode %q, want 1011", got)
	}
	if res.SNRdB < 8 {
		t.Errorf("noisy SNR = %g dB, implausibly low", res.SNRdB)
	}
}

func TestSNRDecreasesWithNoise(t *testing.T) {
	d := newTestDecoder(t, 4)
	l := mustLayout(t, "1111")
	var prev float64 = math.Inf(1)
	for i, noise := range []float64{0.02, 0.3} {
		rng := rand.New(rand.NewSource(11))
		us, rss := synthesizeRSS(l, -0.55, 0.55, 900, noise, rng)
		res, err := d.Decode(us, rss, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.SNRdB >= prev {
			t.Errorf("noise %g: SNR %g dB did not decrease (step %d)", noise, res.SNRdB, i)
		}
		prev = res.SNRdB
	}
}

func TestDecodeNarrowFoVDegrades(t *testing.T) {
	// Fig 17: a 20-degree FoV cannot separate the coding peaks as well as a
	// 60-degree FoV.
	d := newTestDecoder(t, 4)
	l := mustLayout(t, "1111")
	wide := func() float64 {
		us, rss := synthesizeRSS(l, -0.5, 0.5, 900, 0.05, rand.New(rand.NewSource(1)))
		res, err := d.Decode(us, rss, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.SNRdB
	}()
	narrow := func() float64 {
		us, rss := synthesizeRSS(l, -0.17, 0.17, 900, 0.05, rand.New(rand.NewSource(1)))
		res, err := d.Decode(us, rss, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.SNRdB
	}()
	if narrow >= wide {
		t.Errorf("narrow FoV SNR %g dB >= wide FoV %g dB", narrow, wide)
	}
}

func TestSpectrumPeaksAtPaperPositions(t *testing.T) {
	// Fig 10c / Fig 11d: peaks at 6, 7.5, 9, 10.5 lambda.
	l := mustLayout(t, "1111")
	us, rss := synthesizeRSS(l, -0.55, 0.55, 900, 0, nil)
	lambda := em.Lambda79()
	spec, err := ComputeSpectrum(us, rss, SpectrumOptions{Lambda: lambda}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Out-of-band probe: 12 lambda sits between the last coding peak
	// (10.5) and the first cross-side secondary peak (6 + 7.5 = 13.5).
	floor := spec.AmplitudeAt(12*lambda, 0.1*lambda)
	for _, dk := range []float64{6, 7.5, 9, 10.5} {
		peak := spec.AmplitudeAt(dk*lambda, 0.3*lambda)
		// Prominent over the inter-peak valley and far above the
		// out-of-band floor.
		valley := spec.AmplitudeAt((dk+0.75)*lambda, 0.1*lambda)
		if peak < 2*valley {
			t.Errorf("peak at %g lambda (%g) not prominent over valley (%g)", dk, peak, valley)
		}
		if peak < 3*floor {
			t.Errorf("peak at %g lambda (%g) not above out-of-band floor (%g)", dk, peak, floor)
		}
	}
}

func TestSpectrumResolutionMatchesPaper(t *testing.T) {
	// Sec 5.1: u spans 2, so the spacing resolution is 0.25 lambda
	// (0.95 mm at 79 GHz). With oversampling the bin width is finer; the
	// physical resolution is set by the u span: lambda/2 / span.
	l := mustLayout(t, "1111")
	us, rss := synthesizeRSS(l, -1, 1, 2000, 0, nil)
	lambda := em.Lambda79()
	spec, err := ComputeSpectrum(us, rss, SpectrumOptions{Lambda: lambda}, nil)
	if err != nil {
		t.Fatal(err)
	}
	physical := lambda / 2 / 2 // lambda/2 per unit-u-frequency over span 2
	if math.Abs(physical-0.25*lambda) > 1e-12 {
		t.Fatalf("physical resolution = %g lambda", physical/lambda)
	}
	if spec.Resolution() > physical {
		t.Errorf("bin width %g coarser than physical resolution %g", spec.Resolution(), physical)
	}
}

func TestComputeSpectrumErrors(t *testing.T) {
	if _, err := ComputeSpectrum([]float64{1, 2}, []float64{1}, SpectrumOptions{Lambda: 1}, nil); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := ComputeSpectrum([]float64{1, 2}, []float64{1, 2}, SpectrumOptions{}, nil); err == nil {
		t.Error("zero lambda accepted")
	}
	short := []float64{1, 2, 3}
	if _, err := ComputeSpectrum(short, short, SpectrumOptions{Lambda: 1}, nil); err == nil {
		t.Error("too-few samples accepted")
	}
	same := []float64{1, 1, 1, 1, 1, 1, 1, 1}
	if _, err := ComputeSpectrum(same, same, SpectrumOptions{Lambda: 1}, nil); err == nil {
		t.Error("degenerate u span accepted")
	}
}

func TestNewDecoderErrors(t *testing.T) {
	if _, err := NewDecoder(0, 1, 1); err == nil {
		t.Error("zero bits accepted")
	}
	if _, err := NewDecoder(4, 0, 1); err == nil {
		t.Error("zero delta accepted")
	}
	if _, err := NewDecoder(4, 1, 0); err == nil {
		t.Error("zero lambda accepted")
	}
}

func TestDecodeSpectrumOutOfBand(t *testing.T) {
	d := newTestDecoder(t, 4)
	spec := &Spectrum{Spacing: []float64{0, 0.001, 0.002}, Mag: []float64{1, 1, 1}}
	if _, err := d.DecodeSpectrum(spec); err == nil {
		t.Error("spectrum not covering the coding band accepted")
	}
	empty := &Spectrum{Spacing: []float64{0}, Mag: []float64{0}}
	if _, err := d.DecodeSpectrum(empty); err == nil {
		t.Error("resolution-less spectrum accepted")
	}
}

func TestBitsHelpers(t *testing.T) {
	b, err := ParseBits("1010")
	if err != nil {
		t.Fatal(err)
	}
	if BitsString(b) != "1010" {
		t.Errorf("round trip failed: %q", BitsString(b))
	}
	if !slices.Equal(b, []bool{true, false, true, false}) {
		t.Errorf("ParseBits(\"1010\") = %v", b)
	}
	if _, err := ParseBits(""); err == nil {
		t.Error("empty string accepted")
	}
	if _, err := ParseBits("10x1"); err == nil {
		t.Error("invalid character accepted")
	}
}

func TestDecodeRoundTripProperty(t *testing.T) {
	// Property: any nonzero 4-bit pattern synthesized in the far field with
	// mild noise decodes back to itself.
	d := newTestDecoder(t, 4)
	f := func(pattern uint8, seed int64) bool {
		v := int(pattern % 16)
		if v == 0 {
			return true // all-absent tags are undetectable by design
		}
		bits := []bool{v&8 != 0, v&4 != 0, v&2 != 0, v&1 != 0}
		l, err := NewLayout(bits, DefaultDelta())
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		us, rss := synthesizeRSS(l, -0.55, 0.55, 900, 0.05, rng)
		res, err := d.Decode(us, rss, nil)
		if err != nil {
			return false
		}
		return slices.Equal(res.Bits, bits)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
