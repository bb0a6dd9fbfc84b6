package radar

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"ros/internal/dsp"
	"ros/internal/em"
	"ros/internal/geom"
)

func TestTI1443Parameters(t *testing.T) {
	c := TI1443()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// Sec 7.1 defaults.
	if d := c.ChirpDuration(); math.Abs(d-51.2e-6) > 1e-9 {
		t.Errorf("chirp duration = %g s, want 51.2 us", d)
	}
	if b := c.SweptBandwidth(); math.Abs(b-3.3792e9) > 1e6 {
		t.Errorf("swept bandwidth = %g Hz, want ~3.38 GHz", b)
	}
	if r := c.RangeResolution(); math.Abs(r-0.0444) > 0.001 {
		t.Errorf("range resolution = %g m, want ~4.4 cm", r)
	}
	// Sec 7.1: "4 Rx antennas are used to achieve a beamwidth around of
	// 28.6 deg".
	if bw := geom.Deg(c.Beamwidth()); math.Abs(bw-28.6) > 0.5 {
		t.Errorf("beamwidth = %g deg, want ~28.6", bw)
	}
	if mr := c.MaxRange(); mr < 10 || mr > 12 {
		t.Errorf("max range = %g m, want ~11.4", mr)
	}
	// Noise per bin equals the paper's -62 dBm floor.
	if nf := em.DBm(c.NoisePerBin()); math.Abs(nf-(-62)) > 0.5 {
		t.Errorf("noise per bin = %g dBm, want ~-62", nf)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	base := TI1443()
	mutations := []func(*Config){
		func(c *Config) { c.CenterFrequency = 0 },
		func(c *Config) { c.Slope = 0 },
		func(c *Config) { c.SampleRate = 0 },
		func(c *Config) { c.Samples = 4 },
		func(c *Config) { c.FrameRate = 0 },
		func(c *Config) { c.NumRx = 0 },
		func(c *Config) { c.RxSpacing = 0 },
		func(c *Config) { c.ADCBits = -1 },
		func(c *Config) { c.ADCBits = 31 },
	}
	for i, mut := range mutations {
		c := base
		mut(&c)
		if c.Validate() == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestNewSynthPlanUnshared(t *testing.T) {
	c := TI1443()
	if c.NewSynthPlan() == c.NewSynthPlan() {
		t.Error("NewSynthPlan returned a shared plan")
	}
}

func TestSingleScattererRangeAndAmplitude(t *testing.T) {
	c := TI1443()
	amp := 1e-4
	want := 3.0
	f := c.Synthesize([]Scatterer{{Range: want, Azimuth: 0, Amplitude: amp}}, nil)
	rp := c.RangeProfile(f)
	mag := magnitudes(rp.Bins[0])
	_, peak := dsp.Max(mag)
	got := float64(peak) * rp.BinSize
	if math.Abs(got-want) > rp.BinSize {
		t.Errorf("range peak at %g m, want %g", got, want)
	}
	// Calibrated amplitude at the peak (windowless FFT scalloping can cost
	// up to ~3.9 dB; the scatterer is near a bin center here).
	if mag[peak] < 0.6*amp || mag[peak] > 1.05*amp {
		t.Errorf("peak magnitude = %g, want ~%g", mag[peak], amp)
	}
}

func TestAoAEstimation(t *testing.T) {
	c := TI1443()
	for _, azDeg := range []float64{-30, -10, 0, 15, 40} {
		az := geom.Rad(azDeg)
		f := c.Synthesize([]Scatterer{{Range: 4, Azimuth: az, Amplitude: 1e-4}}, nil)
		rp := c.RangeProfile(f)
		bin := c.BinForRange(4)
		p := c.NewSynthPlan()
		angles := p.ScanAngles()
		spec := aoaSpectrum(p, rp, bin)
		_, idx := dsp.Max(spec)
		got := geom.Deg(angles[idx])
		if math.Abs(got-azDeg) > 3 {
			t.Errorf("AoA = %g deg, want %g", got, azDeg)
		}
	}
}

func TestTwoScatterersResolvedInRange(t *testing.T) {
	c := TI1443()
	f := c.Synthesize([]Scatterer{
		{Range: 3, Azimuth: 0, Amplitude: 1e-4},
		{Range: 5, Azimuth: 0, Amplitude: 1e-4},
	}, nil)
	rp := c.RangeProfile(f)
	mag := magnitudes(rp.Bins[0])
	peaks := dsp.FindPeaks(mag, 0.3e-4, 3)
	if len(peaks) < 2 {
		t.Fatalf("found %d peaks, want 2", len(peaks))
	}
	r1 := peaks[0].Pos * rp.BinSize
	r2 := peaks[1].Pos * rp.BinSize
	if r1 > r2 {
		r1, r2 = r2, r1
	}
	if math.Abs(r1-3) > 0.1 || math.Abs(r2-5) > 0.1 {
		t.Errorf("peaks at %g, %g m; want 3, 5", r1, r2)
	}
}

// spotlight steers the array to azimuth at the bin nearest rangeM and
// returns the beamformed received power in watts (the Sec 6 spotlight).
func spotlight(c Config, f Frame, rangeM, azimuth float64) float64 {
	return c.SteerPower(column(c.RangeProfile(f), c.BinForRange(rangeM)), azimuth)
}

func TestSpotlightRecoversPower(t *testing.T) {
	c := TI1443()
	amp := 2e-4
	az := geom.Rad(20)
	f := c.Synthesize([]Scatterer{{Range: 4, Azimuth: az, Amplitude: amp}}, nil)
	got := spotlight(c, f, 4, az)
	want := amp * amp
	if got < 0.5*want || got > 1.1*want {
		t.Errorf("beamformed power = %g, want ~%g", got, want)
	}
	// Steering away drops the power.
	off := spotlight(c, f, 4, az+c.Beamwidth())
	if off > got/2 {
		t.Errorf("off-beam power %g not suppressed vs %g", off, got)
	}
}

func TestNoiseFloorCalibration(t *testing.T) {
	c := TI1443()
	rng := rand.New(rand.NewSource(1))
	f := c.Synthesize(nil, rng)
	rp := c.RangeProfile(f)
	// Average per-bin noise power across channels and bins should match
	// NoisePerBin within statistical tolerance.
	var sum float64
	var count int
	for _, ch := range rp.Bins {
		for _, v := range ch {
			sum += real(v)*real(v) + imag(v)*imag(v)
			count++
		}
	}
	got := sum / float64(count)
	// The Hann range window widens the equivalent noise bandwidth by 1.5x.
	want := c.NoisePerBin() * 1.5
	if got < 0.7*want || got > 1.4*want {
		t.Errorf("measured noise per bin %g, want ~%g", got, want)
	}
}

func TestSNRAtNoiseFloorTarget(t *testing.T) {
	// A scatterer whose amplitude equals the noise floor must come out at
	// ~0 dB SNR per bin; one 14 dB above must be clearly visible.
	c := TI1443()
	rng := rand.New(rand.NewSource(2))
	floorAmp := math.Sqrt(c.NoisePerBin())
	strong := floorAmp * math.Pow(10, 14.0/20)
	f := c.Synthesize([]Scatterer{{Range: 4, Azimuth: 0, Amplitude: strong}}, rng)
	rss := spotlight(c, f, 4, 0)
	snr := em.DB(rss / (c.NoisePerBin() / float64(c.NumRx)))
	// Beamforming averages channels: noise drops by NumRx, signal stays.
	if snr < 10 || snr > 25 {
		t.Errorf("measured SNR = %g dB for a 14 dB target (+6 dB array gain)", snr)
	}
}

func TestPointCloudFindsObjects(t *testing.T) {
	c := TI1443()
	rng := rand.New(rand.NewSource(3))
	amp := math.Sqrt(c.NoisePerBin()) * math.Pow(10, 20.0/20)
	f := c.Synthesize([]Scatterer{
		{Range: 3, Azimuth: geom.Rad(10), Amplitude: amp},
		{Range: 5.5, Azimuth: geom.Rad(-25), Amplitude: amp},
	}, rng)
	plan := c.NewSynthPlan()
	dets := plan.PointCloudScan(plan.RangeProfile(f))
	if len(dets) < 2 {
		t.Fatalf("detected %d points, want >= 2", len(dets))
	}
	found3, found55 := false, false
	for _, d := range dets {
		if math.Abs(d.Range-3) < 0.15 && math.Abs(geom.Deg(d.Azimuth)-10) < 6 {
			found3 = true
		}
		if math.Abs(d.Range-5.5) < 0.15 && math.Abs(geom.Deg(d.Azimuth)+25) < 6 {
			found55 = true
		}
	}
	if !found3 || !found55 {
		t.Errorf("objects not both detected: %+v", dets)
	}
}

func TestPointCloudEmptyOnNoise(t *testing.T) {
	c := TI1443()
	rng := rand.New(rand.NewSource(4))
	f := c.Synthesize(nil, rng)
	plan := c.NewSynthPlan()
	dets := plan.PointCloudScan(plan.RangeProfile(f))
	if len(dets) > 2 {
		t.Errorf("noise-only frame produced %d detections", len(dets))
	}
}

func TestDopplerNegligible(t *testing.T) {
	// Sec 7.3: Doppler shifts at automotive speeds barely move the range
	// estimate (19 kHz at 80 mph vs MHz-scale beat frequencies).
	c := TI1443()
	static := c.Synthesize([]Scatterer{{Range: 4, Azimuth: 0, Amplitude: 1e-4}}, nil)
	moving := c.Synthesize([]Scatterer{{Range: 4, Azimuth: 0, Amplitude: 1e-4, RadialVelocity: 35}}, nil)
	rpS := c.RangeProfile(static)
	rpM := c.RangeProfile(moving)
	_, pS := dsp.Max(magnitudes(rpS.Bins[0]))
	_, pM := dsp.Max(magnitudes(rpM.Bins[0]))
	if abs := pS - pM; abs < -1 || abs > 1 {
		t.Errorf("Doppler moved the range peak by %d bins", pM-pS)
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	c := TI1443()
	gen := func() Frame {
		return c.Synthesize([]Scatterer{{Range: 3, Azimuth: 0.2, Amplitude: 1e-4}},
			rand.New(rand.NewSource(9)))
	}
	a, b := gen(), gen()
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("same seed produced different frames")
		}
	}
}

func TestSynthesizeSkipsDegenerateScatterers(t *testing.T) {
	c := TI1443()
	f := c.Synthesize([]Scatterer{
		{Range: 0, Azimuth: 0, Amplitude: 1},
		{Range: 3, Azimuth: 0, Amplitude: 0},
		{Range: -1, Azimuth: 0, Amplitude: 1},
	}, nil)
	for i, v := range f.Data {
		if v != 0 {
			t.Fatalf("degenerate scatterers injected sample %d = %v", i, v)
		}
	}
}

func TestBinForRangeClamps(t *testing.T) {
	c := TI1443()
	if b := c.BinForRange(-5); b != 0 {
		t.Errorf("negative range bin = %d", b)
	}
	if b := c.BinForRange(1e9); b != c.Samples-1 {
		t.Errorf("huge range bin = %d", b)
	}
}

func TestRangeProfilePanicsOnMismatch(t *testing.T) {
	c := TI1443()
	defer func() {
		if recover() == nil {
			t.Error("mismatched frame accepted")
		}
	}()
	c.RangeProfile(Frame{Data: make([]complex128, c.Samples), NumRx: 1, Samples: c.Samples})
}

func TestPhaseCoherenceAcrossFrames(t *testing.T) {
	// The scene decoder relies on the carrier phase 4*pi*d/lambda being
	// encoded in the range bin; two frames at ranges differing by
	// lambda/4 must show a ~pi phase difference at the peak bin.
	c := TI1443()
	lambda := c.Wavelength()
	d := 4.0
	f1 := c.Synthesize([]Scatterer{{Range: d, Azimuth: 0, Amplitude: 1e-4}}, nil)
	f2 := c.Synthesize([]Scatterer{{Range: d + lambda/4, Azimuth: 0, Amplitude: 1e-4}}, nil)
	bin := c.BinForRange(d)
	p1 := cmplx.Phase(c.RangeProfile(f1).Bins[0][bin])
	p2 := cmplx.Phase(c.RangeProfile(f2).Bins[0][bin])
	diff := math.Abs(math.Remainder(p1-p2, 2*math.Pi))
	if math.Abs(diff-math.Pi) > 0.3 {
		t.Errorf("phase difference = %g rad, want ~pi", diff)
	}
}

func TestADCQuantization(t *testing.T) {
	c := TI1443()
	c.ADCBits = 12
	rng := rand.New(rand.NewSource(21))
	amp := math.Sqrt(c.NoisePerBin()) * math.Pow(10, 20.0/20)
	f12 := c.Synthesize([]Scatterer{{Range: 3, Amplitude: amp}}, rng)
	rss12 := spotlight(c, f12, 3, 0)

	ideal := TI1443()
	fIdeal := ideal.Synthesize([]Scatterer{{Range: 3, Amplitude: amp}}, rand.New(rand.NewSource(21)))
	rssIdeal := spotlight(ideal, fIdeal, 3, 0)
	// 12-bit conversion is transparent at these SNRs.
	if d := math.Abs(em.DB(rss12 / rssIdeal)); d > 0.2 {
		t.Errorf("12-bit ADC shifted the reading by %g dB", d)
	}

	// A 2-bit converter visibly raises the floor. (Seed chosen so the peak
	// survives: at 2 bits that is realization-dependent.)
	c2 := TI1443()
	c2.ADCBits = 2
	f2 := c2.Synthesize([]Scatterer{{Range: 3, Amplitude: amp}}, rand.New(rand.NewSource(1)))
	rp := c2.RangeProfile(f2)
	mag := magnitudes(rp.Bins[0])
	_, peak := dsp.Max(mag)
	if peak != c2.BinForRange(3) {
		t.Errorf("2-bit ADC lost the target peak (at bin %d)", peak)
	}
}

func TestQuantizeZeroFrame(t *testing.T) {
	c := TI1443()
	c.ADCBits = 8
	f := c.Synthesize(nil, nil) // all-zero, no noise
	for _, v := range f.Data {
		if v != 0 {
			t.Fatal("quantizing a zero frame produced nonzero samples")
		}
	}
}
