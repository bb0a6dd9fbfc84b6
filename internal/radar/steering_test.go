package radar

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// refSpectrum evaluates Eq 4 with the direct per-angle, per-element trig
// expression the cached steering kernels replaced — the correctness
// reference for the fast paths.
func refSpectrum(c Config, rp RangeProfile, bin int, angles []float64) []float64 {
	lambda := c.Wavelength()
	out := make([]float64, len(angles))
	for i, th := range angles {
		var sum complex128
		sinTh := math.Sin(th)
		for k := 0; k < c.NumRx; k++ {
			w := 2 * math.Pi * float64(k) * c.RxSpacing * sinTh / lambda
			steer := complex(math.Cos(w), math.Sin(w))
			sum += rp.Bins[k][bin] * steer
		}
		sum /= complex(float64(c.NumRx), 0)
		out[i] = real(sum)*real(sum) + imag(sum)*imag(sum)
	}
	return out
}

// specEqual reports whether two spectra agree to within tol relative to the
// spectrum peak (nulls sit near zero, where a pointwise relative test would
// amplify last-ulp rounding into meaningless failures).
func specEqual(got, want []float64, tol float64) (int, bool) {
	peak := 0.0
	for _, v := range want {
		if v > peak {
			peak = v
		}
	}
	if peak == 0 {
		peak = 1
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > tol*peak {
			return i, false
		}
	}
	return -1, true
}

func testProfile(t testing.TB, c Config) RangeProfile {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	f := c.Synthesize([]Scatterer{
		{Range: 4, Azimuth: 0.3, Amplitude: 1e-4},
		{Range: 2.5, Azimuth: -0.4, Amplitude: 5e-5},
	}, rng)
	return c.RangeProfile(f)
}

func TestScanAnglesGrid(t *testing.T) {
	p := TI1443().NewSynthPlan()
	a, b := p.ScanAngles(), p.ScanAngles()
	if len(a) != 121 {
		t.Fatalf("scan grid has %d angles, want 121 (+/-60 deg in 1 deg steps)", len(a))
	}
	if &a[0] != &b[0] {
		t.Error("ScanAngles reallocated the grid instead of returning the plan's table")
	}
	const step = math.Pi / 180
	if math.Abs(a[0]+60*step) > 1e-12 || math.Abs(a[120]-60*step) > 1e-9 {
		t.Errorf("grid spans [%g, %g] rad, want +/-60 deg", a[0], a[len(a)-1])
	}
}

// aoaSpectrum is SynthPlan.AoASpectrumInto into a fresh slice.
func aoaSpectrum(p *SynthPlan, rp RangeProfile, bin int) []float64 {
	out := make([]float64, len(p.ScanAngles()))
	p.AoASpectrumInto(out, rp, bin)
	return out
}

func TestAoASpectrumCachedMatchesTrigReference(t *testing.T) {
	// The cached-kernel scan path must match the direct trig expression to
	// within 1e-12 of the spectrum peak at every angle and bin.
	for _, c := range []Config{TI1443(), Commercial()} {
		rp := testProfile(t, c)
		p := c.NewSynthPlan()
		angles := p.ScanAngles()
		for _, bin := range []int{1, c.BinForRange(2.5), c.BinForRange(4), c.Samples - 2} {
			got := aoaSpectrum(p, rp, bin)
			want := refSpectrum(c, rp, bin, angles)
			if i, ok := specEqual(got, want, 1e-12); !ok {
				t.Errorf("bin %d angle %d: cached %g vs trig %g", bin, i, got[i], want[i])
			}
		}
	}
}

// column gathers bin's per-channel values from rp, the vector SteerPower
// beamforms.
func column(rp RangeProfile, bin int) []complex128 {
	v := make([]complex128, len(rp.Bins))
	for k, ch := range rp.Bins {
		v[k] = ch[bin]
	}
	return v
}

// TestBeamPowerMatchesTrigReference: SteerPower on a profile column matches
// the trigonometric beamformer at random azimuths.
func TestBeamPowerMatchesTrigReference(t *testing.T) {
	c := TI1443()
	rp := testProfile(t, c)
	bin := c.BinForRange(4)
	col := column(rp, bin)
	f := func(raw float64) bool {
		az := math.Mod(math.Abs(raw), 2.1) - 1.05 // ±60 deg
		got := c.SteerPower(col, az)
		want := refSpectrum(c, rp, bin, []float64{az})[0]
		peak := refSpectrum(c, rp, bin, []float64{0.3})[0] // near the target
		return math.Abs(got-want) <= 1e-12*math.Max(want, peak)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAoASpectrumWideArrayHeapPath(t *testing.T) {
	// NumRx > 16 exercises the heap-allocated gather buffer.
	c := TI1443()
	c.NumRx = 20
	rp := testProfile(t, c)
	bin := c.BinForRange(4)
	p := c.NewSynthPlan()
	got := aoaSpectrum(p, rp, bin)
	want := refSpectrum(c, rp, bin, p.ScanAngles())
	if i, ok := specEqual(got, want, 1e-12); !ok {
		t.Errorf("angle %d: cached %g vs trig %g", i, got[i], want[i])
	}
}

func TestAoASpectrumIntoValidatesDst(t *testing.T) {
	c := TI1443()
	rp := testProfile(t, c)
	defer func() {
		if recover() == nil {
			t.Error("short dst accepted")
		}
	}()
	p := c.NewSynthPlan()
	p.AoASpectrumInto(make([]float64, 2), rp, 4)
}
