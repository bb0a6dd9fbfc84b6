package radar

import (
	"math"
	"math/rand"
	"testing"

	"ros/internal/geom"
)

func TestTI1443MIMOValidates(t *testing.T) {
	m := TI1443MIMO()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.VirtualElements() != 12 {
		t.Errorf("virtual elements = %d, want 12", m.VirtualElements())
	}
	// 12 half-wavelength virtual elements: ~9.5 deg resolution, a 3x
	// improvement over the 4-Rx physical array.
	if bw := geom.Deg(m.VirtualBeamwidth()); math.Abs(bw-9.55) > 0.3 {
		t.Errorf("virtual beamwidth = %g deg, want ~9.5", bw)
	}
	if m.VirtualBeamwidth() >= m.Beamwidth()/2.9 {
		t.Error("virtual array did not sharpen the beam ~3x")
	}
}

func TestMIMOValidateRejects(t *testing.T) {
	m := TI1443MIMO()
	m.NumTx = 0
	if m.Validate() == nil {
		t.Error("zero Tx accepted")
	}
	m = TI1443MIMO()
	m.TxSpacing = 0
	if m.Validate() == nil {
		t.Error("zero Tx spacing accepted")
	}
	m = TI1443MIMO()
	m.NumRx = 0
	if m.Validate() == nil {
		t.Error("invalid base config accepted")
	}
}

func TestVirtualAoAEstimation(t *testing.T) {
	m := TI1443MIMO()
	for _, azDeg := range []float64{-35, -12, 0, 8, 27} {
		az := geom.Rad(azDeg)
		burst := m.SynthesizeTDM([]Scatterer{{Range: 4, Azimuth: az, Amplitude: 1e-4}}, nil)
		got, err := m.VirtualAoAEstimate(burst, 4)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(geom.Deg(got)-azDeg) > 1.5 {
			t.Errorf("AoA = %g deg, want %g", geom.Deg(got), azDeg)
		}
	}
}

func TestVirtualArraySeparatesCloseTargets(t *testing.T) {
	// Two targets 12 deg apart in the same range bin: inside the physical
	// 28.6-deg beam (fused) but resolvable by the 9.5-deg virtual beam.
	m := TI1443MIMO()
	sc := []Scatterer{
		{Range: 4, Azimuth: geom.Rad(-6), Amplitude: 1e-4},
		{Range: 4, Azimuth: geom.Rad(6), Amplitude: 1e-4},
	}
	burst := m.SynthesizeTDM(sc, nil)
	angles := scanAngles()
	spec, err := m.VirtualAoASpectrum(burst, m.BinForRange(4), angles)
	if err != nil {
		t.Fatal(err)
	}
	// The midpoint (0 deg) must be a dip between two peaks.
	var at0, atNeg6, atPos6 float64
	for i, a := range angles {
		switch math.Round(geom.Deg(a)) {
		case 0:
			at0 = spec[i]
		case -6:
			atNeg6 = spec[i]
		case 6:
			atPos6 = spec[i]
		}
	}
	if at0 >= atNeg6 || at0 >= atPos6 {
		t.Errorf("virtual array did not separate targets: dip %g vs peaks %g, %g", at0, atNeg6, atPos6)
	}
}

func TestVirtualAoAErrors(t *testing.T) {
	m := TI1443MIMO()
	burst := m.SynthesizeTDM([]Scatterer{{Range: 3, Amplitude: 1e-4}}, nil)
	if _, err := m.VirtualAoASpectrum(burst[:1], 10, []float64{0}); err == nil {
		t.Error("short burst accepted")
	}
	if _, err := m.VirtualAoASpectrum(burst, -1, []float64{0}); err == nil {
		t.Error("bad bin accepted")
	}
}

func TestSynthesizeTDMDeterministic(t *testing.T) {
	m := TI1443MIMO()
	gen := func() []Frame {
		return m.SynthesizeTDM([]Scatterer{{Range: 3, Azimuth: 0.1, Amplitude: 1e-4}},
			rand.New(rand.NewSource(5)))
	}
	a, b := gen(), gen()
	for tx := range a {
		for i := range a[tx].Data {
			if a[tx].Data[i] != b[tx].Data[i] {
				t.Fatal("same seed produced different bursts")
			}
		}
	}
}
