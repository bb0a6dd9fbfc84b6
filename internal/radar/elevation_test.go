package radar

import (
	"math"
	"math/rand"
	"testing"

	"ros/internal/geom"
)

func TestTI1443ElevationValidates(t *testing.T) {
	e := TI1443Elevation()
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := e
	bad.TxHeight = 0
	if bad.Validate() == nil {
		t.Error("zero Tx height accepted")
	}
}

func TestElevationMonopulse(t *testing.T) {
	e := TI1443Elevation()
	for _, elDeg := range []float64{-20, -5, 0, 8, 25} {
		el := geom.Rad(elDeg)
		burst := e.SynthesizeElevation([]Scatterer{{
			Range: 4, Azimuth: 0, Elevation: el, Amplitude: 1e-4,
		}}, nil)
		got, err := e.EstimateElevation(burst, 4, 0)
		if err != nil {
			t.Fatalf("el=%g: %v", elDeg, err)
		}
		if math.Abs(geom.Deg(got)-elDeg) > 1 {
			t.Errorf("el estimate = %g deg, want %g", geom.Deg(got), elDeg)
		}
	}
}

func TestElevationWithNoise(t *testing.T) {
	e := TI1443Elevation()
	rng := rand.New(rand.NewSource(12))
	el := geom.Rad(10)
	amp := math.Sqrt(e.NoisePerBin()) * 100 // 40 dB SNR
	burst := e.SynthesizeElevation([]Scatterer{{
		Range: 3.5, Azimuth: geom.Rad(15), Elevation: el, Amplitude: amp,
	}}, rng)
	got, err := e.EstimateElevation(burst, 3.5, geom.Rad(15))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(geom.Deg(got)-10) > 2 {
		t.Errorf("noisy elevation = %g deg, want ~10", geom.Deg(got))
	}
}

func TestHeightOf(t *testing.T) {
	// A tag 2 m above the radar at 4 m ground range subtends atan(2/4).
	el := math.Atan2(2, 4)
	if h := HeightOf(el, 4); math.Abs(h-2) > 1e-12 {
		t.Errorf("height = %g, want 2", h)
	}
}

func TestElevationErrors(t *testing.T) {
	e := TI1443Elevation()
	burst := e.SynthesizeElevation([]Scatterer{{Range: 3, Amplitude: 1e-4}}, nil)
	if _, err := e.EstimateElevation(burst[:1], 3, 0); err == nil {
		t.Error("short burst accepted")
	}
	empty := e.SynthesizeElevation(nil, nil)
	if _, err := e.EstimateElevation(empty, 3, 0); err == nil {
		t.Error("empty return accepted")
	}
}
