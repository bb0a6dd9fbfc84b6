package radar

import (
	"math"
	"testing"
)

func TestDopplerEstimatesVelocity(t *testing.T) {
	c := TI1443()
	for _, v := range []float64{0.3, -0.5, 0} {
		k := 64
		frames := make([]Frame, k)
		for i := range frames {
			r := 4.0 + v*float64(i)/c.FrameRate
			frames[i] = c.Synthesize([]Scatterer{{
				Range: r, Azimuth: 0, Amplitude: 1e-4, RadialVelocity: v,
			}}, nil)
		}
		got, err := c.EstimateVelocity(frames, 0, 4)
		if err != nil {
			t.Fatal(err)
		}
		res := c.Wavelength() * c.FrameRate / (2 * float64(k)) // velocity bin
		if math.Abs(got-v) > 1.5*res {
			t.Errorf("velocity %g: estimated %g (resolution %g)", v, got, res)
		}
	}
}

func TestDopplerUnambiguousBound(t *testing.T) {
	c := TI1443()
	// Sec 7.3's point quantified: at 1 kHz frames the unambiguous window
	// is under 1 m/s — frame-rate Doppler cannot corrupt range decoding.
	if v := c.MaxUnambiguousVelocity(); math.Abs(v-0.949) > 0.01 {
		t.Errorf("max unambiguous velocity = %g m/s, want ~0.95", v)
	}
}

func TestDopplerErrors(t *testing.T) {
	c := TI1443()
	f := c.Synthesize(nil, nil)
	if _, _, err := c.DopplerMap([]Frame{f}, 0); err == nil {
		t.Error("single frame accepted")
	}
	if _, _, err := c.DopplerMap([]Frame{f, f}, 9); err == nil {
		t.Error("bad rx accepted")
	}
}

func TestDopplerMapStationaryTargetAtZero(t *testing.T) {
	c := TI1443()
	k := 32
	frames := make([]Frame, k)
	for i := range frames {
		frames[i] = c.Synthesize([]Scatterer{{Range: 3, Amplitude: 1e-4}}, nil)
	}
	m, vel, err := c.DopplerMap(frames, 0)
	if err != nil {
		t.Fatal(err)
	}
	bin := c.BinForRange(3)
	best, idx := math.Inf(-1), 0
	for d := range m {
		if m[d][bin] > best {
			best, idx = m[d][bin], d
		}
	}
	if math.Abs(vel[idx]) > 1e-9 {
		t.Errorf("stationary target at velocity %g", vel[idx])
	}
}
