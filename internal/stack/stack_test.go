package stack

import (
	"math"
	"testing"

	"ros/internal/em"
	"ros/internal/geom"
)

const fc = em.CenterFrequency

func TestNewUniformGeometry(t *testing.T) {
	s := NewUniform(8)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.N() != 8 {
		t.Errorf("N = %d", s.N())
	}
	// Heights are centered and uniformly pitched at 0.725 lambda.
	pitch := DefaultPitch * em.Lambda79()
	for j := 1; j < s.N(); j++ {
		if math.Abs(s.Heights[j]-s.Heights[j-1]-pitch) > 1e-12 {
			t.Errorf("pitch at %d = %g, want %g", j, s.Heights[j]-s.Heights[j-1], pitch)
		}
	}
	if math.Abs(s.Heights[0]+s.Heights[7]) > 1e-12 {
		t.Error("heights not centered")
	}
}

func TestStackHeightMatchesPaper(t *testing.T) {
	// Sec 7.2: "the height of a 32-array PSVAA stack is about 10.8 cm"
	// (including beam-shaping overhead; the bare uniform stack is ~8.9 cm).
	s := NewUniform(32)
	h := s.Height()
	if h < 0.085 || h > 0.11 {
		t.Errorf("32-stack height = %g m, want ~0.088-0.108", h)
	}
}

func TestEq5BeamwidthMatchesPaper(t *testing.T) {
	lambda := em.Lambda79()
	pitch := DefaultPitch * lambda
	// Sec 4.3: stacking 32 PSVAAs gives a beamwidth of ~1.1 degrees.
	bw := geom.Deg(Beamwidth(32, pitch, lambda))
	if math.Abs(bw-1.1) > 0.1 {
		t.Errorf("Eq 5 beamwidth for 32 modules = %g deg, want ~1.1", bw)
	}
}

func TestMeasuredBeamwidthMatchesEq5(t *testing.T) {
	// The scanned -3 dB width of the two-way array factor must agree with
	// Eq 5's closed form.
	for _, n := range []int{8, 16, 32} {
		s := NewUniform(n)
		got := s.MeasuredBeamwidth(fc)
		want := Beamwidth(n, DefaultPitch*em.Lambda79(), em.Lambda79())
		if math.Abs(got-want)/want > 0.08 {
			t.Errorf("n=%d: measured %g rad vs Eq 5 %g rad", n, got, want)
		}
	}
}

func TestElevationGainPeak(t *testing.T) {
	s := NewUniform(16)
	if g := s.ElevationGain(0, fc); math.Abs(g-256) > 1e-9 {
		t.Errorf("boresight gain = %g, want N^2 = 256", g)
	}
	// Off the narrow main beam the gain collapses.
	if g := s.ElevationGain(geom.Rad(5), fc); g > 30 {
		t.Errorf("gain at 5 deg = %g, want far below peak", g)
	}
}

func TestRCSStackingGain(t *testing.T) {
	// 32 coherent modules add 20*log10(32) ~ 30 dB over a single PSVAA:
	// -43 dBsm -> ~-13 dBsm at boresight (the flat-top shaping of Sec 4.3
	// later spends ~10 dB of this to widen the beam, yielding the paper's
	// -23 dBsm tag).
	s := NewUniform(32)
	got := em.DBsm(s.RCS(0, 0, fc, em.PolV, em.PolH))
	if math.Abs(got-(-13)) > 1.5 {
		t.Errorf("32-stack boresight RCS = %g dBsm, want ~-13", got)
	}
}

func TestNewShaped(t *testing.T) {
	pitches := []float64{0.003, 0.003, 0.004}
	phases := []float64{0, 1, 1, 0}
	s, err := NewShaped(pitches, phases)
	if err != nil {
		t.Fatal(err)
	}
	if s.N() != 4 {
		t.Errorf("N = %d", s.N())
	}
	// Centered: first + last heights sum to zero.
	if math.Abs(s.Heights[0]+s.Heights[3]) > 1e-12 {
		t.Errorf("not centered: %v", s.Heights)
	}
	if math.Abs(s.Heights[1]-s.Heights[0]-0.003) > 1e-12 {
		t.Error("pitch 0 wrong")
	}
}

func TestNewShapedErrors(t *testing.T) {
	if _, err := NewShaped(nil, nil); err == nil {
		t.Error("empty stack accepted")
	}
	if _, err := NewShaped([]float64{1}, []float64{0, 0, 0}); err == nil {
		t.Error("pitch count mismatch accepted")
	}
	if _, err := NewShaped([]float64{-1}, []float64{0, 0}); err == nil {
		t.Error("negative pitch accepted")
	}
}

func TestPhaseWeightsSteerAndSpread(t *testing.T) {
	// A linear phase progression steers the beam off boresight.
	n := 8
	s := NewUniform(n)
	for j := range s.Phases {
		s.Phases[j] = float64(j) * 0.8
	}
	g0 := s.ElevationGain(0, fc)
	best, bestEl := 0.0, 0.0
	for el := -0.3; el <= 0.3; el += 1e-3 {
		if g := s.ElevationGain(el, fc); g > best {
			best, bestEl = g, el
		}
	}
	if bestEl == 0 {
		t.Error("linear phase did not steer the beam")
	}
	if best <= g0 {
		t.Error("steered peak not above boresight gain")
	}
	// The steered peak still reaches ~N^2 (phase weights are lossless).
	if math.Abs(best-float64(n*n)) > 2 {
		t.Errorf("steered peak = %g, want ~%d", best, n*n)
	}
}

func TestFarFieldDistance(t *testing.T) {
	// Sec 7.2 quotes ~0.31, 1.36, 6.14 m for the fabricated (beam-shaped,
	// hence taller) 8/16/32-module stacks; the bare uniform stacks are
	// ~20 percent shorter, so their Fraunhofer distances land below those
	// figures. The beamshape package verifies the paper values on shaped
	// stacks.
	cases := []struct {
		n    int
		want float64
		tol  float64
	}{
		{8, 0.26, 0.06},
		{16, 1.02, 0.15},
		{32, 4.09, 0.5},
	}
	for _, c := range cases {
		s := NewUniform(c.n)
		got := s.FarFieldDistance(fc)
		if math.Abs(got-c.want) > c.tol {
			t.Errorf("far field of %d-stack = %g m, want ~%g", c.n, got, c.want)
		}
	}
}

func TestValidateCatchesMismatch(t *testing.T) {
	s := NewUniform(4)
	s.Phases = s.Phases[:3]
	if s.Validate() == nil {
		t.Error("length mismatch accepted")
	}
	s = NewUniform(4)
	s.Module = nil
	if s.Validate() == nil {
		t.Error("nil module accepted")
	}
}

func TestNewUniformPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewUniform(0) did not panic")
		}
	}()
	NewUniform(0)
}

func TestBeamwidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Beamwidth with bad args did not panic")
		}
	}()
	Beamwidth(0, 1, 1)
}

func TestElevationPatternSymmetric(t *testing.T) {
	s := NewUniform(8)
	for _, el := range []float64{0.01, 0.05, 0.1} {
		up := s.ElevationGain(el, fc)
		dn := s.ElevationGain(-el, fc)
		if math.Abs(up-dn) > 1e-9*(1+up) {
			t.Errorf("pattern asymmetric at %g rad: %g vs %g", el, up, dn)
		}
	}
}
