package em

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"
)

func TestPolLinearBasis(t *testing.T) {
	h := PolLinear(0)
	v := PolLinear(math.Pi / 2)
	if cmplx.Abs(h.H-1) > 1e-12 || cmplx.Abs(h.V) > 1e-12 {
		t.Errorf("PolLinear(0) = %+v, want H", h)
	}
	if cmplx.Abs(v.V-1) > 1e-12 || cmplx.Abs(v.H) > 1e-12 {
		t.Errorf("PolLinear(pi/2) = %+v, want V", v)
	}
}

func TestOrthogonality(t *testing.T) {
	for _, ang := range []float64{0, 0.3, 1.1, math.Pi / 2} {
		p := PolLinear(ang)
		q := p.Orthogonal()
		if d := cmplx.Abs(p.Dot(q)); d > 1e-12 {
			t.Errorf("angle %g: |<p, p_perp>| = %g, want 0", ang, d)
		}
		if n := q.Norm(); math.Abs(n-1) > 1e-12 {
			t.Errorf("angle %g: |p_perp| = %g, want 1", ang, n)
		}
	}
}

func TestUnitNormalizes(t *testing.T) {
	p := Polarization{H: 3, V: 4i}
	if n := p.Unit().Norm(); math.Abs(n-1) > 1e-12 {
		t.Errorf("unit norm = %g", n)
	}
	z := Polarization{}
	if z.Unit() != z {
		t.Error("zero polarization changed by Unit")
	}
}

func TestSwitchScatterSwapsPolarization(t *testing.T) {
	// The ideal PSVAA: incident V comes back as H and vice versa (Sec 4.2).
	s := ScatterMatrix{HV: 1, VH: 1}
	out := s.Apply(PolV)
	if cmplx.Abs(out.H-1) > 1e-12 || cmplx.Abs(out.V) > 1e-12 {
		t.Errorf("switch scatter of V = %+v, want H", out)
	}
	// Co-pol coupling through a switcher is zero: the radar with matched
	// Tx/Rx polarization sees nothing of the antenna mode (Fig 5b).
	if c := s.Coupling(PolV, PolV); cmplx.Abs(c) > 1e-12 {
		t.Errorf("switcher co-pol coupling = %g", cmplx.Abs(c))
	}
	// Orthogonal Tx/Rx sees the full amplitude (Fig 5a).
	if c := cmplx.Abs(s.Coupling(PolV, PolH)); math.Abs(c-1) > 1e-12 {
		t.Errorf("switcher cross-pol coupling = %g, want 1", c)
	}
}

func TestCouplingEnergyConservationProperty(t *testing.T) {
	// Property: for any incident polarization, projecting the scattered
	// field on an orthonormal basis conserves the scattered energy.
	f := func(angle float64) bool {
		if math.IsNaN(angle) || math.IsInf(angle, 0) {
			return true
		}
		in := PolLinear(angle)
		// Mirror-like clutter with cross-pol leakage 17 dB down.
		leak := complex(math.Pow(10, -17.0/20), 0)
		s := ScatterMatrix{HH: 1, VV: -1, HV: leak, VH: leak}
		out := s.Apply(in)
		eH := cmplx.Abs(PolH.Dot(out))
		eV := cmplx.Abs(PolV.Dot(out))
		total := eH*eH + eV*eV
		want := out.Norm() * out.Norm()
		return math.Abs(total-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFogAttenuation(t *testing.T) {
	// Paper Sec 7.3: heavy fog at 79 GHz attenuates ~2 dB per 100 m.
	if a := FogHeavy.AttenuationDBPerMeter() * 100; math.Abs(a-2) > 1e-9 {
		t.Errorf("heavy fog = %g dB/100m, want 2", a)
	}
	if FogLight.AttenuationDBPerMeter() >= FogHeavy.AttenuationDBPerMeter() {
		t.Error("light fog should attenuate less than heavy fog")
	}
	if FogClear.AttenuationDBPerMeter() >= FogLight.AttenuationDBPerMeter() {
		t.Error("clear air should attenuate less than light fog")
	}
	names := map[FogLevel]string{FogClear: "clear", FogLight: "light fog", FogHeavy: "heavy fog", FogLevel(9): "unknown"}
	for l, want := range names {
		if got := l.String(); got != want {
			t.Errorf("FogLevel(%d).String() = %q, want %q", l, got, want)
		}
	}
}

func TestRainAttenuation(t *testing.T) {
	// Anchored at the paper's 3.2 dB per 100 m for 100 mm/h.
	if a := RainAttenuationDBPerMeter(100) * 100; math.Abs(a-3.2) > 1e-9 {
		t.Errorf("rain(100 mm/h) = %g dB/100m, want 3.2", a)
	}
	if RainAttenuationDBPerMeter(0) != 0 || RainAttenuationDBPerMeter(-5) != 0 {
		t.Error("non-positive rain rate should not attenuate")
	}
	if RainAttenuationDBPerMeter(10) >= RainAttenuationDBPerMeter(100) {
		t.Error("rain attenuation should grow with rate")
	}
}

func TestRoundTripLoss(t *testing.T) {
	// 2 dB/100m one way over 100 m -> 4 dB round trip.
	loss := RoundTripLoss(0.02, 100)
	if math.Abs(DB(loss)-(-4)) > 1e-9 {
		t.Errorf("round trip loss = %g dB, want -4", DB(loss))
	}
	if RoundTripLoss(0.02, -1) != 1 {
		t.Error("negative distance should mean no loss")
	}
	// Fog is negligible at tag ranges: < 0.3 dB at 6 m.
	atTag := -DB(RoundTripLoss(FogHeavy.AttenuationDBPerMeter(), 6))
	if atTag > 0.3 {
		t.Errorf("heavy fog at 6 m costs %g dB, expected negligible", atTag)
	}
}
