package vaa

import (
	"math"
	"testing"

	"ros/internal/em"
	"ros/internal/geom"
)

func TestCPVAAKind(t *testing.T) {
	a := NewCPVAA(3)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.Kind.String() != "CPVAA" {
		t.Errorf("kind = %q", a.Kind)
	}
}

func TestCPVAARecoversSixDB(t *testing.T) {
	// Sec 8: CP elements recover the 6 dB the linear PSVAA loses. The CP
	// array's co-handed return should sit ~6 dB above the PSVAA's
	// cross-linear return.
	cp := NewCPVAA(3)
	ps := NewPSVAA(3)
	co := cp.MonostaticRCS(0, fc, em.PolRHC, em.PolRHC)
	cross := ps.MonostaticRCS(0, fc, em.PolV, em.PolH)
	gain := em.DB(co / cross)
	if math.Abs(gain-6) > 1.5 {
		t.Errorf("CP gain over PSVAA = %g dB, want ~6", gain)
	}
}

func TestCPVAAPreservesHandedness(t *testing.T) {
	cp := NewCPVAA(3)
	s := cp.Scatter(0, 0, fc)
	co := s.Coupling(em.PolRHC, em.PolRHC)
	cross := s.Coupling(em.PolRHC, em.PolLHC)
	coP := real(co)*real(co) + imag(co)*imag(co)
	crossP := real(cross)*real(cross) + imag(cross)*imag(cross)
	if coP < 10*crossP {
		t.Errorf("co-handed %g not dominating cross-handed %g", coP, crossP)
	}
	if d := cp.HandednessDiscriminationDB(0, fc); d < 10 {
		t.Errorf("handedness discrimination = %g dB, want > 10", d)
	}
}

func TestMirrorFlipsHandedness(t *testing.T) {
	// The ULA (pure structural/specular) must flip circular handedness:
	// co-handed return far below cross-handed.
	u := NewULA(3)
	s := u.Scatter(0, 0, fc)
	if rej := em.HandednessRejectionDB(s); rej > -20 {
		t.Errorf("ULA handedness rejection = %g dB, want strongly negative", rej)
	}
	// em-level sanity: an ideal mirror, diag(1, -1), flips handedness; the
	// identity preserves it.
	if rej := em.HandednessRejectionDB(em.ScatterMatrix{HH: 1, VV: -1}); !math.IsInf(rej, -1) {
		t.Errorf("ideal mirror rejection = %g, want -Inf", rej)
	}
	if rej := em.HandednessRejectionDB(em.ScatterMatrix{HH: 1, VV: 1}); !math.IsInf(rej, 1) {
		t.Errorf("ideal preserver rejection = %g, want +Inf", rej)
	}
	if rej := em.HandednessRejectionDB(em.ScatterMatrix{}); rej != 0 {
		t.Errorf("null scatterer rejection = %g, want 0", rej)
	}
}

func TestCPVAARetroreflective(t *testing.T) {
	// The CP array keeps the Van Atta retro property.
	cp := NewCPVAA(3)
	broad := cp.MonostaticRCS(0, fc, em.PolRHC, em.PolRHC)
	at45 := cp.MonostaticRCS(geom.Rad(45), fc, em.PolRHC, em.PolRHC)
	if em.DB(broad/at45) > 7 {
		t.Errorf("CP array rolls off %g dB at 45 deg, want retro-flat", em.DB(broad/at45))
	}
	// Bistatic peak at the incidence angle.
	in := geom.Rad(25)
	best, bestAng := math.Inf(-1), 0.0
	for deg := -70.0; deg <= 70; deg += 1 {
		r := cp.BistaticRCS(in, geom.Rad(deg), fc, em.PolRHC, em.PolRHC)
		if r > best {
			best, bestAng = r, deg
		}
	}
	if math.Abs(bestAng-25) > 5 {
		t.Errorf("CP bistatic peak at %g deg, want ~25", bestAng)
	}
}

func TestCPMaxRangeExtendsPaper(t *testing.T) {
	// Sec 8: the 6 dB recovery stretches the link budget; ranges scale by
	// 10^(6/40) ~ 1.41x.
	ti := em.TIRadar()
	base := ti.MaxRange(em.TagRCS32StackDBsm, fc)
	cp := CPMaxRange(ti, fc)
	if ratio := cp / base; math.Abs(ratio-1.413) > 0.01 {
		t.Errorf("CP range ratio = %g, want ~1.41", ratio)
	}
	com := CPMaxRange(em.CommercialRadar(), fc)
	if com < 70 || com > 78 {
		t.Errorf("CP commercial range = %g m, want ~74", com)
	}
}

func TestCircularBasisOrthonormal(t *testing.T) {
	if n := em.PolRHC.Norm(); math.Abs(n-1) > 1e-12 {
		t.Errorf("|RHC| = %g", n)
	}
	if n := em.PolLHC.Norm(); math.Abs(n-1) > 1e-12 {
		t.Errorf("|LHC| = %g", n)
	}
	d := em.PolRHC.Dot(em.PolLHC)
	if math.Hypot(real(d), imag(d)) > 1e-12 {
		t.Errorf("RHC not orthogonal to LHC: %v", d)
	}
}
