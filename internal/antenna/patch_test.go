package antenna

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"ros/internal/em"
	"ros/internal/geom"
)

func TestDefaultValidates(t *testing.T) {
	if err := Default(0).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	p := Default(0)
	p.PatternExponent = -1
	if p.Validate() == nil {
		t.Error("negative exponent accepted")
	}
	p = Default(0)
	p.ResonantFrequency = 0
	if p.Validate() == nil {
		t.Error("zero resonance accepted")
	}
	p = Default(0)
	p.MatchedBandwidth = 0
	if p.Validate() == nil {
		t.Error("zero bandwidth accepted")
	}
}

func TestPatternBroadsideAndRollOff(t *testing.T) {
	p := Default(0)
	if got := p.Pattern(0); got != 1 {
		t.Errorf("broadside pattern = %g, want 1", got)
	}
	// Monotone decreasing away from broadside.
	prev := 1.0
	for a := 0.1; a < math.Pi/2; a += 0.1 {
		v := p.Pattern(a)
		if v > prev {
			t.Fatalf("pattern not monotone at %g rad", a)
		}
		prev = v
	}
	// Back hemisphere is dark.
	if p.Pattern(math.Pi/2+0.01) != 0 || p.Pattern(math.Pi) != 0 {
		t.Error("back hemisphere radiates")
	}
	// Symmetric.
	if p.Pattern(0.7) != p.Pattern(-0.7) {
		t.Error("pattern not symmetric")
	}
}

func TestPatternFoV(t *testing.T) {
	// The round-trip power pattern (Pattern^4) at 60 deg must be within
	// ~6 dB of broadside so the VAA's ~120 deg FoV of Fig 4a holds.
	p := Default(0)
	rt := math.Pow(p.Pattern(geom.Rad(60)), 4)
	db := 10 * math.Log10(rt)
	if db < -7 || db > -4 {
		t.Errorf("round-trip pattern at 60 deg = %g dB, want about -6 dB", db)
	}
}

func TestPolarizationRotation(t *testing.T) {
	// An element built 90 degrees round is cross-polarized to the
	// horizontal one.
	ph := Default(0).Polarization()
	pv := Default(math.Pi / 2).Polarization()
	if d := cmplx.Abs(ph.Dot(pv)); d > 1e-12 {
		t.Errorf("rotated element polarization not orthogonal: %g", d)
	}
	// Rotating twice flips sign but stays on the same axis (anti-parallel).
	hh := Default(math.Pi).Polarization()
	if d := cmplx.Abs(ph.Dot(hh)); math.Abs(d-1) > 1e-12 {
		t.Errorf("double rotation lost the axis: |dot| = %g", d)
	}
}

func TestS11MatchedAcrossBand(t *testing.T) {
	// The paper's HFSS optimization terminates at -10 dB return loss across
	// the radar band; the model must honor that.
	p := Default(0)
	for f := 77e9; f <= 81e9; f += 0.25e9 {
		if s := p.S11DB(f); s > -10 {
			t.Errorf("s11(%g GHz) = %g dB, want <= -10", f/1e9, s)
		}
	}
	if s := p.S11DB(em.CenterFrequency); math.Abs(s-(-20)) > 1e-9 {
		t.Errorf("s11 at resonance = %g dB, want -20", s)
	}
	// Far out of band the match degrades but stays physical (< 0 dB).
	if s := p.S11DB(60e9); s >= 0 {
		t.Errorf("s11 far out of band = %g dB, want < 0", s)
	}
}

func TestMatchEfficiencyBounds(t *testing.T) {
	p := Default(0)
	f := func(df float64) bool {
		if math.IsNaN(df) || math.IsInf(df, 0) {
			return true
		}
		e := p.MatchEfficiency(em.CenterFrequency + math.Mod(df, 50e9))
		return e >= 0 && e <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	// At resonance almost all power is accepted.
	if e := p.MatchEfficiency(em.CenterFrequency); e < 0.98 {
		t.Errorf("match efficiency at resonance = %g, want > 0.98", e)
	}
}

func TestPaperDimensionsSane(t *testing.T) {
	// The coupling stub terminates 25 um from the patch edge and is shorter
	// than the patch side plus margin (Fig 7b).
	if PaperCouplingStub >= 2*PaperPatchSide {
		t.Error("coupling stub implausibly long")
	}
	if PaperStubSetback <= 0 || PaperStubSetback > PaperPatchSide {
		t.Error("stub setback implausible")
	}
}
