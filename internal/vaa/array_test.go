package vaa

import (
	"math"
	"testing"

	"ros/internal/em"
	"ros/internal/geom"
)

const fc = em.CenterFrequency

func TestConstructorsValidate(t *testing.T) {
	for _, a := range []*Array{NewVAA(3), NewPSVAA(3), NewULA(3)} {
		if err := a.Validate(); err != nil {
			t.Errorf("%v: %v", a.Kind, err)
		}
	}
}

func TestKindString(t *testing.T) {
	if KindVAA.String() != "VAA" || KindPSVAA.String() != "PSVAA" || KindULA.String() != "ULA" || Kind(9).String() != "unknown" {
		t.Error("Kind names wrong")
	}
}

func TestNewPanicsOnZeroPairs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewVAA(0) did not panic")
		}
	}()
	NewVAA(0)
}

func TestGeometry(t *testing.T) {
	a := NewPSVAA(3)
	if a.Elements() != 6 {
		t.Errorf("Elements = %d, want 6", a.Elements())
	}
	// Element positions are symmetric about the center.
	for k := 0; k < a.Elements(); k++ {
		if math.Abs(a.elementPosition(k)+a.elementPosition(a.Elements()-1-k)) > 1e-15 {
			t.Errorf("positions not centro-symmetric at %d", k)
		}
	}
	// The paper says a PSVAA is 3*lambda wide (Sec 5: "a PSVAA is 3A wide");
	// its outermost elements sit Elements()-1 spacings apart.
	if w := float64(a.Elements()-1) * a.Spacing / em.Lambda79(); math.Abs(w-2.5) > 0.01 {
		t.Errorf("aperture = %g lambda; with the patch footprint the module is ~3 lambda", w)
	}
}

func TestPSVAAPairsAreCrossPolarized(t *testing.T) {
	a := NewPSVAA(3)
	n := a.Elements()
	for k := 0; k < a.Pairs; k++ {
		p1 := a.elementPolarization(k)
		p2 := a.elementPolarization(n - 1 - k)
		if d := p1.Dot(p2); math.Abs(real(d)) > 1e-12 || math.Abs(imag(d)) > 1e-12 {
			t.Errorf("pair (%d, %d) not cross-polarized", k, n-1-k)
		}
	}
	// The VAA is uniformly polarized.
	v := NewVAA(3)
	for k := 1; k < v.Elements(); k++ {
		d := v.elementPolarization(0).Dot(v.elementPolarization(k))
		if math.Abs(real(d)-1) > 1e-12 {
			t.Errorf("VAA element %d polarization differs", k)
		}
	}
}

func TestPSVAACalibrationAnchor(t *testing.T) {
	// Sec 4.2: "The PSVAA achieves an RCS of around -43 dBsm for the
	// orthogonally polarized return signal."
	a := NewPSVAA(3)
	got := a.MonostaticRCSdB(0, fc, em.PolV, em.PolH)
	if math.Abs(got-(-43)) > 0.5 {
		t.Errorf("PSVAA cross-pol broadside RCS = %g dBsm, want -43", got)
	}
}

func TestVAACoPolSixDBAbovePSVAA(t *testing.T) {
	// Sec 4.2: the PSVAA loses 6 dB because only half the elements
	// re-radiate; the original VAA's co-pol retro RCS is ~-37 dBsm.
	v := NewVAA(3)
	p := NewPSVAA(3)
	vco := v.MonostaticRCSdB(0, fc, em.PolV, em.PolV)
	pcross := p.MonostaticRCSdB(0, fc, em.PolV, em.PolH)
	diff := vco - pcross
	// The VAA's co-pol also contains the structural return, allow margin.
	if diff < 4.5 || diff > 8.5 {
		t.Errorf("VAA co-pol - PSVAA cross-pol = %g dB, want ~6", diff)
	}
}

func TestFig5aVAALeakage12dBBelowPSVAA(t *testing.T) {
	// Fig 5a: cross-polarized Tx/Rx sees the PSVAA at -43 dBsm and the
	// original VAA only via leakage at ~-55 dBsm (12 dB difference).
	v := NewVAA(3)
	p := NewPSVAA(3)
	vx := v.MonostaticRCSdB(0, fc, em.PolV, em.PolH)
	px := p.MonostaticRCSdB(0, fc, em.PolV, em.PolH)
	if math.Abs(px-vx-12) > 2.5 {
		t.Errorf("PSVAA - VAA cross-pol = %g dB, want ~12 (PSVAA %g, VAA %g)", px-vx, px, vx)
	}
}

func TestFig4aVAAFlatULASpecular(t *testing.T) {
	// Fig 4a: monostatic RCS across azimuth. The VAA is retroreflective:
	// flat within ~120 deg. The ULA is specular: strong at broadside only.
	v := NewVAA(3)
	u := NewULA(3)
	broadV := v.MonostaticRCSdB(0, fc, em.PolV, em.PolV)
	broadU := u.MonostaticRCSdB(0, fc, em.PolV, em.PolV)
	at45V := v.MonostaticRCSdB(geom.Rad(45), fc, em.PolV, em.PolV)
	at45U := u.MonostaticRCSdB(geom.Rad(45), fc, em.PolV, em.PolV)
	// VAA stays within ~6 dB of broadside at 45 deg.
	if broadV-at45V > 7 {
		t.Errorf("VAA rolls off %g dB at 45 deg, want < 7", broadV-at45V)
	}
	// ULA collapses by much more (specular).
	if broadU-at45U < 15 {
		t.Errorf("ULA rolls off only %g dB at 45 deg, want > 15", broadU-at45U)
	}
	// At broadside the two are within a few dB of each other (Fig 4a).
	if math.Abs(broadU-broadV) > 6 {
		t.Errorf("broadside ULA %g vs VAA %g dBsm differ too much", broadU, broadV)
	}
}

func TestFig4aFoV120(t *testing.T) {
	// The VAA's RCS at +/-60 deg stays within ~8 dB of broadside,
	// and collapses beyond (element pattern limit).
	v := NewVAA(3)
	broad := v.MonostaticRCSdB(0, fc, em.PolV, em.PolV)
	at60 := v.MonostaticRCSdB(geom.Rad(60), fc, em.PolV, em.PolV)
	at85 := v.MonostaticRCSdB(geom.Rad(85), fc, em.PolV, em.PolV)
	if broad-at60 > 8 {
		t.Errorf("VAA at 60 deg is %g dB below broadside, want < 8", broad-at60)
	}
	if broad-at85 < 15 {
		t.Errorf("VAA at 85 deg only %g dB below broadside, want > 15", broad-at85)
	}
}

func TestFig4bRetroVsSpecular(t *testing.T) {
	// Fig 4b: illuminate at 30 deg; the VAA re-radiates back to 30 deg,
	// the ULA to -30 deg, and VAA leakage elsewhere is >= ~5 dB down.
	v := NewVAA(3)
	u := NewULA(3)
	in := geom.Rad(30)
	retro := v.BistaticRCS(in, in, fc, em.PolV, em.PolV)
	mirrorV := v.BistaticRCS(in, -in, fc, em.PolV, em.PolV)
	if em.DB(retro/mirrorV) < 5 {
		t.Errorf("VAA retro only %g dB above its mirror leakage", em.DB(retro/mirrorV))
	}
	retroU := u.BistaticRCS(in, in, fc, em.PolV, em.PolV)
	mirrorU := u.BistaticRCS(in, -in, fc, em.PolV, em.PolV)
	if em.DB(mirrorU/retroU) < 5 {
		t.Errorf("ULA specular only %g dB above its retro direction", em.DB(mirrorU/retroU))
	}
	// The bistatic peak of the VAA is at the incidence angle: scan.
	best, bestAng := math.Inf(-1), 0.0
	for deg := -80.0; deg <= 80; deg += 1 {
		r := v.BistaticRCS(in, geom.Rad(deg), fc, em.PolV, em.PolV)
		if r > best {
			best, bestAng = r, deg
		}
	}
	if math.Abs(bestAng-30) > 5 {
		t.Errorf("VAA bistatic peak at %g deg, want ~30", bestAng)
	}
}

func TestMonostaticRetroFlatness(t *testing.T) {
	// The antenna-mode monostatic response of a Van Atta array must be
	// angle-independent up to the element pattern: dividing the RCS by the
	// pattern^4 should be flat across the FoV.
	v := NewVAA(3)
	ref := v.MonostaticRCS(0, fc, em.PolV, em.PolV)
	for deg := -55.0; deg <= 55; deg += 5 {
		th := geom.Rad(deg)
		pat := v.Element.Pattern(th)
		norm := v.MonostaticRCS(th, fc, em.PolV, em.PolV) / math.Pow(pat, 4)
		// Structural mode adds ripple away from broadside; allow 3 dB.
		if math.Abs(em.DB(norm/ref)) > 3 {
			t.Errorf("pattern-normalized RCS at %g deg off by %g dB", deg, em.DB(norm/ref))
		}
	}
}

func TestFig6PSVAAFlatAcrossBand(t *testing.T) {
	// Fig 6a: the PSVAA cross-pol RCS varies by < 4 dB across 76-81 GHz.
	p := NewPSVAA(3)
	lo, hi := math.Inf(1), math.Inf(-1)
	for f := 76e9; f <= 81e9; f += 0.2e9 {
		r := p.MonostaticRCSdB(0, f, em.PolV, em.PolH)
		lo = math.Min(lo, r)
		hi = math.Max(hi, r)
	}
	if hi-lo > 4 {
		t.Errorf("PSVAA cross-pol band variation = %g dB, want < 4", hi-lo)
	}
}

func TestFig5bPSVAACoPolSpecularOnly(t *testing.T) {
	// Fig 5b: with matched Tx/Rx polarization the PSVAA behaves as a
	// specular reflector: strong at broadside, collapsing off-normal, and
	// with no retro pedestal.
	p := NewPSVAA(3)
	broad := p.MonostaticRCSdB(0, fc, em.PolV, em.PolV)
	at45 := p.MonostaticRCSdB(geom.Rad(45), fc, em.PolV, em.PolV)
	if broad-at45 < 12 {
		t.Errorf("PSVAA co-pol rolls off only %g dB at 45 deg; expected specular collapse", broad-at45)
	}
}

func TestFig3PerPairRCSOptimum(t *testing.T) {
	// Fig 3: band-averaged RCS contribution per antenna pair is maximized
	// at 3 pairs and does not grow meaningfully beyond.
	perPair := make([]float64, 0, 6)
	for n := 1; n <= 6; n++ {
		a := NewVAA(n)
		avg := a.BandAveragedRCS(0, 76e9, 81e9, 26, em.PolV, em.PolV)
		perPair = append(perPair, avg/float64(n))
	}
	best := 0
	for i, v := range perPair {
		if v > perPair[best] {
			best = i
		}
	}
	if best+1 != 3 {
		t.Errorf("per-pair RCS maximized at %d pairs, want 3 (series: %v)", best+1, perPair)
	}
	// Total RCS beyond 3 pairs grows by < 2 dB per extra pair pair-over-pair.
	total3 := perPair[2] * 3
	total6 := perPair[5] * 6
	if gain := em.DB(total6 / total3); gain > 3 {
		t.Errorf("6-pair total RCS is %g dB above 3-pair; paper reports marginal growth", gain)
	}
}

func TestBandAveragedRCSEdges(t *testing.T) {
	a := NewVAA(2)
	single := a.BandAveragedRCS(0, fc, fc, 1, em.PolV, em.PolV)
	direct := a.MonostaticRCS(0, fc, em.PolV, em.PolV)
	if math.Abs(single-direct) > 1e-15 {
		t.Errorf("single-sample band average %g != direct %g", single, direct)
	}
	defer func() {
		if recover() == nil {
			t.Error("BandAveragedRCS with 0 samples did not panic")
		}
	}()
	a.BandAveragedRCS(0, 76e9, 81e9, 0, em.PolV, em.PolV)
}

func TestReciprocity(t *testing.T) {
	// Swapping illumination and observation angles must leave the coupling
	// magnitude unchanged (reciprocity of the passive structure).
	v := NewVAA(3)
	in, out := geom.Rad(20), geom.Rad(-35)
	fwd := v.BistaticRCS(in, out, fc, em.PolV, em.PolV)
	rev := v.BistaticRCS(out, in, fc, em.PolV, em.PolV)
	if math.Abs(em.DB(fwd/rev)) > 1e-9 {
		t.Errorf("reciprocity violated: %g vs %g", fwd, rev)
	}
}

func TestValidateRejectsBroken(t *testing.T) {
	a := NewVAA(3)
	a.Pairs = 0
	if a.Validate() == nil {
		t.Error("zero pairs accepted")
	}
	a = NewVAA(3)
	a.Spacing = 0
	if a.Validate() == nil {
		t.Error("zero spacing accepted")
	}
	a = NewVAA(3)
	a.TLLengths = a.TLLengths[:2]
	if a.Validate() == nil {
		t.Error("TL length mismatch accepted")
	}
}

func TestBackHemisphereDark(t *testing.T) {
	v := NewVAA(3)
	if r := v.MonostaticRCS(math.Pi, fc, em.PolV, em.PolV); r != 0 {
		t.Errorf("back hemisphere RCS = %g, want 0", r)
	}
}
