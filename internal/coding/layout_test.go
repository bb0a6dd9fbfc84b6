package coding

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"ros/internal/em"
	"ros/internal/geom"
)

func mustLayout(t *testing.T, bits string) *Layout {
	t.Helper()
	b, err := ParseBits(bits)
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLayout(b, DefaultDelta())
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestPaperExampleLayout(t *testing.T) {
	// Sec 5.2: M = 5, delta_c = 1.5 lambda, coding stacks at 6, -7.5, 9,
	// -10.5 lambda.
	l := mustLayout(t, "1111")
	lambda := em.Lambda79()
	want := []float64{6, -7.5, 9, -10.5}
	for k := 1; k <= 4; k++ {
		got := l.SlotPosition(k) / lambda
		if math.Abs(got-want[k-1]) > 1e-9 {
			t.Errorf("slot %d at %g lambda, want %g", k, got, want[k-1])
		}
	}
	pos := l.Positions()
	if len(pos) != 5 {
		t.Fatalf("got %d stacks, want 5 (reference + 4)", len(pos))
	}
	if pos[0] != 0 {
		t.Errorf("reference stack at %g, want 0", pos[0])
	}
}

func TestLayoutPartialBits(t *testing.T) {
	// Encoding "1010" removes the stacks at -7.5 and -10.5 lambda (Sec 5.2).
	l := mustLayout(t, "1010")
	pos := l.Positions()
	lambda := em.Lambda79()
	want := []float64{0, 6, 9}
	if len(pos) != len(want) {
		t.Fatalf("positions = %v", pos)
	}
	for i := range want {
		if math.Abs(pos[i]/lambda-want[i]) > 1e-9 {
			t.Errorf("pos[%d] = %g lambda, want %g", i, pos[i]/lambda, want[i])
		}
	}
}

// TestLayoutStacksCountsPositions: Stacks is len(Positions()) for every
// 4-bit code, and counting allocates nothing.
func TestLayoutStacksCountsPositions(t *testing.T) {
	for code := 0; code < 16; code++ {
		l := mustLayout(t, fmt.Sprintf("%04b", code))
		if got, want := l.Stacks(), len(l.Positions()); got != want {
			t.Errorf("%04b: Stacks() = %d, len(Positions()) = %d", code, got, want)
		}
	}
	l := mustLayout(t, "1011")
	if allocs := testing.AllocsPerRun(100, func() { l.Stacks() }); allocs != 0 {
		t.Errorf("Stacks allocated %v times per call, want 0", allocs)
	}
}

func TestSecondaryPeaksOutsideCodingBand(t *testing.T) {
	// Sec 5.2's design guarantee: for every pair of coding stacks, the
	// inter-stack spacing |d_k - d_l| falls outside [d_1, d_{M-1}].
	for _, bits := range []string{"11", "111", "1111", "11111", "111111"} {
		l := mustLayout(t, bits)
		lo, hi := l.CodingBand()
		pos := l.Positions()[1:] // coding stacks only
		for i := 0; i < len(pos); i++ {
			for j := i + 1; j < len(pos); j++ {
				d := math.Abs(pos[i] - pos[j])
				if d >= lo && d <= hi {
					t.Errorf("%s: secondary peak |d%d-d%d| = %g lambda inside coding band [%g, %g]",
						bits, i+1, j+1, d/em.Lambda79(), lo/em.Lambda79(), hi/em.Lambda79())
				}
			}
		}
	}
}

func TestApertureAndFarFieldMatchPaper(t *testing.T) {
	l := mustLayout(t, "1111")
	lambda := em.Lambda79()
	// Aperture |d4| + |d3| = 10.5 + 9 = 19.5 lambda.
	if a := l.Aperture() / lambda; math.Abs(a-19.5) > 1e-9 {
		t.Errorf("aperture = %g lambda, want 19.5", a)
	}
	// Width D = 22.5 lambda (Sec 5.3).
	if w := l.Width() / lambda; math.Abs(w-22.5) > 1e-9 {
		t.Errorf("width = %g lambda, want 22.5", w)
	}
	// Far field 2*D^2/lambda = 2.9 m for the aperture (Sec 5.3).
	if ff := l.FarFieldDistance(em.CenterFrequency); math.Abs(ff-2.9) > 0.15 {
		t.Errorf("far field = %g m, want ~2.9", ff)
	}
}

func TestSixBitTagFarField(t *testing.T) {
	// Sec 5.3: a 6-bit tag at delta_c = 1.5 lambda has width 34.5 lambda
	// and a far field of ~9 m. (The paper evaluates Eq 8 with the full
	// 34.5-lambda width there but with the 19.5-lambda coding aperture for
	// the 4-bit tag; this package consistently uses the coding aperture,
	// which yields ~7.5 m for 6 bits — same growth trend.)
	l := mustLayout(t, "111111")
	lambda := em.Lambda79()
	if w := l.Width() / lambda; math.Abs(w-34.5) > 1e-9 {
		t.Errorf("6-bit width = %g lambda, want 34.5", w)
	}
	ff := l.FarFieldDistance(em.CenterFrequency)
	if ff < 7 || ff > 9.5 {
		t.Errorf("6-bit far field = %g m, want 7.5-9", ff)
	}
}

func TestWidthFormula(t *testing.T) {
	// Sec 5.3: D = ((4M - 7)c + 3) * lambda for delta_c = c*lambda.
	lambda := em.Lambda79()
	for m := 3; m <= 7; m++ {
		bits := make([]bool, m-1)
		for i := range bits {
			bits[i] = true
		}
		l, err := NewLayout(bits, 1.5*lambda)
		if err != nil {
			t.Fatal(err)
		}
		want := (float64(4*m-7)*1.5 + 3) * lambda
		if math.Abs(l.Width()-want) > 1e-9 {
			t.Errorf("M=%d: width %g, want %g", m, l.Width(), want)
		}
	}
}

func TestMaxSpeed(t *testing.T) {
	l := mustLayout(t, "1111")
	// At Fs = 1 kHz the paper quotes a ~38.5 m/s ceiling; with the Nyquist
	// geometry of Eq 9 that corresponds to a ~1.6 m closest pass. Sanity:
	// the bound scales linearly in frame rate and standoff.
	v1 := l.MaxSpeed(1000, 1.62, em.CenterFrequency)
	if math.Abs(v1-38.5) > 1.5 {
		t.Errorf("max speed at 1.62 m standoff = %g m/s, want ~38.5", v1)
	}
	if v2 := l.MaxSpeed(2000, 1.62, em.CenterFrequency); math.Abs(v2-2*v1) > 1e-9 {
		t.Errorf("max speed not linear in frame rate: %g vs %g", v2, 2*v1)
	}
	defer func() {
		if recover() == nil {
			t.Error("MaxSpeed with zero frame rate did not panic")
		}
	}()
	l.MaxSpeed(0, 1, em.CenterFrequency)
}

func TestNewLayoutErrors(t *testing.T) {
	if _, err := NewLayout(nil, 1); err == nil {
		t.Error("empty bits accepted")
	}
	if _, err := NewLayout([]bool{true}, 0); err == nil {
		t.Error("zero delta accepted")
	}
}

func TestSlotPositionPanics(t *testing.T) {
	l := mustLayout(t, "11")
	defer func() {
		if recover() == nil {
			t.Error("out-of-range slot did not panic")
		}
	}()
	l.SlotPosition(3)
}

func TestMultiStackGainPeaksAtStacks(t *testing.T) {
	// Eq 6: M stacks give gain M^2 at u = 0 and oscillate elsewhere.
	l := mustLayout(t, "1111")
	pos := l.Positions()
	lambda := em.Lambda79()
	if g := MultiStackGain(pos, 0, lambda); math.Abs(g-25) > 1e-9 {
		t.Errorf("gain at u=0 = %g, want M^2 = 25", g)
	}
	// Mean gain over u approximates M (incoherent sum), Eq 6's constant
	// term.
	sum, n := 0.0, 0
	for u := -0.9; u <= 0.9; u += 0.0005 {
		sum += MultiStackGain(pos, u, lambda)
		n++
	}
	mean := sum / float64(n)
	if math.Abs(mean-5) > 0.5 {
		t.Errorf("mean gain = %g, want ~M = 5", mean)
	}
}

// NearFieldGain is the exact-spherical-wavefront counterpart of
// MultiStackGain, the oracle Eq 8's far-field bound is checked against: the
// stacks sit at (d_k, 0) along the tag axis and the radar at the given 2-D
// position (tag frame). In the far field it converges to MultiStackGain
// with u = cos(theta); closer than Eq 8's bound the wavefront curvature
// distorts the peak structure — the near-field penalty the 32-stack tags
// pay in Fig 15b.
func NearFieldGain(positions []float64, radar geom.Vec2, lambda float64) float64 {
	r0 := radar.Dist(geom.Vec2{})
	var re, im float64
	k := 4 * math.Pi / lambda
	for _, d := range positions {
		r := radar.Dist(geom.Vec2{X: d})
		ph := -k * (r - r0)
		re += math.Cos(ph)
		im += math.Sin(ph)
	}
	return re*re + im*im
}

func TestNearFieldConvergesToFarField(t *testing.T) {
	l := mustLayout(t, "1111")
	pos := l.Positions()
	lambda := em.Lambda79()
	// Far beyond Eq 8's bound the spherical and planar models agree.
	for _, thetaDeg := range []float64{60, 90, 120} {
		th := geom.Rad(thetaDeg)
		u := math.Cos(th)
		r := 120.0 // far field (bound is 2.9 m; curvature error ~ D^2/(4 r lambda))
		radar := geom.Vec2{X: r * math.Cos(th), Y: r * math.Sin(th)}
		nf := NearFieldGain(pos, radar, lambda)
		ff := MultiStackGain(pos, u, lambda)
		if math.Abs(nf-ff) > 0.08*25 {
			t.Errorf("theta=%g: near %g vs far %g", thetaDeg, nf, ff)
		}
	}
}

func TestNearFieldDistortsInsideBound(t *testing.T) {
	// Inside the far-field bound, the exact model must differ appreciably
	// from the plane-wave model somewhere across the pass.
	l := mustLayout(t, "1111")
	pos := l.Positions()
	lambda := em.Lambda79()
	r := 1.0 // well inside the 2.9 m bound
	worst := 0.0
	for deg := 50.0; deg <= 130; deg += 1 {
		th := geom.Rad(deg)
		radar := geom.Vec2{X: r * math.Cos(th), Y: r * math.Sin(th)}
		nf := NearFieldGain(pos, radar, lambda)
		ff := MultiStackGain(pos, math.Cos(th), lambda)
		if d := math.Abs(nf - ff); d > worst {
			worst = d
		}
	}
	if worst < 1 {
		t.Errorf("near-field distortion at 1 m only %g, expected significant", worst)
	}
}

func TestNearFieldGainEmpty(t *testing.T) {
	if g := NearFieldGain(nil, geom.Vec2{X: 1}, 0.004); g != 0 {
		t.Errorf("empty positions gain = %g", g)
	}
}

func TestMultiStackGainProperty(t *testing.T) {
	// Property: gain is bounded by M^2 and non-negative.
	lambda := em.Lambda79()
	f := func(seed uint8, u float64) bool {
		if math.IsNaN(u) || math.IsInf(u, 0) {
			return true
		}
		u = math.Mod(u, 1)
		m := int(seed%5) + 1
		pos := make([]float64, m)
		for i := range pos {
			pos[i] = float64(i) * 2.5 * lambda
		}
		g := MultiStackGain(pos, u, lambda)
		return g >= -1e-9 && g <= float64(m*m)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
