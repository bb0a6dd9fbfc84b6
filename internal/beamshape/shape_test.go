package beamshape

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"ros/internal/em"
	"ros/internal/geom"
	"ros/internal/stack"
)

const fc = em.CenterFrequency

func TestPitchesReproducePaperLayout(t *testing.T) {
	// Fig 8a: phases (152.9, 37.6, 0, 0, 0, 0, 37.6, 152.9) deg produce
	// pitches (0.867, 0.753, 0.725, 0.725, 0.725, 0.753, 0.867) lambda.
	pitches := PitchesFromPhases(PaperPhases8())
	lambda := em.Lambda79()
	want := []float64{0.867, 0.753, 0.725, 0.725, 0.725, 0.753, 0.867}
	if len(pitches) != len(want) {
		t.Fatalf("got %d pitches", len(pitches))
	}
	for i := range want {
		got := pitches[i] / lambda
		if math.Abs(got-want[i]) > 0.002 {
			t.Errorf("pitch[%d] = %g lambda, want %g", i, got, want[i])
		}
	}
}

func TestPaperShapeWidensBeam(t *testing.T) {
	// Fig 8b: the shaped 8-module stack has a ~10 deg flat-top elevation
	// beam; the uniform baseline a narrow pencil.
	shaped, err := Build(PaperPhases8())
	if err != nil {
		t.Fatal(err)
	}
	uniform := stack.NewUniform(8)
	bwShaped := geom.Deg(shaped.MeasuredBeamwidth(fc))
	bwUniform := geom.Deg(uniform.MeasuredBeamwidth(fc))
	if bwShaped < 6 || bwShaped > 16 {
		t.Errorf("shaped beamwidth = %g deg, want ~10", bwShaped)
	}
	if bwUniform > 5 {
		t.Errorf("uniform beamwidth = %g deg, want narrow pencil", bwUniform)
	}
	if bwShaped < 2*bwUniform {
		t.Errorf("shaping widened beam only %gx", bwShaped/bwUniform)
	}
}

func TestPaperShapeSymmetric(t *testing.T) {
	shaped, err := Build(PaperPhases8())
	if err != nil {
		t.Fatal(err)
	}
	for _, el := range []float64{0.02, 0.05, 0.08, 0.12} {
		up := shaped.ElevationGain(el, fc)
		dn := shaped.ElevationGain(-el, fc)
		if math.Abs(up-dn) > 1e-6*(1+up) {
			t.Errorf("shaped pattern asymmetric at %g rad: %g vs %g", el, up, dn)
		}
	}
}

func TestShapeSynthesizesFlatTop(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	res, err := Shape(8, DefaultTargetWidth, rng)
	if err != nil {
		t.Fatal(err)
	}
	bw := geom.Deg(res.BeamwidthRad)
	if bw < 6 || bw > 16 {
		t.Errorf("synthesized beamwidth = %g deg, want ~10", bw)
	}
	// Ripple within +/-4 deg stays under ~4 dB.
	minG, maxG := math.Inf(1), 0.0
	for el := -4.0; el <= 4; el += 0.25 {
		g := res.Stack.ElevationGain(geom.Rad(el), fc)
		minG = math.Min(minG, g)
		maxG = math.Max(maxG, g)
	}
	if ripple := 10 * math.Log10(maxG/minG); ripple > 4 {
		t.Errorf("flat-region ripple = %g dB, want < 4", ripple)
	}
	// The flat-top level sits several dB below the uniform pencil peak
	// (energy is conserved, spread over a wider beam).
	uniform := stack.NewUniform(8)
	peakU := uniform.ElevationGain(0, fc)
	drop := 10 * math.Log10(peakU/maxG)
	if drop < 1 || drop > 12 {
		t.Errorf("flat-top level %g dB below pencil peak, want a few dB", drop)
	}
}

func TestShapeDeterministic(t *testing.T) {
	run := func() Result {
		rng := rand.New(rand.NewSource(7))
		res, err := Shape(6, DefaultTargetWidth, rng)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Score != b.Score {
		t.Errorf("same seed, different scores: %g vs %g", a.Score, b.Score)
	}
	for i := range a.Phases {
		if a.Phases[i] != b.Phases[i] {
			t.Errorf("same seed, different phases[%d]", i)
		}
	}
}

func TestShapeErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := Shape(2, DefaultTargetWidth, rng); err == nil {
		t.Error("n < 4 accepted")
	}
	if _, err := Shape(8, 0, rng); err == nil {
		t.Error("zero width accepted")
	}
	if _, err := Shape(8, DefaultTargetWidth, nil); err == nil {
		t.Error("nil rng accepted")
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build([]float64{1}); err == nil {
		t.Error("single module accepted")
	}
	if _, err := Build([]float64{-0.1, 0}); err == nil {
		t.Error("negative phase accepted")
	}
	if _, err := Build([]float64{0, 7}); err == nil {
		t.Error("phase >= 2*pi accepted")
	}
}

func TestMirror(t *testing.T) {
	got := mirror([]float64{1, 2}, 4)
	want := []float64{1, 2, 2, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("mirror even = %v", got)
		}
	}
	got = mirror([]float64{1, 2, 3}, 5)
	want = []float64{1, 2, 3, 2, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("mirror odd = %v", got)
		}
	}
}

func TestShapedStackFarFieldMatchesPaper(t *testing.T) {
	// Sec 7.2: the fabricated (shaped) 32-stack is ~10.8 cm tall with a
	// far-field distance of ~6.14 m. Shaping adds TL-growth height to the
	// uniform stack.
	st := Shaped(32)
	h := st.Height()
	if h < 0.088 || h > 0.125 {
		t.Errorf("shaped 32-stack height = %g m, want ~0.09-0.12 (paper: 0.108)", h)
	}
	ff := 2 * h * h / em.Wavelength(fc) // Eq 8's Fraunhofer distance
	if ff < 4 || ff > 9 {
		t.Errorf("shaped 32-stack far field = %g m, want ~6 (paper: 6.14)", ff)
	}
}

// TestShapedServesPaperSizesFromTable checks that the generated table
// covers the paper's stack sizes and that Shaped hands every caller the
// same stack per size.
func TestShapedServesPaperSizesFromTable(t *testing.T) {
	for _, n := range []int{8, 16, 32} {
		if half, ok := shapedHalves[n]; !ok || len(half) != (n+1)/2 {
			t.Fatalf("n=%d: generated table holds %d half-space weights (present %v), want %d",
				n, len(half), ok, (n+1)/2)
		}
		st := Shaped(n)
		if st.N() != n {
			t.Errorf("Shaped(%d) has %d modules", n, st.N())
		}
		if st != Shaped(n) {
			t.Errorf("Shaped(%d) returned two different stacks", n)
		}
	}
}

// TestShapedTableMatchesSearch re-derives every tabulated size with the
// search and requires Shaped's stacks to match it bit for bit.
func TestShapedTableMatchesSearch(t *testing.T) {
	if testing.Short() {
		t.Skip("re-runs the DE search for every tabulated size (~12 s)")
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("table holds the amd64 search result; %s may fuse multiply-adds and land elsewhere", runtime.GOARCH)
	}
	for n := range shapedHalves {
		res, err := Shape(n, DefaultTargetWidth, rand.New(rand.NewSource(int64(1000+n))))
		if err != nil {
			t.Fatal(err)
		}
		got := Shaped(n)
		for i := range res.Stack.Heights {
			if math.Float64bits(got.Heights[i]) != math.Float64bits(res.Stack.Heights[i]) ||
				math.Float64bits(got.Phases[i]) != math.Float64bits(res.Stack.Phases[i]) {
				t.Errorf("n=%d module %d: height %v phase %v, search gives %v, %v; run go generate ./internal/beamshape",
					n, i, got.Heights[i], got.Phases[i], res.Stack.Heights[i], res.Stack.Phases[i])
			}
		}
	}
}

func TestShapedRejectsSmallStacks(t *testing.T) {
	for _, n := range []int{-1, 0, 1, 2, 3} {
		for try := 0; try < 2; try++ {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("Shaped(%d) try %d did not panic", n, try)
					}
				}()
				Shaped(n)
			}()
		}
	}
	shapedMu.Lock()
	defer shapedMu.Unlock()
	for n := range shapedOnce {
		if n < 4 {
			t.Errorf("Shaped(%d) registered a memo entry before rejecting", n)
		}
	}
}
