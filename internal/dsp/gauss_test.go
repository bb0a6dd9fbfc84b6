package dsp

import (
	"math"
	"testing"
)

// TestNormMoments checks the first four moments of the ziggurat sampler
// against the standard normal. Tolerances are ~5 sigma for 4M draws, so a
// table or squeeze bug fails deterministically while a healthy sampler
// never does.
func TestNormMoments(t *testing.T) {
	g := AcquireGauss(42)
	const n = 4_000_000
	var m1, m2, m3, m4 float64
	for i := 0; i < n; i++ {
		x := g.Norm()
		m1 += x
		m2 += x * x
		m3 += x * x * x
		m4 += x * x * x * x
	}
	m1 /= n
	m2 /= n
	m3 /= n
	m4 /= n
	if math.Abs(m1) > 0.005 || math.Abs(m2-1) > 0.01 || math.Abs(m3) > 0.02 || math.Abs(m4-3) > 0.05 {
		t.Fatalf("moments off: mean=%g var=%g skew=%g kurt=%g", m1, m2, m3, m4)
	}
}

// TestZigguratFastPath pins the layer-table geometry: the rectangle accept
// test must take the multiply-free fast path for the overwhelming majority
// of draws (the 256-layer ziggurat rejects ~1.5%). A mis-derived zigK
// table would push a large fraction of draws onto the slow path and show
// up here long before it showed up as a distribution error.
func TestZigguratFastPath(t *testing.T) {
	g := AcquireGauss(1)
	slow := 0
	const draws = 1_000_000
	for k := 0; k < draws; k++ {
		u := g.next()
		i := u & (zigLayers - 1)
		j := int64(u) >> 11
		neg := j >> 63
		if uint64((j^neg)-neg) >= zigK[i] {
			slow++
		}
	}
	if rate := float64(slow) / draws; rate > 0.03 {
		t.Fatalf("slow-path rate = %.4f, want < 0.03", rate)
	}
}

// TestAddNoiseMatchesNormSequence pins the fused noise kernel's stream
// contract: AddNoise(dst, sigma) consumes exactly 2*len(dst) draws from
// the same positions Norm would, adds Norm()*sigma within 1 ulp per
// component (the fast path folds sigma into the layer-width table, which
// reassociates one rounding), and leaves the stream at the same position.
func TestAddNoiseMatchesNormSequence(t *testing.T) {
	const sigma = 0.37
	for _, n := range []int{1, 2, 3, 4, 5, 8, 256} {
		a := AcquireGauss(7)
		b := AcquireGauss(7)
		dst := make([]complex128, n)
		for i := range dst {
			dst[i] = complex(float64(i), -float64(i))
		}
		a.AddNoise(dst, sigma)
		for i := range dst {
			wantRe := float64(i) + b.Norm()*sigma
			wantIm := -float64(i) + b.Norm()*sigma
			if re := real(dst[i]); re != wantRe && !withinOneUlp(re, wantRe) {
				t.Fatalf("n=%d idx %d re: got %v want %v", n, i, re, wantRe)
			}
			if im := imag(dst[i]); im != wantIm && !withinOneUlp(im, wantIm) {
				t.Fatalf("n=%d idx %d im: got %v want %v", n, i, im, wantIm)
			}
		}
		if a.state != b.state {
			t.Fatalf("n=%d: AddNoise left the stream at a different position", n)
		}
	}
}

// withinOneUlp reports whether got is within one unit in the last place of
// want.
func withinOneUlp(got, want float64) bool {
	return got == math.Nextafter(want, math.Inf(1)) || got == math.Nextafter(want, math.Inf(-1))
}

// TestAddNoiseDeterministic checks that the same seed reproduces the same
// noise byte-for-byte — the property the detection pipeline's per-frame
// sub-streams rely on for worker-count-independent output.
func TestAddNoiseDeterministic(t *testing.T) {
	mk := func() []complex128 {
		g := AcquireGauss(123)
		dst := make([]complex128, 300)
		g.AddNoise(dst, 1.5)
		return dst
	}
	x, y := mk(), mk()
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("idx %d: %v != %v across identical seeds", i, x[i], y[i])
		}
	}
}

// TestGaussPosResumes: a stream reseeded at another's Pos draws exactly what
// that stream draws next, through AddNoise and Norm alike.
func TestGaussPosResumes(t *testing.T) {
	g := AcquireGauss(11)
	g.AddNoise(make([]complex128, 37), 1)
	r := AcquireGauss(g.Pos())
	x, y := make([]complex128, 64), make([]complex128, 64)
	g.AddNoise(x, 1)
	r.AddNoise(y, 1)
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("idx %d: resumed stream drew %v, original %v", i, y[i], x[i])
		}
	}
	if a, b := g.Norm(), r.Norm(); a != b {
		t.Fatalf("next Norm: resumed %v, original %v", b, a)
	}
}

func BenchmarkGaussNorm(b *testing.B) {
	g := AcquireGauss(1)
	s := 0.0
	for i := 0; i < b.N; i++ {
		s += g.Norm()
	}
	_ = s
}

func BenchmarkGaussAddNoise1024(b *testing.B) {
	g := AcquireGauss(1)
	dst := make([]complex128, 1024)
	b.SetBytes(1024 * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.AddNoise(dst, 0.5)
	}
}
