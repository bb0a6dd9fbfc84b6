package dsp

import (
	"math"
	"sync"
)

// Batched Gaussian generation for the frame synthesizer. The per-sample
// thermal-noise pass draws 2*Samples*NumRx normals per frame — with the
// stdlib's rand.Rand every draw pays an interface dispatch into the
// underlying source on top of the ziggurat itself, and the profile of the
// canonical read showed those draws costing more than the tone synthesis
// they perturb. Gauss owns its SplitMix64 state directly (the same
// generator the sweep sub-streams use, one word of state, seeded in one
// multiply) so the fill loop is a handful of inlined integer ops plus two
// table loads per draw, and AddNoise amortizes the call overhead across a
// whole frame of draws.
//
// The distribution is a 256-layer Marsaglia–Tsang ziggurat over float64.
// It is NOT the stdlib's NormFloat64 sequence: swapping the generator was a
// deliberate FP-contract change (see docs/PERF.md), and the frame
// equivalence suite pins the synthesizer to the same Gauss stream.

// zigR is the ziggurat tail cut-off and zigV the common layer area for the
// 256-layer table (twice Marsaglia–Tsang's canonical 128: the tables still
// fit in a few cache lines and the fast-accept rate rises from ≈97.2% to
// ≈98.6%, halving the traffic into the wedge/tail slow path that dominates
// the amortized cost).
const (
	zigLayers = 256
	zigR      = 3.6541528853610088
	zigV      = 4.92867323399e-3
)

// zigX[i] is the width of layer i (zigX[0] is the stretched base width),
// zigT[i] the fast-accept threshold on the signed uniform (the width ratio
// to the next narrower layer), and zigF[i] = exp(-zigX[i]^2/2). The fast
// path itself runs on two derived tables so a draw costs one integer
// compare and one multiply: zigK[i] = floor(zigT[i] * 2^52) is the accept
// threshold on the raw 52-bit magnitude, and zigW[i] = zigX[i] * 2^-52
// folds the fixed-point scale into the layer width. Borderline draws that
// the floor excludes (measure ~2^-52) fall through to the exact wedge/tail
// test, so the distribution is unchanged.
// zigE[i] = zigX[i-1]^2/2 is the top-of-layer exponent offset the wedge
// squeeze subtracts so its series argument stays small (zigE[1] = 0: layer
// 1's offset is the distribution peak).
var (
	zigX [zigLayers]float64
	zigT [zigLayers]float64
	zigF [zigLayers]float64
	zigK [zigLayers]uint64
	zigW [zigLayers]float64
	zigE [zigLayers]float64
)

func init() {
	f := math.Exp(-0.5 * zigR * zigR)
	q := zigV / f
	zigX[0] = q
	zigF[0] = 1
	zigT[0] = zigR / q
	zigT[1] = 0
	zigX[zigLayers-1] = zigR
	zigF[zigLayers-1] = f
	dn, tn := zigR, zigR
	for i := zigLayers - 2; i >= 1; i-- {
		dn = math.Sqrt(-2 * math.Log(zigV/dn+math.Exp(-0.5*dn*dn)))
		zigT[i+1] = dn / tn
		tn = dn
		zigX[i] = dn
		zigF[i] = math.Exp(-0.5 * dn * dn)
	}
	for i := range zigK {
		zigK[i] = uint64(zigT[i] * 0x1p52)
		zigW[i] = zigX[i] * 0x1p-52
		if i >= 1 {
			zigE[i] = 0.5 * zigX[i-1] * zigX[i-1]
		}
	}
	zigE[1] = 0
}

// Gauss is a deterministic Gaussian stream: a SplitMix64 counter feeding a
// ziggurat sampler. The zero value is a valid stream seeded with 0; it is
// not safe for concurrent use — give each worker its own (Acquire/
// ReleaseGauss pool one per frame with zero steady-state allocation).
type Gauss struct {
	state uint64
}

// Reseed rewinds the stream to a fresh seed.
func (g *Gauss) Reseed(seed int64) { g.state = uint64(seed) }

// Pos returns the stream's position: a stream reseeded with it draws what
// this one draws next.
func (g *Gauss) Pos() int64 { return int64(g.state) }

// gaussGamma is the SplitMix64 state increment.
const gaussGamma = 0x9e3779b97f4a7c15

// mix64 is the SplitMix64 output mix — the identical mixing used by the
// sweep package's sub-stream sources. It is a pure function of the counter,
// so AddNoise can evaluate several future outputs of the stream in parallel
// and commit the counter afterwards.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// next is one SplitMix64 step.
func (g *Gauss) next() uint64 {
	g.state += gaussGamma
	return mix64(g.state)
}

// uniform returns a uniform draw in (0, 1) (never 0, so it is log-safe).
func (g *Gauss) uniform() float64 {
	return (float64(g.next()>>11) + 0.5) * 0x1p-53
}

// Norm returns one standard-normal draw. The fast path is the
// integer-compare form of the layer test: the signed 53-bit fixed-point
// uniform j accepts when its magnitude is below zigK[i], and the draw is
// then a single multiply float64(j)*zigW[i]. Norm and AddNoise consume the
// stream identically — 2n calls to Norm draw the same values, real then
// imaginary, as one AddNoise over n samples.
func (g *Gauss) Norm() float64 {
	for {
		u := g.next()
		i := u & (zigLayers - 1)
		j := int64(u) >> 11
		neg := j >> 63
		if uint64((j^neg)-neg) < zigK[i] {
			return float64(j) * zigW[i]
		}
		if x, ok := g.normSlow(u); ok {
			return x
		}
	}
}

// normSlow handles the wedge and tail of the layer selected by u; ok is
// false when the wedge rejects and the caller must redraw.
func (g *Gauss) normSlow(u uint64) (float64, bool) {
	i := u & (zigLayers - 1)
	s := float64(int64(u)>>11) * 0x1p-52
	x := s * zigX[i]
	if i == 0 {
		// Tail beyond R: Marsaglia's exponential wrap.
		for {
			ex := -math.Log(g.uniform()) / zigR
			ey := -math.Log(g.uniform())
			if ey+ey >= ex*ex {
				if s < 0 {
					return -(zigR + ex), true
				}
				return zigR + ex, true
			}
		}
	}
	// Wedge: accept iff pf < exp(-x^2/2). Factoring the exponent about the
	// top of the layer, exp(-x^2/2) = zigF[i-1]*exp(-d) with
	// d = x^2/2 - zigE[i] in [0, ~0.7), small enough that the alternating
	// Taylor partial sums bracket exp(-d); the exact Exp only runs for the
	// sliver of draws (O(d^3/6) of the wedge) that land between the bounds.
	pf := zigF[i] + g.uniform()*(zigF[i-1]-zigF[i])
	d := 0.5*x*x - zigE[i]
	lo := 1 - d*(1-d*(0.5-d*(1.0/6)))
	top := zigF[i-1]
	switch {
	case pf < top*lo:
		return x, true
	case pf > top*(lo+d*d*d*(1.0/6)):
		return 0, false
	case pf < math.Exp(-0.5*x*x):
		return x, true
	}
	return 0, false
}

// AddNoise adds sigma-scaled standard-normal noise to every sample of dst:
// sample t consumes two stream draws, real then imaginary — the same stream
// positions 2*len(dst) Norm calls would consume. The sigma scale is folded
// into the layer-width table, so a fast-path draw rounds as
// j*(zigW[i]*sigma) rather than (j*zigW[i])*sigma — within 1 ulp of
// Norm()*sigma, never different in distribution. Fusing the generator into
// the accumulate pass skips the intermediate lane a fill-then-add pair
// would write and re-read (48KB of traffic per 256x4 frame), which on the
// canonical read costs about as much as the draws themselves.
//
// The hot loop evaluates eight future SplitMix64 outputs per iteration
// (four complex samples) — mix64 is a pure function of the counter, so the
// mixes carry no dependency chain and pipeline across each other. When all
// eight draws fast-accept the group commits with one branch: m < k on
// 52-bit magnitudes is equivalent to the subtraction m-k wrapping negative,
// so ANDing the differences tests every sign bit at once. Any rejection
// replays the group in stream order through Norm.
func (g *Gauss) AddNoise(dst []complex128, sigma float64) {
	s := g.state
	n := 0
	const lm = zigLayers - 1
	// Scaled width table: folding sigma into the layer widths once per call
	// (256 multiplies) drops one multiply from each of the 2*len(dst) draws.
	var ws [zigLayers]float64
	for i, w := range zigW {
		ws[i] = w * sigma
	}
	for n+4 <= len(dst) {
		s1 := s + gaussGamma
		s2 := s1 + gaussGamma
		s3 := s2 + gaussGamma
		s4 := s3 + gaussGamma
		s5 := s4 + gaussGamma
		s6 := s5 + gaussGamma
		s7 := s6 + gaussGamma
		s8 := s7 + gaussGamma
		u0 := mix64(s1)
		u1 := mix64(s2)
		u2 := mix64(s3)
		u3 := mix64(s4)
		u4 := mix64(s5)
		u5 := mix64(s6)
		u6 := mix64(s7)
		u7 := mix64(s8)
		j0 := int64(u0) >> 11
		j1 := int64(u1) >> 11
		j2 := int64(u2) >> 11
		j3 := int64(u3) >> 11
		j4 := int64(u4) >> 11
		j5 := int64(u5) >> 11
		j6 := int64(u6) >> 11
		j7 := int64(u7) >> 11
		a0, a1, a2, a3 := j0>>63, j1>>63, j2>>63, j3>>63
		a4, a5, a6, a7 := j4>>63, j5>>63, j6>>63, j7>>63
		m0 := uint64((j0 ^ a0) - a0)
		m1 := uint64((j1 ^ a1) - a1)
		m2 := uint64((j2 ^ a2) - a2)
		m3 := uint64((j3 ^ a3) - a3)
		m4 := uint64((j4 ^ a4) - a4)
		m5 := uint64((j5 ^ a5) - a5)
		m6 := uint64((j6 ^ a6) - a6)
		m7 := uint64((j7 ^ a7) - a7)
		d := dst[n : n+4 : len(dst)]
		lo := (m0 - zigK[u0&lm]) & (m1 - zigK[u1&lm]) & (m2 - zigK[u2&lm]) & (m3 - zigK[u3&lm])
		hi := (m4 - zigK[u4&lm]) & (m5 - zigK[u5&lm]) & (m6 - zigK[u6&lm]) & (m7 - zigK[u7&lm])
		if int64(lo&hi) < 0 {
			d[0] += complex(float64(j0)*ws[u0&lm], float64(j1)*ws[u1&lm])
			d[1] += complex(float64(j2)*ws[u2&lm], float64(j3)*ws[u3&lm])
			d[2] += complex(float64(j4)*ws[u4&lm], float64(j5)*ws[u5&lm])
			d[3] += complex(float64(j6)*ws[u6&lm], float64(j7)*ws[u7&lm])
			s = s8
			n += 4
			continue
		}
		// A complex sample cannot commit half-drawn, so the whole group
		// resolves here: accepted prefix from the precomputed mixes, the
		// rest through Norm in stream order.
		us := [8]uint64{u0, u1, u2, u3, u4, u5, u6, u7}
		js := [8]int64{j0, j1, j2, j3, j4, j5, j6, j7}
		ms := [8]uint64{m0, m1, m2, m3, m4, m5, m6, m7}
		var v [8]float64
		g.state = s
		k := 0
		for ; k < 8; k++ {
			i := us[k] & lm
			if ms[k] >= zigK[i] {
				break
			}
			v[k] = float64(js[k]) * ws[i]
			g.state += gaussGamma
		}
		for ; k < 8; k++ {
			v[k] = g.Norm() * sigma
		}
		s = g.state
		d[0] += complex(v[0], v[1])
		d[1] += complex(v[2], v[3])
		d[2] += complex(v[4], v[5])
		d[3] += complex(v[6], v[7])
		n += 4
	}
	g.state = s
	for ; n < len(dst); n++ {
		dst[n] += complex(g.Norm()*sigma, g.Norm()*sigma)
	}
}

// gaussPool recycles Gauss streams across frames;
// a reader synthesizes hundreds of frames per pass, each on its own
// sub-stream seed.
var gaussPool = sync.Pool{New: func() any { return new(Gauss) }}

// AcquireGauss returns a pooled stream reseeded to seed.
func AcquireGauss(seed int64) *Gauss {
	g := gaussPool.Get().(*Gauss)
	g.Reseed(seed)
	return g
}

// ReleaseGauss returns a stream to the pool. The caller must not use it
// afterwards.
func ReleaseGauss(g *Gauss) { gaussPool.Put(g) }
