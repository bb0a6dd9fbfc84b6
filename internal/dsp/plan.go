package dsp

import (
	"fmt"
	"sync"
)

// Plan is an immutable execution plan for windowed, calibrated FFTs of one
// (size, window) pair. It owns every table the transform needs — the
// bit-reversal permutation, forward and inverse twiddle factors, and the
// window coefficients pre-permuted and pre-scaled — so executing a transform
// touches no process-wide cache and allocates nothing (power-of-two sizes;
// Bluestein sizes draw one scratch buffer from the plan's pool).
//
// The window multiply is fused into the transform's first butterfly pass:
// the input gather through the bit-reversal permutation scales each sample
// by its (permuted) window coefficient and immediately applies the
// twiddle-free first stage, removing the separate window pass, the swap
// loop, and — because the coherent-gain and 1/N normalizations are folded
// into the same coefficients — the trailing scale pass of the unfused
// pipeline.
//
// Semantics: Forward computes FFT(win .* x) / coherentGain and Inverse
// computes IFFT(win .* x) / coherentGain including the conventional 1/N, so
// a coherent tone's peak magnitude equals its time-domain amplitude in both
// directions. A Rectangular plan degenerates to the plain (I)FFT.
//
// Plans are safe for concurrent use: the frame workers of package detect
// execute one shared plan from many goroutines at once.
type Plan struct {
	n      int
	window Window
	gain   float64

	// Power-of-two path: perm is the bit-reversal permutation, fwdCoef and
	// invCoef the window coefficients permuted to gather order and scaled by
	// 1/gain (forward) and 1/(gain*n) (inverse), roots/rootsInv the twiddle
	// tables exp(∓2πij/n) for j < n/2.
	perm     []int32
	fwdCoef  []float64
	invCoef  []float64
	roots    []complex128
	rootsInv []complex128

	// Bluestein path (non-power-of-two sizes): preFwd/preInv fold the window
	// coefficient, the calibration scale, and the chirp w[k] into one complex
	// factor per input sample; postFwd/postInv fold the chirp and the 1/m
	// (and, for the inverse, 1/n) normalization of the convolution. broots is
	// the captured radix-2 twiddle table of the length-m convolution FFTs, so
	// execution touches no cache outside the plan.
	m       int
	bfftF   []complex128
	bfftI   []complex128
	preFwd  []complex128
	preInv  []complex128
	postFwd []complex128
	postInv []complex128
	broots  []complex128
	scratch *sync.Pool

	// inplace recycles the staging copy of in-place power-of-two
	// executions. Owned by the plan (not a package directory) so retiring a
	// plan set cannot strand per-size pools process-wide.
	inplace *sync.Pool
}

// NewPlan builds a fresh execution plan for n-point transforms under the
// given window, owned by the caller; PlanSet.PlanFor is its memoized form.
// It panics if n < 1.
func NewPlan(n int, w Window) *Plan {
	return (*PlanSet)(nil).PlanFor(n, w)
}

func (s *PlanSet) newPlan(n int, w Window) *Plan {
	win, gain := s.WindowCoefficients(w, n)
	p := &Plan{n: n, window: w, gain: gain}
	invGain := 1 / gain
	if IsPow2(n) {
		p.perm = make([]int32, n)
		for i, j := 0, 0; i < n; i++ {
			p.perm[i] = int32(j)
			mask := n >> 1
			for ; j&mask != 0; mask >>= 1 {
				j &^= mask
			}
			j |= mask
		}
		p.fwdCoef = make([]float64, n)
		p.invCoef = make([]float64, n)
		for j, src := range p.perm {
			p.fwdCoef[j] = win[src] * invGain
			p.invCoef[j] = win[src] * invGain / float64(n)
		}
		p.roots = s.twiddleTable(n)
		p.rootsInv = make([]complex128, len(p.roots))
		for i, r := range p.roots {
			p.rootsInv[i] = complex(real(r), -imag(r))
		}
		p.inplace = &sync.Pool{New: func() any {
			buf := make([]complex128, n)
			return &buf
		}}
		return p
	}
	// Bluestein: reuse the cached chirp precomputation per direction and
	// fold the window and calibration scales into the chirp factors.
	fwd := s.chirpPlanFor(n, false)
	inv := s.chirpPlanFor(n, true)
	p.m = fwd.m
	p.bfftF = fwd.bfft
	p.bfftI = inv.bfft
	p.broots = s.twiddleTable(fwd.m)
	p.preFwd = make([]complex128, n)
	p.preInv = make([]complex128, n)
	p.postFwd = make([]complex128, n)
	p.postInv = make([]complex128, n)
	mScale := 1 / float64(p.m)
	for k := 0; k < n; k++ {
		c := win[k] * invGain
		p.preFwd[k] = fwd.w[k] * complex(c, 0)
		p.preInv[k] = inv.w[k] * complex(c, 0)
		p.postFwd[k] = fwd.w[k] * complex(mScale, 0)
		p.postInv[k] = inv.w[k] * complex(mScale/float64(n), 0)
	}
	p.scratch = &sync.Pool{New: func() any {
		buf := make([]complex128, fwd.m)
		return &buf
	}}
	return p
}

// Size returns the transform length the plan was built for.
func (p *Plan) Size() int { return p.n }

// PlanWindow returns the window the plan fuses into the transform.
func (p *Plan) PlanWindow() Window { return p.window }

// CoherentGain returns the window's coherent gain, already divided out of
// the plan's outputs.
func (p *Plan) CoherentGain() float64 { return p.gain }

// Forward executes the windowed forward transform: dst = FFT(win .* src) /
// coherentGain. dst and src must both have the plan's length; dst may be the
// same slice as src (the transform is then in place at the cost of one
// internal copy for power-of-two sizes). Distinct but overlapping slices are
// not supported.
func (p *Plan) Forward(dst, src []complex128) { p.execute(dst, src, false) }

// Inverse executes the windowed inverse transform including the 1/N
// normalization: dst = IFFT(win .* src) / coherentGain. Aliasing rules match
// Forward.
func (p *Plan) Inverse(dst, src []complex128) { p.execute(dst, src, true) }

// ForwardMany runs Forward over channels independent signals stored in one
// contiguous buffer with the given stride: channel k occupies
// src[k*stride : k*stride+Size()], and its transform lands at the same
// offsets in dst. All channels share the plan's tables; nothing is
// allocated. It panics if stride < Size() or either buffer is too short.
func (p *Plan) ForwardMany(dst, src []complex128, channels, stride int) {
	p.executeMany(dst, src, channels, stride, false)
}

// InverseMany is ForwardMany for the inverse transform.
func (p *Plan) InverseMany(dst, src []complex128, channels, stride int) {
	p.executeMany(dst, src, channels, stride, true)
}

func (p *Plan) executeMany(dst, src []complex128, channels, stride int, inverse bool) {
	if stride < p.n {
		panic(fmt.Sprintf("dsp: plan stride %d below transform size %d", stride, p.n))
	}
	if need := (channels-1)*stride + p.n; channels > 0 && (len(dst) < need || len(src) < need) {
		panic(fmt.Sprintf("dsp: plan buffers hold %d/%d samples, need %d", len(dst), len(src), need))
	}
	for k := 0; k < channels; k++ {
		off := k * stride
		p.execute(dst[off:off+p.n], src[off:off+p.n], inverse)
	}
}

func (p *Plan) execute(dst, src []complex128, inverse bool) {
	n := p.n
	if len(dst) != n || len(src) != n {
		panic(fmt.Sprintf("dsp: plan of size %d executed on %d -> %d samples", n, len(src), len(dst)))
	}
	if p.perm == nil {
		p.bluestein(dst, src, inverse)
		return
	}
	coef, roots := p.fwdCoef, p.roots
	if inverse {
		coef, roots = p.invCoef, p.rootsInv
	}
	if &dst[0] == &src[0] {
		// In-place request: the fused gather reads src through the
		// permutation while writing dst, so stage through a scratch copy
		// from the plan's own pool.
		tmp := p.inplace.Get().(*[]complex128)
		copy(*tmp, src)
		p.stages(dst, *tmp, coef, roots)
		p.inplace.Put(tmp)
		return
	}
	p.stages(dst, src, coef, roots)
}

// stages runs the radix-2 pipeline: a fused gather (bit-reversal permutation
// + window/normalization scale + the first butterfly stages) followed by the
// remaining stages with the twiddle factor hoisted out of the butterfly loop
// — no per-butterfly direction branch, conjugation or final scale pass.
//
// For n >= 8 the gather carries the first THREE stages in registers before
// anything is stored: an 8-point group touches memory once instead of once
// per stage, removing two full load/store passes over the signal. The
// butterfly operations and their order are exactly those of the generic
// stage loop (same twiddles roots[k*n/8], same pairing), so the output is
// bit-identical to the unfused pipeline.
func (p *Plan) stages(dst, src []complex128, coef []float64, roots []complex128) {
	n := p.n
	perm := p.perm
	if n == 1 {
		v := src[0]
		dst[0] = complex(real(v)*coef[0], imag(v)*coef[0])
		return
	}
	if n >= 8 {
		wq := roots[n>>2]
		w81 := roots[n>>3]
		w83 := roots[3*(n>>3)]
		for j := 0; j < n; j += 8 {
			s0 := scale(src[perm[j]], coef[j])
			s1 := scale(src[perm[j+1]], coef[j+1])
			s2 := scale(src[perm[j+2]], coef[j+2])
			s3 := scale(src[perm[j+3]], coef[j+3])
			s4 := scale(src[perm[j+4]], coef[j+4])
			s5 := scale(src[perm[j+5]], coef[j+5])
			s6 := scale(src[perm[j+6]], coef[j+6])
			s7 := scale(src[perm[j+7]], coef[j+7])
			t0, t1 := s0+s1, s0-s1
			t2, t3 := s2+s3, s2-s3
			t4, t5 := s4+s5, s4-s5
			t6, t7 := s6+s7, s6-s7
			b1 := t3 * wq
			b5 := t7 * wq
			u0, u2 := t0+t2, t0-t2
			u1, u3 := t1+b1, t1-b1
			u4, u6 := t4+t6, t4-t6
			u5, u7 := t5+b5, t5-b5
			c5 := u5 * w81
			c6 := u6 * wq
			c7 := u7 * w83
			dst[j], dst[j+4] = u0+u4, u0-u4
			dst[j+1], dst[j+5] = u1+c5, u1-c5
			dst[j+2], dst[j+6] = u2+c6, u2-c6
			dst[j+3], dst[j+7] = u3+c7, u3-c7
		}
		// The remaining stages run two at a time: the four elements a
		// radix-2 stage pair couples — {i, i+span, i+2*span, i+3*span} —
		// stay in registers across both butterflies, so two stages cost
		// one pass over the signal. roots[0] is exactly (1, 0) and complex
		// multiplication by it is exact, so the fused form needs no
		// twiddle-free special case to stay bit-identical to the serial
		// stage loop.
		span := 8
		for ; span<<1 < n; span <<= 2 {
			s1 := n / (span << 1)
			s2 := n / (span << 2)
			// q = 0 has twiddle 1 in both stages; skip those multiplies
			// (a multiply by (1, 0) could still flip the sign of a zero).
			w3 := roots[n>>2]
			for i0 := 0; i0 < n; i0 += span << 2 {
				i1 := i0 + span
				i2 := i1 + span
				i3 := i2 + span
				a, b := dst[i0], dst[i1]
				c, d := dst[i2], dst[i3]
				t0, t1 := a+b, a-b
				e2 := c + d
				e3 := (c - d) * w3
				dst[i0], dst[i2] = t0+e2, t0-e2
				dst[i1], dst[i3] = t1+e3, t1-e3
			}
			for q := 1; q < span; q++ {
				w1 := roots[q*s1]
				w2 := roots[q*s2]
				w3 := roots[q*s2+(n>>2)]
				for i0 := q; i0 < n; i0 += span << 2 {
					i1 := i0 + span
					i2 := i1 + span
					i3 := i2 + span
					a, b := dst[i0], dst[i1]*w1
					c, d := dst[i2], dst[i3]*w1
					t0, t1 := a+b, a-b
					e2 := (c + d) * w2
					e3 := (c - d) * w3
					dst[i0], dst[i2] = t0+e2, t0-e2
					dst[i1], dst[i3] = t1+e3, t1-e3
				}
			}
		}
		if span < n {
			step := span << 1
			stride := n / step
			// k = 0 has twiddle 1; skip the multiply.
			for i := 0; i < n; i += step {
				a := dst[i]
				b := dst[i+span]
				dst[i] = a + b
				dst[i+span] = a - b
			}
			for k := 1; k < span; k++ {
				w := roots[k*stride]
				for i := k; i < n; i += step {
					a := dst[i]
					b := dst[i+span] * w
					dst[i] = a + b
					dst[i+span] = a - b
				}
			}
		}
		return
	}
	for j := 0; j < n; j += 2 {
		a := src[perm[j]]
		b := src[perm[j+1]]
		ca, cb := coef[j], coef[j+1]
		a = complex(real(a)*ca, imag(a)*ca)
		b = complex(real(b)*cb, imag(b)*cb)
		dst[j] = a + b
		dst[j+1] = a - b
	}
	for span := 2; span < n; span <<= 1 {
		step := span << 1
		stride := n / step
		// k = 0 has twiddle 1; skip the multiply.
		for i := 0; i < n; i += step {
			a := dst[i]
			b := dst[i+span]
			dst[i] = a + b
			dst[i+span] = a - b
		}
		for k := 1; k < span; k++ {
			w := roots[k*stride]
			for i := k; i < n; i += step {
				a := dst[i]
				b := dst[i+span] * w
				dst[i] = a + b
				dst[i+span] = a - b
			}
		}
	}
}

// scale multiplies both components of v by c (the permuted window/
// normalization coefficient of the fused gather).
func scale(v complex128, c float64) complex128 {
	return complex(real(v)*c, imag(v)*c)
}

// bluestein executes the windowed chirp-z transform for non-power-of-two
// sizes, with the window and normalizations folded into the plan's chirp
// tables. One scratch buffer comes from the plan's pool.
func (p *Plan) bluestein(dst, src []complex128, inverse bool) {
	pre, post, bf := p.preFwd, p.postFwd, p.bfftF
	if inverse {
		pre, post, bf = p.preInv, p.postInv, p.bfftI
	}
	buf := p.scratch.Get().(*[]complex128)
	a := *buf
	n := p.n
	for k := 0; k < n; k++ {
		a[k] = src[k] * pre[k]
	}
	clear(a[n:])
	radix2Roots(a, p.broots, false)
	for i := range a {
		a[i] *= bf[i]
	}
	radix2Roots(a, p.broots, true)
	for k := 0; k < n; k++ {
		dst[k] = a[k] * post[k]
	}
	p.scratch.Put(buf)
}
