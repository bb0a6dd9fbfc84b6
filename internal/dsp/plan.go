package dsp

import (
	"fmt"
	"sync"
)

// Plan is an immutable execution plan for windowed, calibrated FFTs of one
// (size, window) pair. It owns every table the transform needs — the
// bit-reversal permutation, forward and inverse twiddle factors, and the
// window coefficients pre-permuted and pre-scaled — so executing a transform
// touches no process-wide cache and allocates nothing.
//
// Production runs two transforms. InverseMany is the range transform of
// Eq 3: it computes, per channel, the inverse FFT of (win .* x) /
// coherentGain including the conventional 1/N, out of place, so a coherent
// tone's peak magnitude equals its time-domain amplitude. ForwardMagnitude
// is the decoder's spectrum of Eq 7: the magnitudes of FFT(win .* x) /
// coherentGain for a zero-padded real series. A Rectangular plan
// degenerates to the plain transforms.
//
// The window multiply is fused into the transform's first butterfly pass:
// the input gather through the bit-reversal permutation scales each sample
// by its (permuted) window coefficient and immediately applies the
// twiddle-free first stage, removing the separate window pass, the swap
// loop, and — because the coherent-gain and 1/N normalizations are folded
// into the same coefficients — the trailing scale pass of the unfused
// pipeline. Because the gather reads src while writing dst, dst and src
// must not share storage.
//
// Sizes are powers of two of at least 8: the 256-sample chirp of the range
// transform (Eq 3) and the zero-padded RCS series of the decoder (Eq 7).
//
// Plans are safe for concurrent use: the frame workers of package detect
// execute one shared plan from many goroutines at once.
type Plan struct {
	n int

	// perm is the bit-reversal permutation, fwdCoef and invCoef the window
	// coefficients permuted to gather order and scaled by 1/gain (forward)
	// and 1/(gain*n) (inverse), roots/rootsInv the twiddle tables
	// exp(∓2πij/n) for j < n/2. The inverse tables are built by the first
	// inverse transform (invOnce), so a forward-only plan never holds them.
	perm     []int32
	fwdCoef  []float64
	invCoef  []float64
	roots    []complex128
	rootsInv []complex128
	invOnce  sync.Once

	// scratch recycles ForwardMagnitude's n-point complex input and
	// output. Owned by the plan (not a package directory) so a dropped
	// plan cannot strand per-size pools process-wide.
	scratch *sync.Pool
}

// NewPlan builds a fresh execution plan for n-point transforms under the
// given window, owned by the caller. It panics unless n is a power of two
// of at least 8.
func NewPlan(n int, w Window) *Plan {
	if n < 8 || !IsPow2(n) {
		panic(fmt.Sprintf("dsp: NewPlan with size %d, want a power of two >= 8", n))
	}
	win := w.Coefficients(n)
	p := &Plan{n: n}
	invGain := 1 / Mean(win)
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
	for j, src := range p.perm {
		p.fwdCoef[j] = win[src] * invGain
	}
	p.roots = newTwiddleTable(n)
	p.scratch = &sync.Pool{New: func() any {
		buf := make([]complex128, n)
		return &buf
	}}
	return p
}

// buildInverse fills the inverse tables from the forward ones: invCoef[j]
// is fwdCoef[j]/n, that is (win*invGain)/n, and rootsInv conjugates roots,
// which is exact.
func (p *Plan) buildInverse() {
	p.invCoef = make([]float64, p.n)
	for j, c := range p.fwdCoef {
		p.invCoef[j] = c / float64(p.n)
	}
	p.rootsInv = make([]complex128, len(p.roots))
	for i, r := range p.roots {
		p.rootsInv[i] = complex(real(r), -imag(r))
	}
}

// ForwardMagnitude writes into mag the magnitudes of the first len(mag) bins
// of the windowed forward transform FFT(win .* x) / coherentGain of the real
// series x zero-padded to the plan's length; x and mag must each be at most
// the plan's size. The complex input and output are scratch buffers of the
// plan's own, so the transform runs out of place and a warm plan allocates
// nothing.
func (p *Plan) ForwardMagnitude(mag, x []float64) {
	if len(x) > p.n || len(mag) > p.n {
		panic(fmt.Sprintf("dsp: plan of size %d given %d samples for %d magnitudes", p.n, len(x), len(mag)))
	}
	in, out := p.scratch.Get().(*[]complex128), p.scratch.Get().(*[]complex128)
	src := *in
	for i, v := range x {
		src[i] = complex(v, 0)
	}
	clear(src[len(x):])
	p.stages(*out, src, p.fwdCoef, p.roots)
	MagnitudeInto(mag, (*out)[:len(mag)])
	p.scratch.Put(in)
	p.scratch.Put(out)
}

// InverseMany runs the windowed inverse transform, dst = inverse FFT of
// (win .* src) / coherentGain including the 1/N normalization, over
// channels independent signals stored in one contiguous buffer with the
// given stride: channel k occupies src[k*stride : k*stride+n] for the
// plan's size n, and its transform lands at the same offsets in dst. All
// channels share the plan's tables; nothing is allocated. It panics if
// stride < n, if either buffer is too short, or if dst and src share a
// backing array.
func (p *Plan) InverseMany(dst, src []complex128, channels, stride int) {
	if stride < p.n {
		panic(fmt.Sprintf("dsp: plan stride %d below transform size %d", stride, p.n))
	}
	if channels <= 0 {
		return
	}
	if need := (channels-1)*stride + p.n; len(dst) < need || len(src) < need {
		panic(fmt.Sprintf("dsp: plan buffers hold %d/%d samples, need %d", len(dst), len(src), need))
	}
	// Slices of one array end their capacity at the same element (unless
	// a full slice expression cut one short).
	if &dst[:cap(dst)][cap(dst)-1] == &src[:cap(src)][cap(src)-1] {
		panic("dsp: plan InverseMany with dst and src sharing storage")
	}
	p.invOnce.Do(p.buildInverse)
	for k := 0; k < channels; k++ {
		off := k * stride
		p.stages(dst[off:off+p.n], src[off:off+p.n], p.invCoef, p.rootsInv)
	}
}

// stages runs the radix-2 pipeline: a fused gather (bit-reversal permutation
// + window/normalization scale + the first butterfly stages) followed by the
// remaining stages with the twiddle factor hoisted out of the butterfly loop
// — no per-butterfly direction branch, conjugation or final scale pass.
//
// The gather carries the first THREE stages in registers before anything is
// stored: an 8-point group touches memory once instead of once per stage,
// removing two full load/store passes over the signal. The butterfly
// operations and their order are exactly those of the textbook radix-2
// stage loop (same twiddles roots[k*n/8], same pairing), so the output is
// bit-identical to the unfused pipeline.
func (p *Plan) stages(dst, src []complex128, coef []float64, roots []complex128) {
	n := p.n
	perm := p.perm
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
}

// scale multiplies both components of v by c (the permuted window/
// normalization coefficient of the fused gather).
func scale(v complex128, c float64) complex128 {
	return complex(real(v)*c, imag(v)*c)
}
