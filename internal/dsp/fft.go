// Package dsp provides the signal-processing substrate used throughout the
// RoS reproduction: fast Fourier transforms, window functions, resampling of
// non-uniform samples onto uniform grids, spectral peak detection, and the
// on-off-keying (OOK) SNR/BER model from Sec 7.1 of the paper.
//
// Everything is implemented from scratch on top of the standard library so
// the repository has no external dependencies.
package dsp

import (
	"fmt"
	"math"
	"math/cmplx"
)

// NextPow2 returns the smallest power of two that is >= n.
// NextPow2(0) == 1.
func NextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool {
	return n > 0 && n&(n-1) == 0
}

// FFT computes the discrete Fourier transform of x and returns a new slice.
//
//	X[k] = sum_n x[n] * exp(-2*pi*i*k*n/N)
//
// Any length is accepted: power-of-two lengths use an iterative radix-2
// Cooley-Tukey transform, other lengths fall back to Bluestein's chirp-z
// algorithm. The input slice is not modified. The one-shot helpers build
// their tables on each call; repeated transforms of one size use a Plan.
func FFT(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	copy(out, x)
	fftInPlace(out, false)
	return out
}

// IFFT computes the inverse discrete Fourier transform of x, including the
// 1/N normalization, and returns a new slice.
func IFFT(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	copy(out, x)
	fftInPlace(out, true)
	return out
}

// FFTInPlace transforms x in place, avoiding the output allocation of FFT.
// Hot paths that own their buffer (e.g. the per-frame range transform) use
// it to keep the per-call allocation at zero.
func FFTInPlace(x []complex128) { fftInPlace(x, false) }

// IFFTInPlace is FFTInPlace for the inverse transform, including the 1/N
// normalization.
func IFFTInPlace(x []complex128) { fftInPlace(x, true) }

// fftInPlace transforms x in place. If inverse is true the conjugate
// transform with 1/N scaling is applied.
func fftInPlace(x []complex128, inverse bool) {
	n := len(x)
	if n <= 1 {
		return
	}
	if IsPow2(n) {
		radix2Roots(x, newTwiddleTable(n), inverse)
	} else {
		bluestein(x, inverse)
	}
	if inverse {
		inv := complex(1/float64(n), 0)
		for i := range x {
			x[i] *= inv
		}
	}
}

// newTwiddleTable builds the forward roots of unity for size n:
// table[j] = exp(-2*pi*i*j/n) for j < n/2. A Plan captures its tables at
// build time and shares them read-only across goroutines (the frame loop of
// package detect runs FFTs from many workers at once).
func newTwiddleTable(n int) []complex128 {
	half := n / 2
	t := make([]complex128, half)
	for j := 0; j < half; j++ {
		s, c := math.Sincos(-2 * math.Pi * float64(j) / float64(n))
		t[j] = complex(c, s)
	}
	return t
}

// radix2Roots is an iterative in-place Cooley-Tukey FFT for power-of-two
// lengths over a caller-supplied forward twiddle table (conjugated per
// butterfly for the inverse transform), which removes the per-butterfly
// complex multiply chain of the textbook formulation (and its accumulated
// rounding). Scaling is left to the caller. Plans capture their table at
// build time and call this, so plan execution never touches a shared cache.
func radix2Roots(x []complex128, roots []complex128, inverse bool) {
	n := len(x)
	// Bit-reversal permutation.
	for i, j := 0, 0; i < n; i++ {
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
		mask := n >> 1
		for ; j&mask != 0; mask >>= 1 {
			j &^= mask
		}
		j |= mask
	}
	for span := 1; span < n; span <<= 1 {
		step := span << 1
		stride := n / step // twiddle index stride at this stage
		for start := 0; start < n; start += step {
			for k := 0; k < span; k++ {
				w := roots[k*stride]
				if inverse {
					w = cmplx.Conj(w)
				}
				a := x[start+k]
				b := x[start+k+span] * w
				x[start+k] = a + b
				x[start+k+span] = a - b
			}
		}
	}
}

// chirpPlan holds the Bluestein precomputation for one (length, direction)
// pair: the chirp sequence and the forward FFT of the convolution kernel.
type chirpPlan struct {
	w    []complex128 // chirp w[k] = exp(sign*i*pi*k^2/n)
	bfft []complex128 // FFT of the zero-padded conj(w) kernel, length m
	m    int
}

// newChirpPlan builds the Bluestein precomputation for one (length,
// direction) pair.
func newChirpPlan(n int, inverse bool) *chirpPlan {
	s := -1.0
	if inverse {
		s = 1.0
	}
	// Chirp w[k] = exp(sign * i*pi*k^2/n). Indices are reduced mod 2n to
	// keep k^2 from losing precision for large n.
	w := make([]complex128, n)
	for k := 0; k < n; k++ {
		kk := int64(k) * int64(k) % int64(2*n)
		w[k] = cmplx.Exp(complex(0, s*math.Pi*float64(kk)/float64(n)))
	}
	m := NextPow2(2*n - 1)
	b := make([]complex128, m)
	for k := 0; k < n; k++ {
		b[k] = cmplx.Conj(w[k])
	}
	for k := 1; k < n; k++ {
		b[m-k] = cmplx.Conj(w[k])
	}
	radix2Roots(b, newTwiddleTable(m), false)
	return &chirpPlan{w: w, bfft: b, m: m}
}

// bluestein computes an arbitrary-length DFT via the chirp-z transform,
// expressing it as a convolution that is evaluated with power-of-two FFTs.
func bluestein(x []complex128, inverse bool) {
	n := len(x)
	p := newChirpPlan(n, inverse)
	roots := newTwiddleTable(p.m)
	a := make([]complex128, p.m)
	for k := 0; k < n; k++ {
		a[k] = x[k] * p.w[k]
	}
	radix2Roots(a, roots, false)
	for i := range a {
		a[i] *= p.bfft[i]
	}
	radix2Roots(a, roots, true)
	scale := complex(1/float64(p.m), 0)
	for k := 0; k < n; k++ {
		x[k] = a[k] * scale * p.w[k]
	}
}

// Magnitude returns |x| element-wise. Hot paths that own a destination
// buffer use MagnitudeInto.
func Magnitude(x []complex128) []float64 {
	out := make([]float64, len(x))
	MagnitudeInto(out, x)
	return out
}

// MagnitudeInto writes |src| element-wise into dst, which must have the
// length of src.
func MagnitudeInto(dst []float64, src []complex128) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("dsp: Magnitude dst has %d slots for %d samples", len(dst), len(src)))
	}
	for i, v := range src {
		dst[i] = cmplx.Abs(v)
	}
}
