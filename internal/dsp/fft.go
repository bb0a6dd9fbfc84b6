// Package dsp provides the signal-processing substrate used throughout the
// RoS reproduction: the power-of-two FFT plan, window functions, resampling
// of non-uniform samples onto uniform grids, spectral peak detection, and
// the on-off-keying (OOK) SNR/BER model from Sec 7.1 of the paper.
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

// MagnitudeInto writes |src| element-wise into dst, which must have the
// length of src.
func MagnitudeInto(dst []float64, src []complex128) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("dsp: MagnitudeInto dst has %d slots for %d samples", len(dst), len(src)))
	}
	for i, v := range src {
		dst[i] = cmplx.Abs(v)
	}
}
