package dsp

// Float32-lane store/accumulate companions to the tone kernels. The lanes
// hold the tone at float32 precision (written by ToneFill32, half the lane
// traffic of the f64 lanes); the rotation and accumulation run in float64
// after a free widening load, and dst stays complex128 — the narrowing
// happened once at tone-store time, not per scatterer-accumulate.

// AccumulateTone32 adds the float32-lane tone to dst:
// dst[t] += re[t] + i*im[t].
func AccumulateTone32(dst []complex128, re, im []float32) {
	re = re[:len(dst)]
	im = im[:len(dst)]
	for t := range dst {
		dst[t] += complex(float64(re[t]), float64(im[t]))
	}
}

// AccumulateRotated32 adds the float32-lane tone rotated by the constant
// phasor a = aRe + i*aIm to dst: dst[t] += a * (re[t] + i*im[t]).
func AccumulateRotated32(dst []complex128, re, im []float32, aRe, aIm float64) {
	re = re[:len(dst)]
	im = im[:len(dst)]
	for t := range dst {
		tr, ti := float64(re[t]), float64(im[t])
		dst[t] += complex(aRe*tr-aIm*ti, aRe*ti+aIm*tr)
	}
}

// StoreTone32 is AccumulateTone32 with = instead of +=: the first scatterer
// of a frame defines the buffer contents outright, so the synthesis loop
// skips zeroing the pooled frame beforehand.
func StoreTone32(dst []complex128, re, im []float32) {
	re = re[:len(dst)]
	im = im[:len(dst)]
	for t := range dst {
		dst[t] = complex(float64(re[t]), float64(im[t]))
	}
}

// StoreRotated32 is AccumulateRotated32 with = instead of +=.
func StoreRotated32(dst []complex128, re, im []float32, aRe, aIm float64) {
	re = re[:len(dst)]
	im = im[:len(dst)]
	for t := range dst {
		tr, ti := float64(re[t]), float64(im[t])
		dst[t] = complex(aRe*tr-aIm*ti, aRe*ti+aIm*tr)
	}
}
