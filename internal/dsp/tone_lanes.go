package dsp

import "math"

// ToneFill writes the tone cur*step^t into the split re/im lanes for
// t = 0..len(re)-1. Four phasor lanes advance by step^4 so the four complex
// multiply chains overlap in flight instead of serializing on one; the
// lanes renormalize to the starting magnitude every toneRenormInterval
// samples. re and im must have equal length.
func ToneFill(re, im []float64, curRe, curIm, stepRe, stepIm float64) {
	n := len(re)
	im = im[:n]
	// step^2 and step^4 for the lane offsets and the lane stride.
	s2r := stepRe*stepRe - stepIm*stepIm
	s2i := 2 * stepRe * stepIm
	s4r := s2r*s2r - s2i*s2i
	s4i := 2 * s2r * s2i
	c0r, c0i := curRe, curIm
	c1r := curRe*stepRe - curIm*stepIm
	c1i := curRe*stepIm + curIm*stepRe
	c2r := curRe*s2r - curIm*s2i
	c2i := curRe*s2i + curIm*s2r
	c3r := c2r*stepRe - c2i*stepIm
	c3i := c2r*stepIm + c2i*stepRe
	amp2 := curRe*curRe + curIm*curIm
	t := 0
	renorm := toneRenormInterval
	for ; t+4 <= n; t += 4 {
		re[t], im[t] = c0r, c0i
		re[t+1], im[t+1] = c1r, c1i
		re[t+2], im[t+2] = c2r, c2i
		re[t+3], im[t+3] = c3r, c3i
		c0r, c0i = c0r*s4r-c0i*s4i, c0r*s4i+c0i*s4r
		c1r, c1i = c1r*s4r-c1i*s4i, c1r*s4i+c1i*s4r
		c2r, c2i = c2r*s4r-c2i*s4i, c2r*s4i+c2i*s4r
		c3r, c3i = c3r*s4r-c3i*s4i, c3r*s4i+c3i*s4r
		if t >= renorm && amp2 > 0 {
			renorm += toneRenormInterval
			if m := c0r*c0r + c0i*c0i; m > 0 {
				s := math.Sqrt(amp2 / m)
				c0r, c0i = c0r*s, c0i*s
			}
			if m := c1r*c1r + c1i*c1i; m > 0 {
				s := math.Sqrt(amp2 / m)
				c1r, c1i = c1r*s, c1i*s
			}
			if m := c2r*c2r + c2i*c2i; m > 0 {
				s := math.Sqrt(amp2 / m)
				c2r, c2i = c2r*s, c2i*s
			}
			if m := c3r*c3r + c3i*c3i; m > 0 {
				s := math.Sqrt(amp2 / m)
				c3r, c3i = c3r*s, c3i*s
			}
		}
	}
	for ; t < n; t++ {
		re[t], im[t] = c0r, c0i
		c0r, c0i = c0r*stepRe-c0i*stepIm, c0r*stepIm+c0i*stepRe
	}
}

// ToneFill32 is ToneFill with float32 lane stores: the four phasor lanes
// still advance in float64 (the recurrence's drift bound depends on it — a
// float32 recurrence would need renorms every ~32 samples), only the stores
// narrow. Halving the lane traffic is the entire win; the arithmetic is
// identical, so the narrowed values are the f64 tone rounded once.
func ToneFill32(re, im []float32, curRe, curIm, stepRe, stepIm float64) {
	n := len(re)
	im = im[:n]
	s2r := stepRe*stepRe - stepIm*stepIm
	s2i := 2 * stepRe * stepIm
	s4r := s2r*s2r - s2i*s2i
	s4i := 2 * s2r * s2i
	c0r, c0i := curRe, curIm
	c1r := curRe*stepRe - curIm*stepIm
	c1i := curRe*stepIm + curIm*stepRe
	c2r := curRe*s2r - curIm*s2i
	c2i := curRe*s2i + curIm*s2r
	c3r := c2r*stepRe - c2i*stepIm
	c3i := c2r*stepIm + c2i*stepRe
	amp2 := curRe*curRe + curIm*curIm
	t := 0
	renorm := toneRenormInterval
	for ; t+4 <= n; t += 4 {
		re[t], im[t] = float32(c0r), float32(c0i)
		re[t+1], im[t+1] = float32(c1r), float32(c1i)
		re[t+2], im[t+2] = float32(c2r), float32(c2i)
		re[t+3], im[t+3] = float32(c3r), float32(c3i)
		c0r, c0i = c0r*s4r-c0i*s4i, c0r*s4i+c0i*s4r
		c1r, c1i = c1r*s4r-c1i*s4i, c1r*s4i+c1i*s4r
		c2r, c2i = c2r*s4r-c2i*s4i, c2r*s4i+c2i*s4r
		c3r, c3i = c3r*s4r-c3i*s4i, c3r*s4i+c3i*s4r
		if t >= renorm && amp2 > 0 {
			renorm += toneRenormInterval
			if m := c0r*c0r + c0i*c0i; m > 0 {
				s := math.Sqrt(amp2 / m)
				c0r, c0i = c0r*s, c0i*s
			}
			if m := c1r*c1r + c1i*c1i; m > 0 {
				s := math.Sqrt(amp2 / m)
				c1r, c1i = c1r*s, c1i*s
			}
			if m := c2r*c2r + c2i*c2i; m > 0 {
				s := math.Sqrt(amp2 / m)
				c2r, c2i = c2r*s, c2i*s
			}
			if m := c3r*c3r + c3i*c3i; m > 0 {
				s := math.Sqrt(amp2 / m)
				c3r, c3i = c3r*s, c3i*s
			}
		}
	}
	for ; t < n; t++ {
		re[t], im[t] = float32(c0r), float32(c0i)
		c0r, c0i = c0r*stepRe-c0i*stepIm, c0r*stepIm+c0i*stepRe
	}
}

// AccumulateTone adds the split-lane tone to dst: dst[t] += re[t] + i*im[t].
// This is the steering identity rotation (channel 0) — a pure streaming add
// with no dependency between iterations.
func AccumulateTone(dst []complex128, re, im []float64) {
	re = re[:len(dst)]
	im = im[:len(dst)]
	for t := range dst {
		dst[t] += complex(re[t], im[t])
	}
}

// AccumulateRotated adds the split-lane tone rotated by the constant phasor
// a = aRe + i*aIm to dst: dst[t] += a * (re[t] + i*im[t]). Iterations are
// independent, so the four multiplies and four adds per sample pipeline
// freely.
func AccumulateRotated(dst []complex128, re, im []float64, aRe, aIm float64) {
	re = re[:len(dst)]
	im = im[:len(dst)]
	for t := range dst {
		tr, ti := re[t], im[t]
		dst[t] += complex(aRe*tr-aIm*ti, aRe*ti+aIm*tr)
	}
}

// StoreTone is AccumulateTone with = instead of +=: the first scatterer of a
// frame defines the buffer contents outright, so the synthesis loop skips
// zeroing the pooled frame beforehand.
func StoreTone(dst []complex128, re, im []float64) {
	re = re[:len(dst)]
	im = im[:len(dst)]
	for t := range dst {
		dst[t] = complex(re[t], im[t])
	}
}

// StoreRotated is AccumulateRotated with = instead of +=.
func StoreRotated(dst []complex128, re, im []float64, aRe, aIm float64) {
	re = re[:len(dst)]
	im = im[:len(dst)]
	for t := range dst {
		tr, ti := re[t], im[t]
		dst[t] = complex(aRe*tr-aIm*ti, aRe*ti+aIm*tr)
	}
}
