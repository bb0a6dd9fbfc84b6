package dsp

import (
	"math"
)

// Window identifies a tapering window applied before spectral analysis to
// control leakage from the strong coding peaks into neighbouring bins.
type Window int

// Supported windows.
const (
	// Rectangular applies no tapering.
	Rectangular Window = iota
	// Hann is the raised-cosine window; the default for RCS spectra.
	Hann
	// Hamming is the classic Hamming window.
	Hamming
	// Blackman trades main-lobe width for very low sidelobes.
	Blackman
)

// String returns the conventional window name.
func (w Window) String() string {
	switch w {
	case Rectangular:
		return "rectangular"
	case Hann:
		return "hann"
	case Hamming:
		return "hamming"
	case Blackman:
		return "blackman"
	default:
		return "unknown"
	}
}

// Coefficients returns the n window coefficients. For n <= 1 a single unit
// coefficient is returned (up to n entries).
func (w Window) Coefficients(n int) []float64 {
	if n <= 0 {
		return nil
	}
	c := make([]float64, n)
	if n == 1 {
		c[0] = 1
		return c
	}
	den := float64(n - 1)
	for i := range c {
		t := float64(i) / den
		switch w {
		case Hann:
			c[i] = 0.5 - 0.5*math.Cos(2*math.Pi*t)
		case Hamming:
			c[i] = 0.54 - 0.46*math.Cos(2*math.Pi*t)
		case Blackman:
			c[i] = 0.42 - 0.5*math.Cos(2*math.Pi*t) + 0.08*math.Cos(4*math.Pi*t)
		default:
			c[i] = 1
		}
	}
	return c
}

// windowEntry is one memoized coefficient table with its coherent gain (see
// PlanSet.WindowCoefficients). Entries are shared read-only across
// goroutines.
type windowEntry struct {
	coeffs []float64
	gain   float64
}

// ApplyFloat multiplies x by the window coefficients in place and returns x.
// (The complex-input variant was removed: every complex windowing path now
// runs through a fused Plan, which applies the coefficients inside the
// transform's first butterfly pass.)
func (w Window) ApplyFloat(x []float64) []float64 {
	c := w.Coefficients(len(x))
	for i := range x {
		x[i] *= c[i]
	}
	return x
}

// CoherentGain returns the mean of the window coefficients, i.e. the factor
// by which the window scales the amplitude of a coherent tone. Dividing the
// spectrum by this restores calibrated peak amplitudes.
func (w Window) CoherentGain(n int) float64 {
	c := w.Coefficients(n)
	if len(c) == 0 {
		return 1
	}
	sum := 0.0
	for _, v := range c {
		sum += v
	}
	return sum / float64(len(c))
}
