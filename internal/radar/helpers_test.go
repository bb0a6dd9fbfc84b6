package radar

import (
	"math/rand"

	"ros/internal/dsp"
)

// One-shot conveniences for the package's tests: each builds a fresh plan,
// which no read does.

// Synthesize generates a baseband frame per Eq 2 through a fresh plan; see
// SynthPlan.Synthesize and SynthPlan.synthesizeRand.
func (c Config) Synthesize(scatterers []Scatterer, rng *rand.Rand) Frame {
	return c.NewSynthPlan().synthesizeRand(scatterers, rng)
}

// NewFrame returns a zeroed frame with the config's channel count and
// sample length backed by a fresh (unpooled) buffer.
func (c Config) NewFrame() Frame {
	return Frame{Data: make([]complex128, c.NumRx*c.Samples), NumRx: c.NumRx, Samples: c.Samples}
}

// RangeProfile applies the range transform of Eq 3 to a frame through a
// fresh plan; see SynthPlan.RangeProfile.
func (c Config) RangeProfile(f Frame) RangeProfile {
	return c.NewSynthPlan().RangeProfile(f)
}

// Kept returns the number of bins the scan kept.
func (c *Columns) Kept() int { return len(c.vals) / c.store.numRx }

// Channel returns channel k's samples as a view into the frame's buffer.
func (f Frame) Channel(k int) []complex128 {
	return f.Data[k*f.Samples : (k+1)*f.Samples]
}

// Beamwidth returns the Rx array's angular resolution in radians,
// lambda/(N*d) (~28.6 deg for 4 half-wavelength elements, Sec 7.1).
func (c Config) Beamwidth() float64 {
	return c.Wavelength() / (float64(c.NumRx) * c.RxSpacing)
}

// magnitudes returns |x| element-wise.
func magnitudes(x []complex128) []float64 {
	out := make([]float64, len(x))
	dsp.MagnitudeInto(out, x)
	return out
}
