package radar

import "math/rand"

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
