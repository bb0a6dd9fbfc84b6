// Package antenna models the aperture-coupled rectangular patch antenna
// element used by the PSVAA (Sec 4.2, Fig 7a). Only the properties the RoS
// analysis depends on are modeled:
//
//   - an element radiation pattern with a limited angular view, which caps
//     the retroreflective field of view of the Van Atta array at ~120 deg
//     (Fig 4a: "the FoV of the VAA or ULA cannot reach 180 deg since each
//     patch antenna element itself has a limited radiation angle");
//   - linear polarization along the patch's feed axis, rotatable by 90 deg
//     to build the polarization-switching array;
//   - a return-loss (s11) resonance model that keeps the element matched
//     (|s11| < -10 dB) across 77-81 GHz, as the HFSS optimization in the
//     paper enforces.
package antenna

import (
	"fmt"
	"math"

	"ros/internal/em"
)

// Patch is a single rectangular patch element.
type Patch struct {
	// PatternExponent is the exponent q of the cos^q(theta) amplitude
	// element pattern. The default 0.5 yields a one-way power pattern of
	// cos(theta), i.e. a -6 dB round-trip roll-off at 60 deg off broadside,
	// consistent with the "relatively flat RCS within a FoV of
	// approximately 120 deg" of Fig 4a.
	PatternExponent float64
	// PolarizationAngle is the rotation of the patch's linear polarization
	// from horizontal, in radians (0 = H, pi/2 = V).
	PolarizationAngle float64
	// ResonantFrequency is the patch's center resonance in Hz.
	ResonantFrequency float64
	// MatchedBandwidth is the -10 dB return-loss bandwidth in Hz; the HFSS
	// sweep in the paper targets the full 77-81 GHz band.
	MatchedBandwidth float64
	// BoresightGainDBi is the element gain at broadside in dBi. A typical
	// aperture-coupled patch on this stackup reaches ~5 dBi.
	BoresightGainDBi float64
}

// Paper dimensions of the fabricated element (Fig 7a/7b), in meters.
const (
	// PaperPatchSide is the square patch edge length (725 um at 0.725
	// normalized units in Fig 8a translates to ~0.725*lambda element pitch;
	// the physical patch edge is 725 um).
	PaperPatchSide = 725e-6
	// PaperCouplingStub is the optimized feed coupling stub (837.5 um).
	PaperCouplingStub = 837.5e-6
	// PaperStubSetback is the stub termination setback from the patch edge
	// (25 um).
	PaperStubSetback = 25e-6
)

// Default returns the fabricated RoS patch element with the given
// polarization angle.
func Default(polarizationAngle float64) Patch {
	return Patch{
		PatternExponent:   0.5,
		PolarizationAngle: polarizationAngle,
		ResonantFrequency: em.CenterFrequency,
		MatchedBandwidth:  6e9,
		BoresightGainDBi:  5,
	}
}

// Validate reports whether the element parameters are usable.
func (p Patch) Validate() error {
	if p.PatternExponent < 0 {
		return fmt.Errorf("antenna: negative pattern exponent %g", p.PatternExponent)
	}
	if p.ResonantFrequency <= 0 {
		return fmt.Errorf("antenna: non-positive resonant frequency %g", p.ResonantFrequency)
	}
	if p.MatchedBandwidth <= 0 {
		return fmt.Errorf("antenna: non-positive matched bandwidth %g", p.MatchedBandwidth)
	}
	return nil
}

// Pattern returns the normalized amplitude element pattern at the given
// off-broadside angle (radians). Angles beyond +/- pi/2 radiate nothing
// (the ground plane blocks the back hemisphere).
func (p Patch) Pattern(theta float64) float64 {
	c := math.Cos(theta)
	if c <= 0 {
		return 0
	}
	return math.Pow(c, p.PatternExponent)
}

// PatternCos is Pattern expressed in the angle's cosine: callers that
// already hold cos(theta) from geometry (adjacent over hypotenuse side
// lengths) skip the Atan2/Cos round trip, which dominates the per-module
// cost of the scene's coherent stack sums. The default q = 0.5 resolves to
// a hardware square root (the same value math.Pow's y == 0.5 fast path
// returns).
func (p Patch) PatternCos(c float64) float64 {
	if c <= 0 {
		return 0
	}
	if p.PatternExponent == 0.5 {
		return math.Sqrt(c)
	}
	return math.Pow(c, p.PatternExponent)
}

// Polarization returns the element's linear polarization Jones vector.
func (p Patch) Polarization() em.Polarization {
	return em.PolLinear(p.PolarizationAngle)
}

// S11DB returns the return loss in dB at frequency f from a symmetric
// resonance model: -20 dB at resonance degrading quadratically to -10 dB at
// the matched band edges.
func (p Patch) S11DB(f float64) float64 {
	df := (f - p.ResonantFrequency) / (p.MatchedBandwidth / 2)
	s := -20 + 10*df*df
	if s > -0.1 {
		s = -0.1
	}
	return s
}

// MatchEfficiency returns the fraction of incident power accepted by the
// element at frequency f: 1 - |s11|^2.
func (p Patch) MatchEfficiency(f float64) float64 {
	s11 := math.Pow(10, p.S11DB(f)/20)
	return 1 - s11*s11
}
