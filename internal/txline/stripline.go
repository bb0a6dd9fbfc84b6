// Package txline models the strip-line transmission lines that interconnect
// the Van Atta antenna pairs (Sec 4.2 of the RoS paper). The model captures
// the two TL properties the paper's design analysis depends on:
//
//   - dispersion: a line's electrical phase 2*pi*L*f*sqrt(eps_eff)/c grows
//     linearly with frequency, so lines whose lengths differ by multiples of
//     the guided wavelength are phase-aligned only at the design frequency —
//     this drives the delta_l <= 4.94*lambda_g bound of Sec 4.1;
//   - loss: dielectric + conductor loss per unit length, calibrated to the
//     paper's figure of 11 dB for a 10.8 cm line (Sec 4.3).
package txline

import (
	"fmt"
	"math"

	"ros/internal/em"
)

// Stripline describes a strip-line in the RoS stackup (Rogers 4350B cores
// with a 4450F bonding ply).
type Stripline struct {
	// EpsEff is the effective relative permittivity seen by the guided
	// wave. For a homogeneously filled stripline this equals the substrate
	// eps_r; the default is calibrated so the guided wavelength at 79 GHz
	// matches the paper's 2027 um.
	EpsEff float64
	// LossDBPerMeterAt79 is the total (dielectric + conductor) attenuation
	// at 79 GHz in dB/m. The default reproduces the paper's 11 dB over
	// 10.8 cm. Loss scales as sqrt(f/79 GHz) * (dielectric fraction scales
	// linearly); a single linear-in-f term is used as the dielectric loss
	// dominates at W band.
	LossDBPerMeterAt79 float64
}

// GuidedWavelength79 is the paper's quoted guided wavelength at 79 GHz
// (Sec 4.2): lambda_g = 2027 um.
const GuidedWavelength79 = 2027e-6

// Default returns the stripline of the RoS stackup.
func Default() Stripline {
	lg := GuidedWavelength79
	f := em.CenterFrequency
	epsEff := (em.C / (f * lg)) * (em.C / (f * lg))
	return Stripline{
		EpsEff:             epsEff,
		LossDBPerMeterAt79: 11.0 / 0.108,
	}
}

// Validate reports whether the line parameters are physical.
func (s Stripline) Validate() error {
	if s.EpsEff < 1 {
		return fmt.Errorf("txline: eps_eff must be >= 1, got %g", s.EpsEff)
	}
	if s.LossDBPerMeterAt79 < 0 {
		return fmt.Errorf("txline: loss must be non-negative, got %g dB/m", s.LossDBPerMeterAt79)
	}
	return nil
}

// PhaseVelocity returns the propagation speed c_p = c/sqrt(eps_eff) in m/s.
func (s Stripline) PhaseVelocity() float64 {
	return em.C / math.Sqrt(s.EpsEff)
}

// GuidedWavelength returns lambda_g(f) = c_p / f in meters.
func (s Stripline) GuidedWavelength(f float64) float64 {
	if f <= 0 {
		panic(fmt.Sprintf("txline: GuidedWavelength at non-positive frequency %g", f))
	}
	return s.PhaseVelocity() / f
}

// Phase returns the electrical phase accumulated over a line of the given
// length at frequency f, in radians: beta*L = 2*pi*L/lambda_g(f).
func (s Stripline) Phase(length, f float64) float64 {
	return 2 * math.Pi * length / s.GuidedWavelength(f)
}

// LossDB returns the attenuation in dB of a line of the given length at
// frequency f; loss scales linearly with frequency around the 79 GHz
// calibration point (dielectric-loss dominated).
func (s Stripline) LossDB(length, f float64) float64 {
	if length < 0 {
		panic(fmt.Sprintf("txline: LossDB of negative length %g", length))
	}
	return s.LossDBPerMeterAt79 * length * (f / em.CenterFrequency)
}

// Amplitude returns the linear amplitude transmission factor of a line of
// the given length at frequency f (10^(-LossDB/20)).
func (s Stripline) Amplitude(length, f float64) float64 {
	return math.Pow(10, -s.LossDB(length, f)/20)
}

// Through returns the full complex transmission coefficient of the line:
// amplitude loss and electrical phase delay exp(-j*beta*L).
func (s Stripline) Through(length, f float64) complex128 {
	a := s.Amplitude(length, f)
	sin, cos := math.Sincos(s.Phase(length, f))
	return complex(a*cos, -a*sin)
}

// MaxLengthDifference returns the paper's Sec 4.1 bound on the maximum TL
// length difference delta_l such that the worst-case phase misalignment
// across a radar bandwidth B stays below pi/2:
//
//	2*pi * (B/c_p) * delta_l < pi/2  =>  delta_l < c_p / (4*B).
func (s Stripline) MaxLengthDifference(bandwidth float64) float64 {
	if bandwidth <= 0 {
		panic(fmt.Sprintf("txline: MaxLengthDifference with non-positive bandwidth %g", bandwidth))
	}
	return s.PhaseVelocity() / (4 * bandwidth)
}

// MaxAntennaPairs evaluates the design rule of Sec 4.1: with adjacent TLs
// differing by deltaL (at least 2*lambda_g to avoid overlap), the number of
// antenna pairs a retroreflective VAA can sustain over the given bandwidth is
//
//	floor(maxLengthDifference / deltaL) + 1.
func (s Stripline) MaxAntennaPairs(bandwidth, deltaL float64) int {
	if deltaL <= 0 {
		panic(fmt.Sprintf("txline: MaxAntennaPairs with non-positive deltaL %g", deltaL))
	}
	return int(s.MaxLengthDifference(bandwidth)/deltaL) + 1
}

// PaperTLLengths returns the three optimized TL lengths of the fabricated
// PSVAA (Fig 7b): 4.106 mm, 9.148 mm and 12.171 mm, ordered from the
// innermost to the outermost antenna pair.
func PaperTLLengths() [3]float64 {
	return [3]float64{4.106e-3, 9.148e-3, 12.171e-3}
}
