// Package stack models vertical stacks of PSVAAs (Sec 4.3 of the RoS
// paper). Each PSVAA in a stack is retro-directive in azimuth but behaves as
// an ordinary radiating element in elevation, so a stack of N modules forms
// an elevation array whose two-way pattern follows the array factor
//
//	AF(el) = sum_j exp(i * (2k * z_j * sin(el) + phi_j))
//
// where z_j are the module heights and phi_j the phase weights imprinted by
// lengthening all three of a module's transmission lines (the reflected
// signal traverses a TL exactly once, so the weight enters the round trip
// once, while the geometric elevation phase enters twice — this factor of
// two is why Eq 5's beamwidth carries a 2 in the denominator).
package stack

import (
	"fmt"
	"math"

	"ros/internal/em"
	"ros/internal/vaa"
)

// DefaultPitch is the vertical module pitch of the fabricated stacks in
// units of the free-space wavelength: 0.725 lambda (Fig 8a), i.e. ~2.75 mm.
const DefaultPitch = 0.725

// Stack is a vertical stack of identical PSVAAs.
type Stack struct {
	// Module is the per-row PSVAA.
	Module *vaa.Array
	// Heights are the module center heights in meters, relative to the
	// stack center.
	Heights []float64
	// Phases are the per-module phase weights in radians applied through
	// TL lengthening.
	Phases []float64
}

// NewUniform builds the baseline stack of n modules at the default pitch
// with zero phase weights (Fig 8a, right).
func NewUniform(n int) *Stack {
	if n < 1 {
		panic(fmt.Sprintf("stack: need at least 1 module, got %d", n))
	}
	pitch := DefaultPitch * em.Lambda79()
	heights := make([]float64, n)
	for j := range heights {
		heights[j] = (float64(j) - float64(n-1)/2) * pitch
	}
	return &Stack{
		Module:  vaa.NewPSVAA(3),
		Heights: heights,
		Phases:  make([]float64, n),
	}
}

// NewShaped builds a stack from explicit module pitches (meters, n-1 gaps
// between n modules, centered) and phase weights.
func NewShaped(pitches, phases []float64) (*Stack, error) {
	n := len(phases)
	if n < 1 {
		return nil, fmt.Errorf("stack: need at least 1 module")
	}
	if len(pitches) != n-1 {
		return nil, fmt.Errorf("stack: %d pitches for %d modules, want %d", len(pitches), n, n-1)
	}
	heights := make([]float64, n)
	for j := 1; j < n; j++ {
		if pitches[j-1] <= 0 {
			return nil, fmt.Errorf("stack: non-positive pitch %g at gap %d", pitches[j-1], j-1)
		}
		heights[j] = heights[j-1] + pitches[j-1]
	}
	// Center.
	mid := (heights[0] + heights[n-1]) / 2
	for j := range heights {
		heights[j] -= mid
	}
	out := &Stack{Module: vaa.NewPSVAA(3), Heights: heights, Phases: append([]float64(nil), phases...)}
	return out, out.Validate()
}

// Validate reports whether the stack is consistent.
func (s *Stack) Validate() error {
	if len(s.Heights) == 0 {
		return fmt.Errorf("stack: empty stack")
	}
	if len(s.Heights) != len(s.Phases) {
		return fmt.Errorf("stack: %d heights vs %d phases", len(s.Heights), len(s.Phases))
	}
	if s.Module == nil {
		return fmt.Errorf("stack: nil module")
	}
	return s.Module.Validate()
}

// N returns the number of modules.
func (s *Stack) N() int { return len(s.Heights) }

// Height returns the overall stack height in meters (top to bottom module
// centers plus one pitch of module extent).
func (s *Stack) Height() float64 {
	if len(s.Heights) == 0 {
		return 0
	}
	span := s.Heights[len(s.Heights)-1] - s.Heights[0]
	return span + DefaultPitch*em.Lambda79()
}

// ArrayFactor returns the complex two-way elevation array factor at
// elevation angle el (radians) and frequency f.
func (s *Stack) ArrayFactor(el, f float64) complex128 {
	k := 2 * math.Pi * f / em.C
	var re, im float64
	sinEl := math.Sin(el)
	for j, z := range s.Heights {
		sin, cos := math.Sincos(2*k*z*sinEl + s.Phases[j])
		re += cos
		im += sin
	}
	return complex(re, im)
}

// ElevationGain returns |AF(el)|^2, the two-way elevation power pattern
// (peaks at N^2 for a uniform unweighted stack at el = 0).
func (s *Stack) ElevationGain(el, f float64) float64 {
	af := s.ArrayFactor(el, f)
	return real(af)*real(af) + imag(af)*imag(af)
}

// RCS returns the monostatic RCS of the stack in m^2 at the given azimuth
// and elevation for the given Tx/Rx polarizations: the module's azimuth RCS
// scaled by the elevation array factor and the module's elevation element
// pattern.
func (s *Stack) RCS(az, el, f float64, tx, rx em.Polarization) float64 {
	single := s.Module.MonostaticRCS(az, f, tx, rx)
	elemEl := s.Module.Element.Pattern(el)
	return single * s.ElevationGain(el, f) * elemEl * elemEl
}

// MeasuredBeamwidth scans the elevation pattern and returns the full width
// (radians) over which the gain stays within -3 dB of its peak.
func (s *Stack) MeasuredBeamwidth(f float64) float64 {
	const step = 1e-4 // rad (~0.006 deg)
	peak := 0.0
	for el := -0.5; el <= 0.5; el += step {
		if g := s.ElevationGain(el, f); g > peak {
			peak = g
		}
	}
	if peak == 0 {
		return 0
	}
	half := peak / 2
	lo, hi := math.NaN(), math.NaN()
	for el := -0.5; el <= 0.5; el += step {
		if s.ElevationGain(el, f) >= half {
			if math.IsNaN(lo) {
				lo = el
			}
			hi = el
		}
	}
	if math.IsNaN(lo) {
		return 0
	}
	return hi - lo
}
