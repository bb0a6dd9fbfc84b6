package stack

import (
	"fmt"
	"math"

	"ros/internal/em"
)

// Near-field focusing, the Sec 8 extension: "By using near-field-focusing
// antennas (NFFA), the requirement can be relaxed. That is, a larger tag
// encoding more bits can be decoded by a radar within the near field. In
// addition, with larger vertically stacked VAAs enabled by NFFAs, a higher
// RCS level can be achieved." A focused stack pre-compensates the two-way
// spherical phase curvature at a chosen focal distance, so a tall stack
// stays coherent well inside its Fraunhofer bound.

// NewFocused builds an n-module stack whose phase weights cancel the
// round-trip wavefront curvature at focalDistance meters (broadside) for
// frequency f.
func NewFocused(n int, focalDistance, f float64) (*Stack, error) {
	if n < 1 {
		return nil, fmt.Errorf("stack: need at least 1 module, got %d", n)
	}
	if focalDistance <= 0 {
		return nil, fmt.Errorf("stack: non-positive focal distance %g", focalDistance)
	}
	if f <= 0 {
		return nil, fmt.Errorf("stack: non-positive frequency %g", f)
	}
	s := NewUniform(n)
	k := 2 * math.Pi * f / em.C
	for j, z := range s.Heights {
		r := math.Sqrt(focalDistance*focalDistance + z*z)
		// Two-way curvature: the extra path is traversed twice.
		s.Phases[j] = math.Mod(2*k*(r-focalDistance), 2*math.Pi)
	}
	return s, nil
}

// NearFieldBoresightGain evaluates the exact two-way coherent gain of the
// stack for a radar broadside at the given distance: the finite-distance
// counterpart of ElevationGain(0, f). It peaks at N^2 when the stack is
// focused at that distance.
func (s *Stack) NearFieldBoresightGain(distance, f float64) float64 {
	if distance <= 0 {
		panic(fmt.Sprintf("stack: NearFieldBoresightGain at distance %g", distance))
	}
	k := 2 * math.Pi * f / em.C
	var re, im float64
	for j, z := range s.Heights {
		r := math.Sqrt(distance*distance + z*z)
		el := math.Atan2(z, distance)
		amp := s.Module.Element.Pattern(el)
		sin, cos := math.Sincos(-2*k*(r-distance) + s.Phases[j])
		re += amp * cos
		im += amp * sin
	}
	return re*re + im*im
}
