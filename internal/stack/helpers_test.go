package stack

import (
	"fmt"

	"ros/internal/em"
)

// Closed forms of the paper the package's tests check the stack model
// against; no read evaluates them.

// Beamwidth evaluates the paper's Eq 5 for a uniformly spaced stack:
//
//	theta = 0.886 * lambda / (2 * N * d_v)   [radians]
//
// where d_v is the vertical module pitch. For the 32-module stack at the
// default pitch this is the paper's 1.1 degrees.
func Beamwidth(n int, pitch, lambda float64) float64 {
	if n < 1 || pitch <= 0 || lambda <= 0 {
		panic(fmt.Sprintf("stack: Beamwidth(n=%d, pitch=%g, lambda=%g)", n, pitch, lambda))
	}
	return 0.886 * lambda / (2 * float64(n) * pitch)
}

// FarFieldDistance returns the Fraunhofer distance 2*D^2/lambda (Eq 8) for
// the stack's height aperture; within it the plane-wave decoding model is
// inaccurate (the effect behind the 32-stack SNR penalty of Fig 15b).
func (s *Stack) FarFieldDistance(f float64) float64 {
	d := s.Height()
	lambda := em.Wavelength(f)
	return 2 * d * d / lambda
}
