package em

import (
	"math"
	"math/cmplx"
)

// Polarization is a (possibly complex) Jones vector describing the
// transverse field of a linearly or circularly polarized wave in the (H, V)
// basis.
type Polarization struct {
	H, V complex128
}

// Canonical polarizations.
var (
	// PolH is horizontal linear polarization.
	PolH = Polarization{H: 1}
	// PolV is vertical linear polarization (the paper's patch antennas are
	// linearly polarized; the radar's stock antennas are V).
	PolV = Polarization{V: 1}
)

// PolLinear returns a linear polarization at the given rotation angle from
// horizontal (radians). PolLinear(0) == PolH, PolLinear(pi/2) == PolV.
func PolLinear(angle float64) Polarization {
	return Polarization{H: complex(math.Cos(angle), 0), V: complex(math.Sin(angle), 0)}
}

// Dot returns the Hermitian inner product <p, q> used to project a received
// field q onto a receive antenna of polarization p.
func (p Polarization) Dot(q Polarization) complex128 {
	return cmplx.Conj(p.H)*q.H + cmplx.Conj(p.V)*q.V
}

// Norm returns the Jones-vector magnitude.
func (p Polarization) Norm() float64 {
	return math.Sqrt(real(p.Dot(p)))
}

// Unit returns p normalized; the zero vector is returned unchanged.
func (p Polarization) Unit() Polarization {
	n := p.Norm()
	if n == 0 {
		return p
	}
	inv := complex(1/n, 0)
	return Polarization{H: p.H * inv, V: p.V * inv}
}

// Orthogonal returns a unit polarization orthogonal to p (for linear p this
// is the 90-degree-rotated polarization).
func (p Polarization) Orthogonal() Polarization {
	u := p.Unit()
	return Polarization{H: -cmplx.Conj(u.V), V: cmplx.Conj(u.H)}
}

// ScatterMatrix is a 2x2 Jones scattering matrix mapping incident to
// scattered polarization: Es = S * Ei in the (H, V) basis.
type ScatterMatrix struct {
	HH, HV complex128 // scattered H from incident H, V
	VH, VV complex128 // scattered V from incident H, V
}

// Apply scatters an incident polarization.
func (s ScatterMatrix) Apply(in Polarization) Polarization {
	return Polarization{
		H: s.HH*in.H + s.HV*in.V,
		V: s.VH*in.H + s.VV*in.V,
	}
}

// Coupling returns the complex amplitude coupled from a transmit
// polarization through the scatterer into a receive polarization:
// <rx, S * tx>.
func (s ScatterMatrix) Coupling(tx, rx Polarization) complex128 {
	return rx.Dot(s.Apply(tx))
}
