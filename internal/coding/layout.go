// Package coding implements RoS's model-driven spatial encoding scheme
// (Sec 5 of the paper): information bits are embedded in the geometrical
// layout of PSVAA stacks, the superimposed multi-stack RCS follows Eq 6, and
// a Fourier transform over u = cos(theta) — the "RCS frequency spectrum" of
// Eq 7 — exposes one peak per coding stack at a position proportional to its
// distance from the reference stack. Presence/absence of each peak carries
// one on-off-keyed bit.
package coding

import (
	"fmt"
	"math"

	"ros/internal/em"
)

// DefaultDelta is the paper's basic unit spacing between coding stacks,
// delta_c = 1.5 lambda (Sec 5.2's verification example).
func DefaultDelta() float64 { return 1.5 * em.Lambda79() }

// Layout is the spatial code of one tag: a reference stack at the origin
// plus up to M-1 coding stacks whose presence encodes bits.
type Layout struct {
	// Bits are the M-1 coding bits, most significant (innermost coding
	// stack, k = 1) first.
	Bits []bool
	// Delta is the unit spacing delta_c in meters.
	Delta float64
}

// NewLayout builds the spatial code for the given bits with unit spacing
// delta (meters). Sec 5.2: the k-th coding stack (k = 1..M-1) sits at
//
//	d_k = s_k * (M + k - 2) * delta,  s_k alternating +1, -1,
//
// which confines all (M-1)^2 secondary inter-stack peaks outside the coding
// band [d_1, d_{M-1}].
func NewLayout(bits []bool, delta float64) (*Layout, error) {
	if len(bits) == 0 {
		return nil, fmt.Errorf("coding: empty bit string")
	}
	if delta <= 0 {
		return nil, fmt.Errorf("coding: non-positive unit spacing %g", delta)
	}
	return &Layout{Bits: append([]bool(nil), bits...), Delta: delta}, nil
}

// M returns the maximum stack count (reference + bit slots).
func (l *Layout) M() int { return len(l.Bits) + 1 }

// SlotPosition returns the designed position d_k of coding slot k (1-based)
// regardless of whether its stack is present.
func (l *Layout) SlotPosition(k int) float64 {
	if k < 1 || k > len(l.Bits) {
		panic(fmt.Sprintf("coding: slot %d outside 1..%d", k, len(l.Bits)))
	}
	sign := 1.0
	if k%2 == 0 {
		sign = -1
	}
	return sign * float64(l.M()+k-2) * l.Delta
}

// Stacks returns the number of stacks physically present, len(Positions()),
// without building the slice: the reference stack plus one per set bit.
func (l *Layout) Stacks() int {
	n := 1
	for _, b := range l.Bits {
		if b {
			n++
		}
	}
	return n
}

// Positions returns the positions of the stacks that are physically present:
// the reference stack at 0 plus one per set bit.
func (l *Layout) Positions() []float64 {
	out := []float64{0}
	for k, b := range l.Bits {
		if b {
			out = append(out, l.SlotPosition(k+1))
		}
	}
	return out
}

// CodingBand returns the [lo, hi] interval of |d| where coding peaks live:
// [d_1, d_{M-1}].
func (l *Layout) CodingBand() (lo, hi float64) {
	m := l.M()
	return float64(m-1) * l.Delta, float64(2*m-3) * l.Delta
}

// Aperture returns the span between the two outermost coding slots,
// |d_{M-1}| + |d_{M-2}| — the aperture the paper uses for the far-field
// bound (19.5 lambda for the 4-bit example).
func (l *Layout) Aperture() float64 {
	m := l.M()
	if m == 2 {
		return float64(m-1) * l.Delta
	}
	return float64(2*m-3)*l.Delta + float64(2*m-4)*l.Delta
}

// Width returns the full physical tag width in meters, Sec 5.3:
// D = |d_{M-1}| + |d_{M-2}| + 3*lambda (the 3-lambda term is the PSVAA
// module width).
func (l *Layout) Width() float64 {
	return l.Aperture() + 3*em.Lambda79()
}

// FarFieldDistance evaluates Eq 8, 2*D^2/lambda, with D the coding aperture.
// Beyond it the plane-wave model of Eq 6 holds; the paper quotes 2.9 m for
// the 4-bit example.
func (l *Layout) FarFieldDistance(f float64) float64 {
	lambda := em.Wavelength(f)
	d := l.Aperture()
	return 2 * d * d / lambda
}

// MaxSpeed evaluates the Nyquist bound of Eq 9: the RCS is sampled once per
// radar frame, the fastest spectral component sits at 2*d_max/lambda cycles
// per unit u, and the per-frame u step is at most ds/standoff (worst case at
// broadside). The returned speed is in m/s for a radar frame rate frameRate
// (Hz) passing at the given closest distance (m).
func (l *Layout) MaxSpeed(frameRate, standoff, f float64) float64 {
	if frameRate <= 0 || standoff <= 0 {
		panic(fmt.Sprintf("coding: MaxSpeed(frameRate=%g, standoff=%g)", frameRate, standoff))
	}
	lambda := em.Wavelength(f)
	_, dMax := l.CodingBand()
	du := lambda / (4 * dMax)
	return du * standoff * frameRate
}

// MultiStackGain evaluates Eq 6's interference factor
//
//	| sum_k exp(i * 4*pi * d_k * u / lambda) |^2
//
// for stacks at the given positions, observation direction u = cos(theta),
// and wavelength lambda. It multiplies the single-stack RCS r_T(theta).
func MultiStackGain(positions []float64, u, lambda float64) float64 {
	var re, im float64
	k := 4 * math.Pi * u / lambda
	for _, d := range positions {
		sin, cos := math.Sincos(k * d)
		re += cos
		im += sin
	}
	return re*re + im*im
}
