package vaa

import (
	"math"

	"ros/internal/em"
)

// Circular-polarization extension (Sec 8): a PSVAA built from circularly
// polarized elements. Ordinary reflectors flip circular handedness (in the
// (H, V) basis a mirror is diag(a, -a)), but a CP Van Atta pair — receive on one element,
// re-radiate from its partner — preserves it, so a radar with co-handed
// Tx/Rx separates tag from clutter without sacrificing half the elements:
// the 6 dB PSVAA loss is recovered.

// NewCPVAA builds a circularly polarized Van Atta array with the given pair
// count. Its antenna mode preserves handedness at the full (both-direction)
// VAA amplitude.
func NewCPVAA(pairs int) *Array {
	a := newArray(KindCPVAA, pairs)
	return a
}

// cpAntennaJones accumulates one CP antenna-mode path: handedness-preserving
// identity coupling, diag(g, g), which maps RHC to RHC.
func cpAntennaJones(s *em.ScatterMatrix, g complex128) {
	s.HH += g
	s.VV += g
}

// CPRangeGainDB is the link-budget improvement of the CP extension over the
// linear PSVAA: the recovered 6 dB of RCS (Sec 4.2: halving the re-radiating
// elements costs 20*log10(0.5)).
const CPRangeGainDB = 6.0

// CPMaxRange evaluates the Sec 8 claim: the maximum reading range of a
// front end against the 32-module tag once the 6 dB PSVAA loss is recovered
// by CP elements.
func CPMaxRange(fe em.RadarFrontEnd, frequency float64) float64 {
	return fe.MaxRange(em.TagRCS32StackDBsm+CPRangeGainDB, frequency)
}

// HandednessDiscriminationDB returns how strongly a co-handed CP radar
// separates this array's antenna-mode return from a mirror-like clutter
// return of equal magnitude, in dB: the array's co-handed coupling over the
// clutter's. Only meaningful for KindCPVAA.
func (a *Array) HandednessDiscriminationDB(theta, f float64) float64 {
	s := a.Scatter(theta, theta, f)
	co := s.Coupling(em.PolRHC, em.PolRHC)
	coP := real(co)*real(co) + imag(co)*imag(co)
	if coP == 0 {
		return math.Inf(-1)
	}
	// A mirror of the same total amplitude returns everything in the
	// opposite handedness; its co-handed leakage is zero, so compare the
	// array's co-handed power against its own cross-handed residue.
	cross := s.Coupling(em.PolRHC, em.PolLHC)
	crossP := real(cross)*real(cross) + imag(cross)*imag(cross)
	if crossP == 0 {
		return math.Inf(1)
	}
	return 10 * math.Log10(coP/crossP)
}
