// Package vaa models the retroreflective Van Atta arrays at the heart of the
// RoS tag (Sec 4 of the paper): the classic VAA, the polarization-switching
// variant (PSVAA), and the uniform-linear-array (ULA) baseline used as the
// "ordinary reflective object" comparison in Fig 4.
//
// The scattering model is an antenna-mode + structural-mode superposition:
//
//   - antenna mode: a plane wave arriving from angle theta_in induces a
//     signal at each element with phase k*x*sin(theta_in); the signal
//     propagates through the transmission line of its pair (loss + dispersive
//     phase from package txline) and re-radiates from the partner element,
//     contributing far-field phase k*x'*sin(theta_out). Because Van Atta
//     pairs are placed symmetrically about the array center, the monostatic
//     round-trip phase is angle-independent and the array retroreflects.
//   - structural mode: each metal patch also reflects specularly
//     (polarization preserving), which is all a plain ULA does, and which
//     gives the PSVAA its co-polarized specular response in Fig 5b.
//
// Absolute levels are calibrated once so the canonical 3-pair PSVAA presents
// the paper's HFSS figure of -43 dBsm (cross-polarized, broadside, 79 GHz),
// which puts the original VAA at ~-37 dBsm (twice the re-radiating paths)
// and, after the -18 dB polarization purity of the antenna mode, its
// cross-pol leakage at ~-55 dBsm — the three anchors of Fig 5a.
package vaa

import (
	"fmt"
	"math"
	"math/cmplx"
	"sync"

	"ros/internal/antenna"
	"ros/internal/em"
	"ros/internal/txline"
)

// Kind discriminates the array variants of Sec 4.
type Kind int

// Array variants.
const (
	// KindVAA is the classic co-polarized Van Atta array (Sec 4.1).
	KindVAA Kind = iota
	// KindPSVAA is the polarization-switching Van Atta array (Sec 4.2).
	KindPSVAA
	// KindULA is the uniform linear array of unconnected patches used as
	// the specular baseline in Fig 4.
	KindULA
	// KindCPVAA is the circularly polarized Van Atta array of the Sec 8
	// extension: handedness-preserving retroreflection at full VAA
	// amplitude (no 6 dB polarization-switching loss).
	KindCPVAA
)

// String names the variant.
func (k Kind) String() string {
	switch k {
	case KindVAA:
		return "VAA"
	case KindPSVAA:
		return "PSVAA"
	case KindULA:
		return "ULA"
	case KindCPVAA:
		return "CPVAA"
	default:
		return "unknown"
	}
}

// Array is a linear retroreflector (or the ULA baseline).
type Array struct {
	// Kind selects the variant.
	Kind Kind
	// Pairs is the number of Van Atta antenna pairs (the ULA has
	// 2*Pairs unconnected elements for a like-for-like comparison).
	Pairs int
	// Spacing is the element pitch in meters (lambda/2 at 79 GHz by
	// default).
	Spacing float64
	// Line is the interconnecting stripline model.
	Line txline.Stripline
	// TLLengths holds one transmission-line length per pair, innermost
	// first.
	TLLengths []float64
	// Element is the patch element model.
	Element antenna.Patch
	// PolPurityDB is the antenna-mode polarization purity: re-radiated
	// fields leak into the orthogonal polarization this many dB down
	// (amplitude 10^(-PolPurityDB/20)). 18 dB reproduces the VAA's
	// -55 dBsm cross-pol leakage of Fig 5a.
	PolPurityDB float64
}

// RoutingOverheadLG is the extra meander length, in guided wavelengths, that
// transmission lines beyond the third pair accrue while routing around the
// inner pairs (quadratically in the pair index past the fabricated 3-pair
// design, whose compact routing Fig 7b demonstrates). It is the physical
// mechanism behind the paper's observation that "more antenna pairs means a
// longer TL length and more propagation loss which limits the RCS
// contribution of the outer antenna pairs" (Sec 4.1).
const RoutingOverheadLG = 8.0

// ResidualSpecularDB is how far the structural (specular) scattering of a
// TL-connected array sits below that of an unloaded ULA patch, in amplitude
// dB. A matched element forwards most captured energy into its transmission
// line (where it re-emerges retro-directed), leaving only this residual to
// scatter specularly. 12 dB puts the VAA's specular leakage 5-13 dB below
// its retro lobe, matching Fig 4b.
const ResidualSpecularDB = 12.0

// InnermostTLLength is the innermost pair's line length, matching the
// fabricated design's first TL (Fig 7b: 4.106 mm).
const InnermostTLLength = 4.106e-3

// DefaultSpacing returns the lambda/2 element pitch at 79 GHz.
func DefaultSpacing() float64 { return em.Lambda79() / 2 }

// designTLLengths builds the TL length schedule for a given pair count:
// adjacent lines differ by 2 guided wavelengths (the minimum that avoids
// antenna overlap, Sec 4.1) plus quadratic routing overhead.
func designTLLengths(pairs int, line txline.Stripline) []float64 {
	lg := line.GuidedWavelength(em.CenterFrequency)
	out := make([]float64, pairs)
	for p := range out {
		out[p] = InnermostTLLength + 2*lg*float64(p)
		if p > 2 {
			d := float64(p - 2)
			out[p] += RoutingOverheadLG * d * d * lg
		}
	}
	return out
}

// NewVAA builds a classic Van Atta array with the given number of pairs.
func NewVAA(pairs int) *Array {
	return newArray(KindVAA, pairs)
}

// NewPSVAA builds a polarization-switching Van Atta array.
func NewPSVAA(pairs int) *Array {
	return newArray(KindPSVAA, pairs)
}

// NewULA builds the unconnected-patch baseline with 2*pairs elements.
func NewULA(pairs int) *Array {
	return newArray(KindULA, pairs)
}

func newArray(kind Kind, pairs int) *Array {
	if pairs < 1 {
		panic(fmt.Sprintf("vaa: array needs at least 1 pair, got %d", pairs))
	}
	line := txline.Default()
	return &Array{
		Kind:        kind,
		Pairs:       pairs,
		Spacing:     DefaultSpacing(),
		Line:        line,
		TLLengths:   designTLLengths(pairs, line),
		Element:     antenna.Default(math.Pi / 2), // vertical patches
		PolPurityDB: 18,
	}
}

// Validate reports whether the array is consistent.
func (a *Array) Validate() error {
	if a.Pairs < 1 {
		return fmt.Errorf("vaa: need at least 1 pair, got %d", a.Pairs)
	}
	if a.Spacing <= 0 {
		return fmt.Errorf("vaa: non-positive spacing %g", a.Spacing)
	}
	if a.Kind != KindULA && len(a.TLLengths) != a.Pairs {
		return fmt.Errorf("vaa: %d TL lengths for %d pairs", len(a.TLLengths), a.Pairs)
	}
	if err := a.Line.Validate(); err != nil {
		return err
	}
	return a.Element.Validate()
}

// Elements returns the total element count (2 per pair).
func (a *Array) Elements() int { return 2 * a.Pairs }

// elementPosition returns the x coordinate of element k, centered about the
// array midpoint.
func (a *Array) elementPosition(k int) float64 {
	return (float64(k) - float64(a.Elements()-1)/2) * a.Spacing
}

// elementPolarization returns the Jones vector of element k. The VAA and
// ULA are uniformly polarized; the PSVAA alternates (adjacent elements are
// rotated 90 degrees, which automatically makes every centro-symmetric pair
// cross-polarized, Fig 7a).
func (a *Array) elementPolarization(k int) em.Polarization {
	base := a.Element.Polarization()
	if a.Kind == KindPSVAA && k%2 == 1 {
		return base.Orthogonal()
	}
	return base
}

// calibration holds the absolute amplitude scales shared by every array.
type calConstants struct {
	path       float64 // per antenna-mode path amplitude (sqrt m^2 units)
	structural float64
}

var (
	calOnce sync.Once
	cal     calConstants
)

// Calibration anchors (paper values).
const (
	// psvaaRefDBsm is the HFSS RCS of a single 3-pair PSVAA (Sec 4.2).
	psvaaRefDBsm = -43.0
	// ulaRefDBsm is the broadside specular RCS of the 6-patch ULA baseline
	// (Fig 4a peak).
	ulaRefDBsm = -36.0
)

// calibrate computes the shared amplitude constants from the paper anchors.
func calibrate() calConstants {
	calOnce.Do(func() {
		ref := NewPSVAA(3)
		raw := ref.rawScatter(0, 0, em.CenterFrequency, 1, 0)
		crossAmp := cmplx.Abs(raw.Coupling(em.PolV, em.PolH))
		if crossAmp == 0 {
			panic("vaa: reference PSVAA has zero cross-pol response")
		}
		cal.path = math.Pow(10, psvaaRefDBsm/20) / crossAmp

		ula := NewULA(3)
		rawU := ula.rawScatter(0, 0, em.CenterFrequency, 0, 1)
		coAmp := cmplx.Abs(rawU.Coupling(em.PolV, em.PolV))
		if coAmp == 0 {
			panic("vaa: reference ULA has zero co-pol response")
		}
		cal.structural = math.Pow(10, ulaRefDBsm/20) / coAmp
	})
	return cal
}

// Scatter returns the full Jones scattering matrix of the array for a wave
// arriving from thetaIn and observed at thetaOut (radians off broadside) at
// frequency f. Entries are in sqrt(m^2): the RCS toward a receive
// polarization is |<rx, S tx>|^2 in m^2.
func (a *Array) Scatter(thetaIn, thetaOut, f float64) em.ScatterMatrix {
	c := calibrate()
	return a.rawScatter(thetaIn, thetaOut, f, c.path, c.structural)
}

// rawScatter evaluates the scattering model with explicit calibration
// constants (used during calibration itself with unit constants).
func (a *Array) rawScatter(thetaIn, thetaOut, f, pathCal, structCal float64) em.ScatterMatrix {
	var s em.ScatterMatrix
	k := 2 * math.Pi * f / em.C
	patIn := a.Element.Pattern(thetaIn)
	patOut := a.Element.Pattern(thetaOut)
	eff := a.Element.MatchEfficiency(f)
	leak := math.Pow(10, -a.PolPurityDB/20)

	// Antenna mode: only for connected arrays.
	if a.Kind != KindULA && pathCal != 0 {
		base := pathCal * patIn * patOut * eff
		n := a.Elements()
		for p := 0; p < a.Pairs; p++ {
			r := a.Pairs - 1 - p // inner element of pair p on the left half
			t := n - 1 - r       // its partner
			tl := a.Line.Through(a.TLLengths[p], f)
			if a.Kind == KindCPVAA {
				// Handedness-preserving CP coupling, both directions,
				// shared between the two linear channels.
				g1 := pathGain(a, r, t, k, thetaIn, thetaOut, base) * tl
				g2 := pathGain(a, t, r, k, thetaIn, thetaOut, base) * tl
				cpAntennaJones(&s, g1+g2)
				continue
			}
			addPath(&s, a, r, t, k, thetaIn, thetaOut, base, tl, leak)
			addPath(&s, a, t, r, k, thetaIn, thetaOut, base, tl, leak)
		}
	}

	// Structural (specular) mode: every metal patch, polarization
	// preserving. Connected arrays forward most captured energy into their
	// TLs, so only a residual scatters specularly; the residual is in
	// quadrature with the antenna mode (distinct phase centers).
	if structCal != 0 {
		base := structCal * patIn * patOut
		phase0 := complex(1, 0)
		if a.Kind != KindULA {
			base *= math.Pow(10, -ResidualSpecularDB/20)
			phase0 = complex(0, 1)
		}
		for e := 0; e < a.Elements(); e++ {
			x := a.elementPosition(e)
			sin, cos := math.Sincos(k * x * (math.Sin(thetaIn) + math.Sin(thetaOut)))
			g := phase0 * complex(base*cos, base*sin)
			// Mirror-like: specular metal flips circular handedness
			// (diag(g, -g)); linear magnitudes are unaffected.
			s.HH += g
			s.VV -= g
		}
	}
	return s
}

// pathGain returns the geometric path factor of one antenna-mode path
// (receive at element r, re-radiate at element t), excluding the TL.
func pathGain(a *Array, r, t int, k, thetaIn, thetaOut float64, base float64) complex128 {
	xr := a.elementPosition(r)
	xt := a.elementPosition(t)
	sin, cos := math.Sincos(k * (xr*math.Sin(thetaIn) + xt*math.Sin(thetaOut)))
	return complex(base*cos, base*sin)
}

// addPath accumulates one antenna-mode path (receive at element r, re-radiate
// at element t) into the scattering matrix.
func addPath(s *em.ScatterMatrix, a *Array, r, t int, k, thetaIn, thetaOut float64, base float64, tl complex128, leak float64) {
	g := pathGain(a, r, t, k, thetaIn, thetaOut, base) * tl

	pr := a.elementPolarization(r)
	pt := a.elementPolarization(t)
	// Radiated polarization with finite purity: the orthogonal component
	// leaks at -PolPurityDB.
	ptLeak := pt.Orthogonal()

	// S += g * (pt + leak*ptOrth) (x) pr^dagger.
	addOuter(s, pt, pr, g)
	addOuter(s, ptLeak, pr, g*complex(leak, 0))
}

// addOuter accumulates g * |rad><rec| into s.
func addOuter(s *em.ScatterMatrix, rad, rec em.Polarization, g complex128) {
	s.HH += g * rad.H * cmplx.Conj(rec.H)
	s.HV += g * rad.H * cmplx.Conj(rec.V)
	s.VH += g * rad.V * cmplx.Conj(rec.H)
	s.VV += g * rad.V * cmplx.Conj(rec.V)
}

// MonostaticRCS returns the monostatic radar cross section in m^2 at angle
// theta and frequency f for the given transmit and receive polarizations.
func (a *Array) MonostaticRCS(theta, f float64, tx, rx em.Polarization) float64 {
	c := a.Scatter(theta, theta, f).Coupling(tx.Unit(), rx.Unit())
	return real(c)*real(c) + imag(c)*imag(c)
}

// BistaticRCS returns the bistatic RCS in m^2 for illumination from thetaIn
// observed at thetaOut.
func (a *Array) BistaticRCS(thetaIn, thetaOut, f float64, tx, rx em.Polarization) float64 {
	c := a.Scatter(thetaIn, thetaOut, f).Coupling(tx.Unit(), rx.Unit())
	return real(c)*real(c) + imag(c)*imag(c)
}

// MonostaticRCSdB is MonostaticRCS in dBsm.
func (a *Array) MonostaticRCSdB(theta, f float64, tx, rx em.Polarization) float64 {
	return em.DBsm(a.MonostaticRCS(theta, f, tx, rx))
}

// BandAveragedRCS returns the monostatic RCS averaged (in linear power) over
// [fLo, fHi] with the given number of frequency samples.
func (a *Array) BandAveragedRCS(theta, fLo, fHi float64, samples int, tx, rx em.Polarization) float64 {
	if samples < 1 {
		panic(fmt.Sprintf("vaa: BandAveragedRCS with %d samples", samples))
	}
	if samples == 1 {
		return a.MonostaticRCS(theta, (fLo+fHi)/2, tx, rx)
	}
	sum := 0.0
	for i := 0; i < samples; i++ {
		f := fLo + (fHi-fLo)*float64(i)/float64(samples-1)
		sum += a.MonostaticRCS(theta, f, tx, rx)
	}
	return sum / float64(samples)
}
