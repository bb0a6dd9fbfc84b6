package em

import "math"

// Circular polarization support for the Sec 8 extension: "The range can be
// further improved by overcoming the 6 dB RCS loss of the PSVAA with
// circularly polarized (CP) antenna elements. While common objects change
// the left/right-hand direction of circular polarized signals upon
// reflection, the PSVAA with CP antennas does not, enabling the radar to
// separate the reflections without the 6 dB loss."

// Circular Jones vectors (IEEE convention, unit power).
var (
	// PolRHC is right-hand circular polarization.
	PolRHC = Polarization{H: complex(1/math.Sqrt2, 0), V: complex(0, -1/math.Sqrt2)}
	// PolLHC is left-hand circular polarization.
	PolLHC = Polarization{H: complex(1/math.Sqrt2, 0), V: complex(0, 1/math.Sqrt2)}
)

// HandednessRejectionDB measures how strongly a scatterer's response to an
// RHC interrogation separates into same-handed (CP tag) vs opposite-handed
// (mirror-like clutter) receive channels: positive values mean the
// co-handed channel dominates.
func HandednessRejectionDB(s ScatterMatrix) float64 {
	co := s.Coupling(PolRHC, PolRHC)
	cross := s.Coupling(PolRHC, PolLHC)
	coP := real(co)*real(co) + imag(co)*imag(co)
	crossP := real(cross)*real(cross) + imag(cross)*imag(cross)
	if crossP == 0 {
		if coP == 0 {
			return 0
		}
		return math.Inf(1)
	}
	if coP == 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(coP/crossP)
}
