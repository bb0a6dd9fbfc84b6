package radar

import (
	"math"
)

// Cached steering kernels for the AoA scan (Eq 4). The beamforming steering
// expression exp(j*2*pi*k*d*sin(theta)/lambda) depends only on the array
// geometry (NumRx, RxSpacing) and the carrier — never on the frame — yet the
// decode pipeline evaluates it thousands of times per drive-by: once per
// scan angle per above-threshold range bin, plus twice per frame per
// spotlighted object. Precomputing the weights once per Config removes every
// math.Sin/Cos call from those loops: the scan becomes a table lookup plus a
// NumRx-length complex dot product, and single-angle spotlighting needs one
// Sincos for the element-to-element rotation.

// steeringKey identifies the geometry a steering table depends on; configs
// that share these fields share one cached table.
type steeringKey struct {
	numRx   int
	spacing float64
	freq    float64
}

// steeringTable holds the AoA scan grid and its precomputed steering weights
// for one array geometry. Both slices are shared across goroutines and must
// be treated as read-only.
type steeringTable struct {
	numRx int
	// angles is the scan grid: +/-60 deg (the radar antenna FoV, Sec 7.3)
	// in 1-degree steps.
	angles []float64
	// weights holds exp(j*2*pi*k*d*sin(angles[a])/lambda) at index
	// a*numRx+k.
	weights []complex128
}

// scanAngles returns the AoA scan grid: +/-60 deg (the radar antenna FoV,
// Sec 7.3) in 1-degree steps.
func scanAngles() []float64 {
	const step = math.Pi / 180
	var angles []float64
	for a := -60.0 * step; a <= 60*step+1e-12; a += step {
		angles = append(angles, a)
	}
	return angles
}

func newSteeringTable(c Config) *steeringTable {
	angles := scanAngles()
	t := &steeringTable{
		numRx:   c.NumRx,
		angles:  angles,
		weights: make([]complex128, len(angles)*c.NumRx),
	}
	lambda := c.Wavelength()
	for a, th := range angles {
		sinTh := math.Sin(th)
		for k := 0; k < c.NumRx; k++ {
			w := 2 * math.Pi * float64(k) * c.RxSpacing * sinTh / lambda
			sin, cos := math.Sincos(w)
			t.weights[a*c.NumRx+k] = complex(cos, sin)
		}
	}
	return t
}
