package radar

import (
	"fmt"
	"math"
	"math/rand"

	"ros/internal/roserr"
)

// Elevation sensing. The IWR1443's third transmitter sits half a wavelength
// above the azimuth row; comparing the phase of returns illuminated by the
// elevated Tx against the reference Tx (phase monopulse) yields a coarse
// elevation angle — enough to tell a high-mounted tag from a bumper-height
// one, the deployment dimension Sec 7.3's blockage mitigation relies on.

// ElevationMIMO is the radar with its reference transmitter and one
// elevated transmitter, illuminated in turn (two-Tx time-division
// multiplexing).
type ElevationMIMO struct {
	Config
	// TxHeight is the elevated transmitter's vertical offset in meters
	// (lambda/2 on the IWR1443).
	TxHeight float64
}

// TI1443Elevation returns the evaluation radar with its elevation Tx.
func TI1443Elevation() ElevationMIMO {
	c := TI1443()
	return ElevationMIMO{Config: c, TxHeight: c.Wavelength() / 2}
}

// Validate reports whether the configuration is usable.
func (e ElevationMIMO) Validate() error {
	if err := e.Config.Validate(); err != nil {
		return err
	}
	if e.TxHeight <= 0 {
		return fmt.Errorf("radar: %w: non-positive elevation Tx height %g", roserr.ErrConfig, e.TxHeight)
	}
	return nil
}

// SynthesizeElevation generates the two-frame burst: frame 0 from the
// reference Tx, frame 1 from the elevated Tx whose extra one-way path adds
// the phase -k*TxHeight*sin(el) per scatterer. A nil rng is noiseless.
func (e ElevationMIMO) SynthesizeElevation(scatterers []Scatterer, rng *rand.Rand) []Frame {
	if err := e.Validate(); err != nil {
		panic(fmt.Sprintf("radar: SynthesizeElevation on invalid config: %v", err))
	}
	lambda := e.Wavelength()
	plan := e.Config.NewSynthPlan()
	out := make([]Frame, 2)
	out[0] = plan.synthesizeRand(scatterers, rng)
	shifted := make([]Scatterer, len(scatterers))
	for i, sc := range scatterers {
		s := sc
		s.Phase -= 2 * math.Pi * e.TxHeight * math.Sin(sc.Elevation) / lambda
		shifted[i] = s
	}
	out[1] = plan.synthesizeRand(shifted, rng)
	return out
}

// EstimateElevation runs phase monopulse at the given range and azimuth:
// the phase difference between the two Tx illuminations maps back to the
// elevation angle. Ambiguity: |el| < asin(lambda/(2*TxHeight)) (90 deg for
// the half-wavelength offset).
func (e ElevationMIMO) EstimateElevation(burst []Frame, rangeM, azimuth float64) (float64, error) {
	if len(burst) != 2 {
		return 0, fmt.Errorf("radar: elevation burst needs 2 frames, got %d", len(burst))
	}
	bin := e.BinForRange(rangeM)
	lambda := e.Wavelength()
	plan := e.Config.NewSynthPlan()

	beam := func(f Frame) complex128 {
		rp := plan.RangeProfile(f)
		var sum complex128
		sinAz := math.Sin(azimuth)
		for k := 0; k < e.NumRx; k++ {
			sin, cos := math.Sincos(2 * math.Pi * float64(k) * e.RxSpacing * sinAz / lambda)
			sum += rp.Bins[k][bin] * complex(cos, sin)
		}
		return sum
	}
	ref := beam(burst[0])
	ele := beam(burst[1])
	refMag := real(ref)*real(ref) + imag(ref)*imag(ref)
	if refMag == 0 {
		return 0, fmt.Errorf("radar: no return at range %.2f m", rangeM)
	}
	// The synthesizer negates the whole phase argument (see Synthesize),
	// so the elevated Tx's -k*h*sin(el) scatterer phase shows up as
	// +2*pi*h*sin(el)/lambda of relative phase here.
	cross := ele * complex(real(ref), -imag(ref))
	dphi := math.Atan2(imag(cross), real(cross))
	sinEl := dphi * lambda / (2 * math.Pi * e.TxHeight)
	if sinEl > 1 || sinEl < -1 {
		return 0, fmt.Errorf("radar: elevation phase %.2f rad outside the unambiguous window", dphi)
	}
	return math.Asin(sinEl), nil
}

// HeightOf converts an elevation estimate at a known ground range into a
// target height relative to the radar.
func HeightOf(elevation, rangeM float64) float64 {
	return rangeM * math.Tan(elevation)
}
