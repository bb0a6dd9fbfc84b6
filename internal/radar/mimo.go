package radar

import (
	"fmt"
	"math"
	"math/rand"

	"ros/internal/dsp"
	"ros/internal/roserr"
)

// TDM-MIMO processing. The TI IWR1443 carries 3 Tx antennas; transmitting
// chirps from each Tx in turn and stacking the Rx channels forms a virtual
// array of NumTx*NumRx elements, tripling the angular resolution the
// single-Tx pipeline of Sec 3.2 achieves. RoS itself needs only one Tx per
// polarization, but the sharper virtual beam tightens the point clouds that
// feed DBSCAN, so the library models it.

// MIMOConfig extends a radar with time-division multiplexed transmitters.
type MIMOConfig struct {
	Config
	// NumTx is the transmitter count (the IWR1443 has 3).
	NumTx int
	// TxSpacing is the Tx element spacing in meters; the standard choice
	// NumRx*RxSpacing makes the virtual array uniform and gapless.
	TxSpacing float64
}

// TI1443MIMO returns the evaluation radar with its full 3-Tx TDM
// configuration.
func TI1443MIMO() MIMOConfig {
	base := TI1443()
	return MIMOConfig{
		Config:    base,
		NumTx:     3,
		TxSpacing: float64(base.NumRx) * base.RxSpacing,
	}
}

// Validate reports whether the MIMO configuration is usable.
func (m MIMOConfig) Validate() error {
	if err := m.Config.Validate(); err != nil {
		return err
	}
	if m.NumTx < 1 {
		return fmt.Errorf("radar: %w: need at least 1 Tx, got %d", roserr.ErrConfig, m.NumTx)
	}
	if m.TxSpacing <= 0 {
		return fmt.Errorf("radar: %w: non-positive Tx spacing %g", roserr.ErrConfig, m.TxSpacing)
	}
	return nil
}

// VirtualElements returns the virtual array size NumTx*NumRx.
func (m MIMOConfig) VirtualElements() int { return m.NumTx * m.NumRx }

// VirtualBeamwidth returns the virtual array's angular resolution in
// radians, lambda/(NumTx*NumRx*RxSpacing) for the gapless layout.
func (m MIMOConfig) VirtualBeamwidth() float64 {
	return m.Wavelength() / (float64(m.VirtualElements()) * m.RxSpacing)
}

// SynthesizeTDM generates one TDM burst: NumTx frames, the i-th transmitted
// from Tx element i. A Tx offset shifts the one-way path, which appears as
// an extra phase k*txPos*sin(az) on every scatterer — the virtual-array
// principle. A nil rng yields noiseless frames.
func (m MIMOConfig) SynthesizeTDM(scatterers []Scatterer, rng *rand.Rand) []Frame {
	if err := m.Validate(); err != nil {
		panic(fmt.Sprintf("radar: SynthesizeTDM on invalid config: %v", err))
	}
	lambda := m.Wavelength()
	plan := m.Config.NewSynthPlan()
	out := make([]Frame, m.NumTx)
	for tx := 0; tx < m.NumTx; tx++ {
		txPos := float64(tx) * m.TxSpacing
		shifted := make([]Scatterer, len(scatterers))
		for i, sc := range scatterers {
			s := sc
			s.Phase += 2 * math.Pi * txPos * math.Sin(sc.Azimuth) / lambda
			shifted[i] = s
		}
		out[tx] = plan.synthesizeRand(shifted, rng)
	}
	return out
}

// VirtualAoASpectrum beamforms the stacked virtual array at one range bin:
// the burst's NumTx frames are range-transformed, their Rx channels
// concatenated in virtual order, and conventional beamforming applied over
// the NumTx*NumRx elements.
func (m MIMOConfig) VirtualAoASpectrum(burst []Frame, bin int, angles []float64) ([]float64, error) {
	if len(burst) != m.NumTx {
		return nil, fmt.Errorf("radar: burst has %d frames, config %d Tx", len(burst), m.NumTx)
	}
	lambda := m.Wavelength()
	nv := m.VirtualElements()
	virt := make([]complex128, nv)
	plan := m.Config.NewSynthPlan()
	for tx, f := range burst {
		rp := plan.RangeProfile(f)
		if bin < 0 || bin >= len(rp.Bins[0]) {
			return nil, fmt.Errorf("radar: bin %d outside profile", bin)
		}
		for rx := 0; rx < m.NumRx; rx++ {
			virt[tx*m.NumRx+rx] = rp.Bins[rx][bin]
		}
	}
	out := make([]float64, len(angles))
	for i, th := range angles {
		// Virtual element position tx*TxSpacing + rx*RxSpacing factors the
		// steering weight into rotTx^tx * rotRx^rx, so each angle costs two
		// Sincos calls and a complex recurrence instead of per-element trig.
		sinTh := math.Sin(th)
		sinRx, cosRx := math.Sincos(2 * math.Pi * m.RxSpacing * sinTh / lambda)
		sinTx, cosTx := math.Sincos(2 * math.Pi * m.TxSpacing * sinTh / lambda)
		rotRx := complex(cosRx, sinRx)
		rotTx := complex(cosTx, sinTx)
		var sum complex128
		steerTx := complex(1, 0)
		for tx := 0; tx < m.NumTx; tx++ {
			steer := steerTx
			for rx := 0; rx < m.NumRx; rx++ {
				sum += virt[tx*m.NumRx+rx] * steer
				steer *= rotRx
			}
			steerTx *= rotTx
		}
		sum /= complex(float64(nv), 0)
		out[i] = real(sum)*real(sum) + imag(sum)*imag(sum)
	}
	return out, nil
}

// VirtualAoAEstimate returns the angle (radians) of the strongest virtual
// beamforming response at the range bin nearest rangeM.
func (m MIMOConfig) VirtualAoAEstimate(burst []Frame, rangeM float64) (float64, error) {
	angles := scanAngles()
	spec, err := m.VirtualAoASpectrum(burst, m.BinForRange(rangeM), angles)
	if err != nil {
		return 0, err
	}
	peaks := dsp.FindPeaks(spec, 0, 2)
	if len(peaks) == 0 {
		_, idx := dsp.Max(spec)
		return angles[idx], nil
	}
	step := angles[1] - angles[0]
	return angles[0] + peaks[0].Pos*step, nil
}
