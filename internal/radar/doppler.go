package radar

import (
	"fmt"
	"math"

	"ros/internal/dsp"
)

// Slow-time (frame-to-frame) Doppler processing. The paper's Sec 7.3 argues
// Doppler is negligible for RoS decoding; this module makes the argument
// quantitative by letting users measure the radial velocity the same radar
// would report. Note the frame rate bounds the unambiguous velocity at
// +/- lambda * Fs / 4 (about +/-0.95 m/s at the TI defaults' 1 kHz —
// automotive radars resolve speed with much faster chirp trains, which a
// Config with a higher FrameRate models directly).

// DopplerMap computes the range-Doppler power map from a coherent sequence
// of frames using one Rx channel: a range transform per frame followed by an
// FFT across frames per range bin. It returns the map indexed
// [doppler][range] together with the velocity axis in m/s (negative =
// approaching).
func (c Config) DopplerMap(frames []Frame, rx int) (powerMap [][]float64, velocity []float64, err error) {
	k := len(frames)
	if k < 2 {
		return nil, nil, fmt.Errorf("radar: Doppler needs at least 2 frames, got %d", k)
	}
	if rx < 0 || rx >= c.NumRx {
		return nil, nil, fmt.Errorf("radar: rx %d outside 0..%d", rx, c.NumRx-1)
	}
	// Range profiles per frame, through one plan.
	rangePlan := c.NewSynthPlan()
	profiles := make([]RangeProfile, k)
	for i, f := range frames {
		profiles[i] = rangePlan.RangeProfile(f)
	}
	nBins := c.Samples

	// Slow-time FFT per range bin, Hann-windowed against leakage. The
	// window (and its coherent-gain normalization) is fused into the plan's
	// first butterfly pass, and the three per-bin buffers are reused across
	// the bin loop.
	plan := dsp.NewPlan(k, dsp.Hann)
	powerMap = make([][]float64, k)
	for d := range powerMap {
		powerMap[d] = make([]float64, nBins)
	}
	slow := make([]complex128, k)
	spec := make([]complex128, k)
	shifted := make([]complex128, k)
	for b := 0; b < nBins; b++ {
		for i := 0; i < k; i++ {
			slow[i] = profiles[i].Bins[rx][b]
		}
		plan.Forward(spec, slow)
		dsp.FFTShiftInto(shifted, spec)
		for d, v := range shifted {
			powerMap[d][b] = (real(v)*real(v) + imag(v)*imag(v)) / float64(k*k)
		}
	}

	// Velocity axis: a radial velocity v advances the round-trip phase by
	// 4*pi*v/(lambda*Fs) per frame. FFTShift puts DC at index k/2.
	lambda := c.Wavelength()
	velocity = make([]float64, k)
	for d := range velocity {
		fd := float64(d-k/2) * c.FrameRate / float64(k) // Hz of slow-time tone
		velocity[d] = -fd * lambda / 2                  // phase decreases as range grows
	}
	return powerMap, velocity, nil
}

// EstimateVelocity returns the radial velocity (m/s, positive receding) of
// the strongest slow-time tone at the range bin nearest rangeM.
func (c Config) EstimateVelocity(frames []Frame, rx int, rangeM float64) (float64, error) {
	m, vel, err := c.DopplerMap(frames, rx)
	if err != nil {
		return 0, err
	}
	bin := c.BinForRange(rangeM)
	best, idx := math.Inf(-1), 0
	for d := range m {
		if m[d][bin] > best {
			best, idx = m[d][bin], d
		}
	}
	return vel[idx], nil
}

// MaxUnambiguousVelocity returns lambda * FrameRate / 4 in m/s.
func (c Config) MaxUnambiguousVelocity() float64 {
	return c.Wavelength() * c.FrameRate / 4
}
