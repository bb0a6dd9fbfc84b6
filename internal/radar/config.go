// Package radar implements the FMCW automotive radar simulator used to
// interrogate RoS tags: baseband chirp synthesis per Eq 2, range estimation
// by inverse FFT per Eq 3, angle-of-arrival estimation by Rx-array beamforming per
// Eq 4, point-cloud extraction (Sec 3.2), and the "spotlight" beamforming
// RSS measurement of Sec 6. Default parameters mirror the TI IWR1443
// configuration of Sec 7.1: 66 MHz/us slope, 5 Msps, 256 samples per frame,
// 1 kHz frame rate, 4 Rx antennas.
package radar

import (
	"fmt"

	"ros/internal/dsp"
	"ros/internal/em"
	"ros/internal/roserr"
)

// Config describes one radar.
type Config struct {
	// CenterFrequency is the carrier in Hz.
	CenterFrequency float64
	// Slope is the FMCW frequency slope gamma in Hz/s.
	Slope float64
	// SampleRate is the complex baseband sampling rate in Hz.
	SampleRate float64
	// Samples is the number of baseband samples per chirp/frame.
	Samples int
	// FrameRate is the frame repetition rate Fs in Hz.
	FrameRate float64
	// NumRx is the receive antenna count.
	NumRx int
	// RxSpacing is the Rx element spacing in meters.
	RxSpacing float64
	// FrontEnd carries the link-budget parameters.
	FrontEnd em.RadarFrontEnd
	// ADCBits quantizes the baseband I/Q samples to this many bits with a
	// simple full-scale AGC; 0 models an ideal converter.
	ADCBits int
}

// TI1443 returns the evaluation radar of Sec 7.1.
func TI1443() Config {
	return Config{
		CenterFrequency: em.CenterFrequency,
		Slope:           66e6 / 1e-6, // 66 MHz/us
		SampleRate:      5e6,
		Samples:         256,
		FrameRate:       1000,
		NumRx:           4,
		RxSpacing:       em.Lambda79() / 2,
		FrontEnd:        em.TIRadar(),
	}
}

// Validate reports whether the configuration is usable. Every rejection
// wraps roserr.ErrConfig, so misconfiguration is distinguishable from
// runtime faults by errors.Is.
func (c Config) Validate() error {
	switch {
	case c.CenterFrequency <= 0:
		return fmt.Errorf("radar: %w: non-positive carrier %g", roserr.ErrConfig, c.CenterFrequency)
	case c.Slope <= 0:
		return fmt.Errorf("radar: %w: non-positive slope %g", roserr.ErrConfig, c.Slope)
	case c.SampleRate <= 0:
		return fmt.Errorf("radar: %w: non-positive sample rate %g", roserr.ErrConfig, c.SampleRate)
	case c.Samples < 8:
		return fmt.Errorf("radar: %w: need at least 8 samples, got %d", roserr.ErrConfig, c.Samples)
	case !dsp.IsPow2(c.Samples):
		// The range transform (Eq 3) is a power-of-two FFT plan.
		return fmt.Errorf("radar: %w: samples per chirp %d is not a power of two", roserr.ErrConfig, c.Samples)
	case c.FrameRate <= 0:
		return fmt.Errorf("radar: %w: non-positive frame rate %g", roserr.ErrConfig, c.FrameRate)
	case c.NumRx < 1:
		return fmt.Errorf("radar: %w: need at least 1 Rx antenna, got %d", roserr.ErrConfig, c.NumRx)
	case c.RxSpacing <= 0:
		return fmt.Errorf("radar: %w: non-positive Rx spacing %g", roserr.ErrConfig, c.RxSpacing)
	case c.ADCBits < 0 || c.ADCBits > 30:
		// 0 models an ideal converter; anything past 30 bits would
		// silently overflow the quantizer's level shift.
		return fmt.Errorf("radar: %w: ADC bits %d outside [1, 30] (0 disables quantization)", roserr.ErrConfig, c.ADCBits)
	}
	return nil
}

// Wavelength returns the carrier wavelength in meters.
func (c Config) Wavelength() float64 { return em.Wavelength(c.CenterFrequency) }

// ChirpDuration returns the sampled chirp length in seconds.
func (c Config) ChirpDuration() float64 { return float64(c.Samples) / c.SampleRate }

// SweptBandwidth returns the bandwidth swept during the sampled chirp in Hz
// (~3.4 GHz for the TI defaults).
func (c Config) SweptBandwidth() float64 { return c.Slope * c.ChirpDuration() }

// RangeResolution returns c/(2B) in meters (Sec 3.2).
func (c Config) RangeResolution() float64 { return em.C / (2 * c.SweptBandwidth()) }

// MaxRange returns the unambiguous range of the complex baseband,
// c*fs/(2*gamma).
func (c Config) MaxRange() float64 { return em.C * c.SampleRate / (2 * c.Slope) }

// RangeBinSize returns the range represented by one FFT bin; equal to
// RangeResolution for an unpadded FFT.
func (c Config) RangeBinSize() float64 { return c.MaxRange() / float64(c.Samples) }

// NoisePerBin returns the per-channel post-range-FFT noise power in watts:
// the front end's noise floor (Sec 5.3's -62 dBm for the TI radar).
func (c Config) NoisePerBin() float64 {
	return em.FromDBm(c.FrontEnd.NoiseFloorDBm())
}

// Commercial returns a production automotive radar per Sec 8: the low-noise
// high-EIRP front end of the paper's [34, 36] on a gentler 20 MHz/us chirp
// whose unambiguous range (37.5 m) covers the extended link budget.
func Commercial() Config {
	c := TI1443()
	c.Slope = 20e6 / 1e-6
	c.FrontEnd = em.CommercialRadar()
	return c
}
