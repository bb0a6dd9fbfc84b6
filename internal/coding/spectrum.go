package coding

import (
	"fmt"
	"math"

	"ros/internal/dsp"
	"ros/internal/roserr"
)

// Spectrum is the RCS frequency spectrum of Eq 7: the Fourier transform of
// the measured RCS over u = cos(theta), with the frequency axis rescaled to
// stack spacing (a tone at spacing d appears at 2*d/lambda cycles per unit
// u, i.e. at axis position d).
type Spectrum struct {
	// Spacing is the axis in meters: entry i is the stack spacing whose
	// peak would appear in bin i.
	Spacing []float64
	// Mag is the spectrum magnitude per bin (arbitrary linear units,
	// normalized to the coding-band total as in Sec 6).
	Mag []float64
}

// Resolution returns the spacing-axis bin width in meters.
func (s *Spectrum) Resolution() float64 {
	if len(s.Spacing) < 2 {
		return 0
	}
	return s.Spacing[1] - s.Spacing[0]
}

// AmplitudeAt returns the maximum magnitude within +/- tol meters of the
// given spacing.
func (s *Spectrum) AmplitudeAt(spacing, tol float64) float64 {
	res := s.Resolution()
	if res == 0 {
		return 0
	}
	center := int(math.Round(spacing / res))
	hw := int(math.Ceil(tol / res))
	return dsp.MaxAround(s.Mag, center, hw)
}

// spectrumOversample is the FFT zero-padding factor of ComputeSpectrum,
// for a finer spacing axis.
const spectrumOversample = 8

// SpectrumOptions controls ComputeSpectrum.
type SpectrumOptions struct {
	// Lambda is the signal wavelength in meters (required).
	Lambda float64
	// Window tapers the u-domain samples; Hann by default.
	Window dsp.Window
	// DetrendDivisor sets the moving-average half window that strips the
	// single-stack envelope r_T(theta) before the FFT, as a fraction of
	// the grid (default 16). Amplitude-sensitive decoders (ASK) use a
	// smaller divisor — a wider average — because a short window leaves
	// tone residue in the envelope estimate and the division then
	// distorts relative peak amplitudes.
	DetrendDivisor int
	// DisableDetrend skips envelope removal entirely (mean subtraction
	// only); used by the detrending ablation.
	DisableDetrend bool
}

// PlanSource supplies the Rectangular FFT plan of one transform size.
// engine.Engine implements it (Engine.SpectrumPlan), so reads through an
// Engine build each decode size's plan once.
type PlanSource interface {
	SpectrumPlan(n int) *dsp.Plan
}

// ComputeSpectrum turns non-uniform RCS samples (u_i, rss_i) into the RCS
// frequency spectrum: resample onto a uniform u grid, strip the slowly
// varying envelope, window, zero-pad, FFT, and rescale the axis to stack
// spacing. Only non-negative spacings are returned (the RSS is real, so the
// spectrum is symmetric). The transform runs on the plan plans supplies,
// between buffers the plan recycles; a nil plans builds a fresh one for
// this call.
func ComputeSpectrum(u, rss []float64, opts SpectrumOptions, plans PlanSource) (*Spectrum, error) {
	if opts.Lambda <= 0 {
		return nil, fmt.Errorf("coding: %w: spectrum requires a positive wavelength, got %g", roserr.ErrConfig, opts.Lambda)
	}
	if len(u) != len(rss) {
		return nil, fmt.Errorf("coding: %w: %d u samples vs %d rss samples", roserr.ErrConfig, len(u), len(rss))
	}
	if len(u) < 8 {
		return nil, fmt.Errorf("coding: %w: need at least 8 samples, got %d", roserr.ErrUndecodable, len(u))
	}
	uMin, _ := dsp.Min(u)
	uMax, _ := dsp.Max(u)
	if uMax-uMin < 1e-6 {
		return nil, fmt.Errorf("coding: %w: degenerate u span [%g, %g]", roserr.ErrUndecodable, uMin, uMax)
	}
	n := dsp.NextPow2(2 * len(u))
	if n < 256 {
		n = 256
	}
	grid, vals, err := dsp.Resample(u, rss, uMin, uMax, n)
	if err != nil {
		return nil, err
	}
	var det []float64
	if opts.DisableDetrend {
		det = append([]float64(nil), vals...)
	} else {
		div := opts.DetrendDivisor
		if div == 0 {
			div = 16
		}
		det, _ = dsp.Detrend(vals, n/div)
	}
	// Non-finite samples — NaN/Inf in the input, or envelope division
	// overflowing on extreme magnitudes — would smear NaN across every FFT
	// bin and surface as a "decoded" read of garbage. Reject them here.
	for _, v := range det {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("coding: %w: non-finite RCS series after envelope removal", roserr.ErrUndecodable)
		}
	}
	mean := dsp.Mean(det)
	for i := range det {
		det[i] -= mean
	}
	opts.Window.ApplyFloat(det)

	m := dsp.NextPow2(n * spectrumOversample)
	var plan *dsp.Plan
	if plans != nil {
		plan = plans.SpectrumPlan(m)
	} else {
		plan = dsp.NewPlan(m, dsp.Rectangular)
	}
	du := grid[1] - grid[0]
	mag := make([]float64, m/2)
	plan.ForwardMagnitude(mag, det)
	spacing := make([]float64, m/2)
	for i := range spacing {
		// Bin i is frequency i/(m*du) cycles per unit u; a stack at
		// distance d contributes the tone 2*d/lambda, so d = f*lambda/2.
		spacing[i] = float64(i) / (float64(m) * du) * opts.Lambda / 2
	}
	return &Spectrum{Spacing: spacing, Mag: mag}, nil
}
