package coding

import (
	"fmt"
	"math"

	"ros/internal/dsp"
	"ros/internal/roserr"
)

// peakTolerance is the search half-width around each designed peak
// position, as a fraction of the unit spacing Delta.
const peakTolerance = 0.35

// Decoder reads bits back out of measured RCS samples. It knows the code
// parameters (unit spacing, bit count, wavelength) that are fixed at tag
// fabrication time and published to vehicles, mirroring Sec 5.2.
type Decoder struct {
	// Bits is the number of coding bit slots (M-1).
	Bits int
	// Delta is the unit spacing delta_c in meters.
	Delta float64
	// Lambda is the radar wavelength in meters.
	Lambda float64
	// Spectrum options (window, detrending) pass through to
	// ComputeSpectrum.
	Options SpectrumOptions
}

// NewDecoder returns a decoder for tags with the given bit count, unit
// spacing, and wavelength.
func NewDecoder(bits int, delta, lambda float64) (*Decoder, error) {
	if bits < 1 {
		return nil, fmt.Errorf("coding: %w: decoder needs at least 1 bit slot, got %d", roserr.ErrConfig, bits)
	}
	if delta <= 0 || lambda <= 0 {
		return nil, fmt.Errorf("coding: %w: decoder requires positive delta and lambda (got %g, %g)", roserr.ErrConfig, delta, lambda)
	}
	return &Decoder{
		Bits:    bits,
		Delta:   delta,
		Lambda:  lambda,
		Options: SpectrumOptions{Lambda: lambda, Window: dsp.Hann},
	}, nil
}

// Result is a decoded tag read.
type Result struct {
	// Bits are the decoded coding bits.
	Bits []bool
	// PeakAmps holds the measured spectrum amplitude at each coding slot,
	// normalized by the coding-band mean as in Sec 6.
	PeakAmps []float64
	// NoiseMean and NoiseStd describe the coding-band bins away from the
	// designed peak positions.
	NoiseMean, NoiseStd float64
	// SNRdB is the decoding SNR (mu1 - mu0)^2 / sigma^2 of Sec 7.1 in dB.
	SNRdB float64
	// BER is the OOK bit error rate implied by SNRdB.
	BER float64
	// Spectrum is the underlying RCS frequency spectrum.
	Spectrum *Spectrum
}

// Decode converts RCS samples (u_i = cos(theta_i), rss_i) into bits. The
// spectrum's FFT plan comes from plans; nil builds a fresh plan for this
// call.
func (d *Decoder) Decode(u, rss []float64, plans PlanSource) (*Result, error) {
	opts := d.Options
	if opts.Lambda == 0 {
		opts.Lambda = d.Lambda
	}
	spec, err := ComputeSpectrum(u, rss, opts, plans)
	if err != nil {
		return nil, err
	}
	return d.DecodeSpectrum(spec)
}

// DecodeSpectrum runs the bit decision on an already-computed spectrum.
func (d *Decoder) DecodeSpectrum(spec *Spectrum) (*Result, error) {
	res := spec.Resolution()
	if res <= 0 {
		return nil, fmt.Errorf("coding: %w: spectrum has no resolution", roserr.ErrUndecodable)
	}
	m := d.Bits + 1
	// Designed |d_k| for each slot.
	slots := make([]float64, d.Bits)
	for k := 1; k <= d.Bits; k++ {
		slots[k-1] = float64(m+k-2) * d.Delta
	}
	tol := peakTolerance * d.Delta
	bandLo := slots[0] - tol
	bandHi := slots[d.Bits-1] + tol

	// Normalize by the overall power within the coding band (Sec 6).
	var bandSum float64
	var bandCount int
	for i, s := range spec.Spacing {
		if s >= bandLo && s <= bandHi {
			bandSum += spec.Mag[i]
			bandCount++
		}
	}
	if bandCount == 0 {
		return nil, fmt.Errorf("coding: %w: spectrum does not cover the coding band [%g, %g] m", roserr.ErrUndecodable, bandLo, bandHi)
	}
	norm := bandSum / float64(bandCount)
	if norm <= 0 {
		return nil, fmt.Errorf("coding: %w: coding band has no energy", roserr.ErrUndecodable)
	}

	// Peak amplitudes at the designed positions.
	amps := make([]float64, d.Bits)
	for i, s := range slots {
		amps[i] = spec.AmplitudeAt(s, tol) / norm
	}

	// Noise statistics from coding-band bins away from any slot.
	var noise []float64
	for i, s := range spec.Spacing {
		if s < bandLo || s > bandHi {
			continue
		}
		nearSlot := false
		for _, c := range slots {
			if math.Abs(s-c) < 2*tol {
				nearSlot = true
				break
			}
		}
		if !nearSlot {
			noise = append(noise, spec.Mag[i]/norm)
		}
	}
	noiseMean := dsp.Mean(noise)
	noiseStd := dsp.StdDev(noise)
	if noiseStd <= 0 {
		noiseStd = 1e-12
	}

	// Bit decision: a slot is "1" when its amplitude rises clearly above
	// the in-band noise AND above a fraction of the strongest peak — the
	// second criterion separates genuine peaks from windowing leakage when
	// the read is nearly noiseless.
	maxAmp, _ := dsp.Max(amps)
	threshold := noiseMean + 5*noiseStd
	if rel := 0.35 * maxAmp; rel > threshold && maxAmp > noiseMean+8*noiseStd {
		threshold = rel
	}
	bits := make([]bool, d.Bits)
	var ones, zeros []float64
	for i, a := range amps {
		if a > threshold {
			bits[i] = true
			ones = append(ones, a)
		} else {
			zeros = append(zeros, a)
		}
	}

	// Decoding SNR per Sec 7.1: (mu1 - mu0)^2 / sigma^2 with sigma the
	// amplitude standard deviation. mu0/sigma come from the in-band noise;
	// the spread of the "1" peaks adds to sigma when more than one is
	// present.
	mu1 := dsp.Mean(ones)
	mu0 := noiseMean
	if len(zeros) > 0 {
		mu0 = (dsp.Mean(zeros)*float64(len(zeros)) + noiseMean*float64(len(noise))) /
			float64(len(zeros)+len(noise))
	}
	sigma := noiseStd
	if len(ones) > 1 {
		s1 := dsp.StdDev(ones)
		sigma = math.Sqrt((sigma*sigma + s1*s1) / 2)
	}
	snrLin := 0.0
	if len(ones) > 0 {
		snrLin = dsp.DecodingSNR(mu1, mu0, sigma)
	}
	snrDB := dsp.DB(snrLin)

	return &Result{
		Bits:      bits,
		PeakAmps:  amps,
		NoiseMean: noiseMean,
		NoiseStd:  noiseStd,
		SNRdB:     snrDB,
		BER:       dsp.OOKBer(snrLin),
		Spectrum:  spec,
	}, nil
}

// BitsString formats bits as a "1011"-style string.
func BitsString(bits []bool) string {
	out := make([]byte, len(bits))
	for i, b := range bits {
		if b {
			out[i] = '1'
		} else {
			out[i] = '0'
		}
	}
	return string(out)
}

// ParseBits parses a "1011"-style string.
func ParseBits(s string) ([]bool, error) {
	if s == "" {
		return nil, fmt.Errorf("coding: %w: empty bit string", roserr.ErrConfig)
	}
	out := make([]bool, len(s))
	for i, c := range s {
		switch c {
		case '0':
		case '1':
			out[i] = true
		default:
			return nil, fmt.Errorf("coding: %w: invalid bit %q at position %d", roserr.ErrConfig, c, i)
		}
	}
	return out, nil
}
