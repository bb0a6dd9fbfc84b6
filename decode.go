package ros

import (
	"ros/internal/coding"
	"ros/internal/dsp"
	"ros/internal/em"
	"ros/internal/trace"
)

// Decoded is the result of decoding externally supplied RCS samples.
type Decoded struct {
	// Bits is the recovered bit string.
	Bits string
	// SNRdB is the decoding SNR of Sec 7.1.
	SNRdB float64
	// BER is the implied OOK bit error rate.
	BER float64
	// PeakAmps are the normalized spectrum amplitudes at each coding slot.
	PeakAmps []float64
}

// Decode recovers bits from RCS samples measured while passing a tag:
// u[i] = cos(theta_i) is the observation coordinate (theta measured from the
// tag's axis) and rss[i] the path-loss-compensated reflected signal strength
// (any consistent linear unit). bits is the tag's coding slot count; the
// unit spacing defaults to the paper's 1.5 lambda at 79 GHz.
func Decode(u, rss []float64, bits int) (*Decoded, error) {
	dec, err := coding.NewDecoder(bits, coding.DefaultDelta(), em.Lambda79())
	if err != nil {
		return nil, err
	}
	res, err := dec.Decode(u, rss, nil)
	if err != nil {
		return nil, err
	}
	return &Decoded{
		Bits:     coding.BitsString(res.Bits),
		SNRdB:    res.SNRdB,
		BER:      res.BER,
		PeakAmps: res.PeakAmps,
	}, nil
}

// SNRToBER converts a decoding SNR in dB to the paper's OOK bit error rate
// (Sec 7.1: 15.8 dB -> 0.1%, 14 dB -> 0.6%).
func SNRToBER(snrDB float64) float64 {
	return dsp.OOKBerFromDB(snrDB)
}

// DecodeCaptureFile loads a recorded RCS capture (see Reading.SaveCapture
// and cmd/rossim -dump) and decodes it.
func DecodeCaptureFile(path string) (*Decoded, error) {
	c, err := trace.Load(path)
	if err != nil {
		return nil, err
	}
	dec, err := coding.NewDecoder(c.Bits, c.DeltaMeters, c.LambdaMeters)
	if err != nil {
		return nil, err
	}
	res, err := dec.Decode(c.U, c.RSS, nil)
	if err != nil {
		return nil, err
	}
	return &Decoded{
		Bits:     coding.BitsString(res.Bits),
		SNRdB:    res.SNRdB,
		BER:      res.BER,
		PeakAmps: res.PeakAmps,
	}, nil
}
