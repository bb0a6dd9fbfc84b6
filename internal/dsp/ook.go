package dsp

import "math"

// The RoS decoder treats presence/absence of coding peaks as on-off keying
// (OOK). Following Sec 7.1 of the paper, the decoding SNR of a read is
//
//	SNR = (mu1 - mu0)^2 / sigma^2
//
// where mu1 and mu0 are the mean amplitudes of "1" and "0" coding positions
// and sigma is the standard deviation of the coding-peak amplitudes, and the
// bit error rate follows the OOK model
//
//	BER = 1/2 * erfc( sqrt(SNR) / (2*sqrt(2)) ).
//
// The paper's anchor points reproduce exactly: 15.8 dB -> 0.1%, 14 dB ->
// 0.6%, 10 dB -> 5.7%.

// OOKBer converts a linear decoding SNR to the OOK bit error rate.
func OOKBer(snrLinear float64) float64 {
	if snrLinear <= 0 {
		return 0.5
	}
	return 0.5 * math.Erfc(math.Sqrt(snrLinear)/(2*math.Sqrt2))
}

// OOKBerFromDB converts an SNR in dB to the OOK bit error rate.
func OOKBerFromDB(snrDB float64) float64 {
	return OOKBer(math.Pow(10, snrDB/10))
}

// DecodingSNR computes the paper's decoding SNR from the measured "1" peak
// amplitudes, the measured "0"/noise amplitudes, and the amplitude standard
// deviation sigma. It returns the linear SNR; a non-positive sigma yields
// +Inf for separated means and 0 otherwise.
func DecodingSNR(mu1, mu0, sigma float64) float64 {
	d := mu1 - mu0
	if sigma <= 0 {
		if d != 0 {
			return math.Inf(1)
		}
		return 0
	}
	return d * d / (sigma * sigma)
}
