package radar

import (
	"fmt"
	"math"

	"ros/internal/dsp"
)

// binKernel holds the constants BinSpectrum needs to evaluate one bin of
// the windowed range transform without building a frame. They are derived
// from the same window coefficients the plan's range transform fuses
// (dsp.Hann.Coefficients), so the two paths share one calibration.
type binKernel struct {
	// scale is the range transform's normalization 1/(N*gain) = 1/sum(w).
	scale float64
	// sigma is the per-component sigma of the bin-domain thermal noise:
	// per-bin power NoisePerBin * N*sum(w^2)/sum(w)^2, the window's
	// equivalent noise bandwidth (ENBW, about 1.5 bins for Hann) times the
	// unwindowed per-bin noise.
	sigma float64
	// halfStep is half the symmetric Hann window's angular step,
	// pi/(N-1); sinHalf and cosHalf are its sine and cosine.
	halfStep, sinHalf, cosHalf float64
}

// newBinKernel derives the bin kernel from the window coefficients w of the
// plan's range transform for a config with the given per-bin noise power.
func newBinKernel(w []float64, noisePerBin float64) binKernel {
	n := len(w)
	sum, sumSq := 0.0, 0.0
	for _, v := range w {
		sum += v
		sumSq += v * v
	}
	enbw := float64(n) * sumSq / (sum * sum)
	k := binKernel{
		scale:    1 / sum,
		sigma:    math.Sqrt(noisePerBin*enbw) / math.Sqrt2,
		halfStep: math.Pi / float64(n-1),
	}
	k.sinHalf, k.cosHalf = math.Sincos(k.halfStep)
	return k
}

// BinSpectrum writes into dst (length NumRx) the per-channel range-transform
// value at one bin that RangeProfile(Synthesize(scatterers, ·)) would hold,
// computed in closed form without synthesizing a frame.
//
// Tones: the transform of one scatterer's tone at bin b is the windowed sum
// S(phi) = sum_n w[n] exp(i*phi*n) at phi = theta + 2*pi*b/N, where theta is
// the tone's per-sample phase step. The symmetric Hann window
// w[n] = 1/2 - 1/2*cos(2*pi*n/(N-1)) turns S into three Dirichlet kernels,
// S = D(phi)/2 - D(phi+a)/4 - D(phi-a)/4 with a = 2*pi/(N-1) and
// D(x) = exp(i*x*(N-1)/2) * sin(N*x/2)/sin(x/2). The three kernels share
// the phase factor exp(i*phi*(N-1)/2) exactly (N*a/2 = pi + a/2), so one
// bin costs two Sincos calls per scatterer on top of the carrier and
// steering phasors, which are evaluated from the same arguments Synthesize
// uses. Each value is scaled by the transform's 1/(N*gain) and rotated per
// channel by the steering phasor, as in Synthesize. The removable
// singularities of D (a tone exactly on the bin, or on the bin a side
// kernel is centred on) are evaluated at their limits.
//
// Noise: a non-nil g adds complex Gaussian noise to every channel, two
// draws per channel in channel order, with per-bin power
// NoisePerBin * N*sum(w^2)/sum(w)^2 — the window's noise bandwidth, the
// same per-bin power the time-domain path leaves after the transform. Each
// call's noise is independent of every other bin and frame, so the
// correlation the window induces between adjacent bins of one frame is not
// modelled; callers must never combine two bins of one BinSpectrum frame. A
// nil g yields the noiseless transform.
//
// BinSpectrum is the ideal-converter path: it models no ADC quantization
// and no sample-level faults, which act in the time domain. It always runs
// at float64 precision.
func (p *SynthPlan) BinSpectrum(dst []complex128, scatterers []Scatterer, bin int, g *dsp.Gauss) {
	c := &p.cfg
	n := c.Samples
	if bin < 0 || bin >= n {
		panic(fmt.Sprintf("radar: BinSpectrum at bin %d of %d", bin, n))
	}
	if len(dst) != c.NumRx {
		panic(fmt.Sprintf("radar: BinSpectrum dst has %d slots for %d channels", len(dst), c.NumRx))
	}
	clear(dst)
	k := &p.bin
	binPhase := 2 * math.Pi * float64(bin) / float64(n)
	for _, sc := range scatterers {
		if sc.Amplitude <= 0 || sc.Range <= 0 {
			continue
		}
		fb := p.beatK*sc.Range + p.dopK*sc.RadialVelocity
		base := p.phaseK*sc.Range + sc.Phase
		h := 0.5 * math.Remainder(p.stepK*fb+binPhase, 2*math.Pi)
		mag, pRe, pIm := k.hann(h, n)
		s0, c0 := math.Sincos(-base)
		a := sc.Amplitude * k.scale * mag
		vRe, vIm := a*(c0*pRe-s0*pIm), a*(c0*pIm+s0*pRe)
		rs, rc := math.Sincos(-p.rxK * math.Sin(sc.Azimuth))
		for ch := range dst {
			dst[ch] += complex(vRe, vIm)
			vRe, vIm = vRe*rc-vIm*rs, vRe*rs+vIm*rc
		}
	}
	if g != nil {
		for ch := range dst {
			dst[ch] += complex(g.Norm()*k.sigma, g.Norm()*k.sigma)
		}
	}
}

// hann evaluates the Hann-windowed tone sum S(phi) = mag * (pRe + i*pIm) at
// the half-angle h = phi/2 reduced to [-pi/2, pi/2] (phi reduced to
// [-pi, pi]). The phasor is exp(i*phi*(N-1)/2), built from the kernel's own
// Sincos results; mag is real and signed, because the symmetric window makes
// S(phi)*exp(-i*phi*(N-1)/2) real.
func (k *binKernel) hann(h float64, n int) (mag, pRe, pIm float64) {
	nf := float64(n)
	sh, ch := math.Sincos(h)
	sN, cN := math.Sincos(nf * h)
	// Centre kernel sin(N*h)/sin(h), N at the on-bin limit.
	centre := nf
	if sh != 0 {
		centre = sN / sh
	}
	// Side kernels: sin(N*h +- a/2)/sin(h +- a/2) by angle addition. Near
	// their own singularity (h = -+a/2) the addition formulas cancel, so
	// evaluate those directly from the shifted half-angle.
	side := func(sign float64) float64 {
		den := sh*k.cosHalf + sign*ch*k.sinHalf
		if math.Abs(den) > 1.0/64 {
			return (sN*k.cosHalf + sign*cN*k.sinHalf) / den
		}
		hs := h + sign*k.halfStep
		if hs == 0 {
			return -nf
		}
		// sin(N*hs) = -sin(N*h +- a/2) since N*a/2 = pi + a/2.
		return -math.Sin(nf*hs) / math.Sin(hs)
	}
	// exp(i*(N-1)*h) = exp(i*N*h) * exp(-i*h).
	return 0.5*centre - 0.25*side(1) - 0.25*side(-1), cN*ch + sN*sh, sN*ch - cN*sh
}
