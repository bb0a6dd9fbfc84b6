package radar

import (
	"fmt"
	"math"
	"math/rand"

	"ros/internal/dsp"
	"ros/internal/em"
)

// Scatterer is one point reflector as seen from the radar for one frame. The
// link budget (Eq 1, polarization coupling, atmospheric loss) is folded into
// Amplitude by the scene layer; the radar only turns geometry into signal.
type Scatterer struct {
	// Range is the radar-to-point distance in meters.
	Range float64
	// Azimuth is the angle of arrival measured from the array boresight in
	// radians.
	Azimuth float64
	// Amplitude is the linear received-signal amplitude, sqrt(watts),
	// referenced to a single post-range-FFT bin.
	Amplitude float64
	// Phase is an extra carrier phase in radians (e.g. from sub-bin range
	// offsets accumulated by the scene model).
	Phase float64
	// Elevation is the angle above the radar's horizontal plane in
	// radians; the azimuth Rx row is insensitive to it, but the elevated
	// transmitter of ElevationMIMO is not.
	Elevation float64
	// RadialVelocity is the range rate in m/s (positive receding); it
	// shifts the beat frequency by the Doppler term, which at automotive
	// speeds is orders of magnitude below the carrier (Sec 7.3).
	RadialVelocity float64
}

// Frame holds one frame of complex baseband samples for all Rx channels in
// one contiguous channel-major buffer, the layout the batched range
// transform (dsp.Plan.InverseMany) consumes directly.
type Frame struct {
	// Data holds NumRx*Samples complex samples; channel k occupies
	// Data[k*Samples : (k+1)*Samples].
	Data []complex128
	// NumRx is the channel count and Samples the per-channel length (also
	// the channel stride within Data).
	NumRx, Samples int

	// buf is the pooled backing store, nil for hand-built frames.
	buf *chanBuf
}

// SynthPlan is the per-read execution plan of the frame front-end: every
// term of the synthesis model (Eq 2) that depends only on the radar
// configuration — wavelength, beat/Doppler/phase coefficients, the
// per-sample noise sigma, the ADC's AGC parameters — evaluated once, plus
// the fused window+FFT plan of the range transform (Eq 3). The detection
// pipeline builds one plan per read and shares it across the frame workers;
// the plan itself is immutable and safe for concurrent use. Frame and profile
// buffers come from the package's one buffer pool (framePool), shared by
// every plan.
type SynthPlan struct {
	cfg    Config
	lambda float64
	// beatK and dopK turn range and radial velocity into the beat
	// frequency: fb = beatK*Range + dopK*RadialVelocity.
	beatK, dopK float64
	// phaseK is the carrier round-trip phase per meter, 4*pi/lambda.
	phaseK float64
	// stepK converts the beat frequency into the per-sample phase step,
	// -2*pi/SampleRate.
	stepK float64
	// rxK is the element-to-element steering phase per unit sin(az),
	// 2*pi*RxSpacing/lambda.
	rxK float64
	// sigma is the per-sample thermal noise sigma per I/Q component.
	sigma float64
	// adcLevels is the quantizer level count per polarity,
	// 1 << (ADCBits - 1); 0 when ADCBits == 0 (quantization disabled).
	adcLevels float64
	// rangePlan is the fused Hann window + inverse FFT plan of the range
	// transform.
	rangePlan *dsp.Plan
	// bin evaluates single bins of the same range transform in closed form
	// (BinSpectrum).
	bin binKernel
	// steer is the precomputed AoA steering table for the config's array
	// geometry, built with the plan.
	steer *steeringTable
}

// NewSynthPlan validates the configuration once and builds a fresh frame
// front-end plan for it, owned by the caller; see SynthPlan for the field
// semantics. It panics on an invalid config, exactly as Synthesize does.
// Reads resolve their plan through an engine.Engine (Engine.SynthPlan),
// which builds it here once per config and memoizes it.
func (c Config) NewSynthPlan() *SynthPlan {
	if err := c.Validate(); err != nil {
		panic(fmt.Sprintf("radar: synthesis plan on invalid config: %v", err))
	}
	lambda := c.Wavelength()
	p := &SynthPlan{
		cfg:       c,
		lambda:    lambda,
		beatK:     2 * c.Slope / em.C,
		dopK:      2 / lambda,
		phaseK:    4 * math.Pi / lambda,
		stepK:     -2 * math.Pi / c.SampleRate,
		rxK:       2 * math.Pi * c.RxSpacing / lambda,
		sigma:     math.Sqrt(c.NoisePerBin()*float64(c.Samples)) / math.Sqrt2,
		rangePlan: dsp.NewPlan(c.Samples, dsp.Hann),
		steer:     newSteeringTable(c),
	}
	p.bin = newBinKernel(dsp.Hann.Coefficients(c.Samples), c.NoisePerBin())
	if c.ADCBits > 0 {
		// Levels per polarity; Validate bounded ADCBits to (0, 30], so
		// the shift cannot overflow.
		p.adcLevels = float64(int(1) << (c.ADCBits - 1))
	}
	return p
}

// Synthesize generates a baseband frame per Eq 2 for the given scatterers,
// adding per-sample thermal noise sized so that the post-range-FFT per-bin
// noise power equals Config.NoisePerBin. A nil g yields a noiseless frame.
//
// Per scatterer the executor runs three Sincos calls — base carrier phase,
// per-sample beat rotation, per-channel steering rotation — then hands the
// work to the structure-of-arrays dsp tone kernel: dsp.ToneFill runs the
// latency-bound rotation recurrence exactly once into split re/im lanes,
// and every Rx channel accumulates the finished lanes rotated by its
// steering phasor rot^k (rot = exp(-i*2*pi*d*sin(az)/lambda)) via
// dsp.AccumulateRotated — independent multiply-adds with no serial chain,
// one pass over the frame per channel instead of one recurrence per
// channel. The kernel renormalizes its phasors periodically, so drift stays
// bounded on arbitrarily long frames.
//
// Thermal noise comes from the batched Gaussian stream g (dsp.Gauss): one
// fused AddNoise pass replaces the 2*Samples*NumRx individual NormFloat64
// calls the profile showed dominating this stage.
func (p *SynthPlan) Synthesize(scatterers []Scatterer, g *dsp.Gauss) Frame {
	c := p.cfg
	n := c.Samples
	// The pooled buffer is taken dirty: the first contributing scatterer
	// stores its tone (dsp.StoreTone) instead of accumulating, which
	// replaces the full-frame memclr with useful writes.
	buf := acquireBuf(c.NumRx, n, false)
	f := Frame{Data: buf.flat, NumRx: c.NumRx, Samples: n, buf: buf}

	if !p.synthTones(f, scatterers) {
		clear(f.Data)
	}

	// Per-sample noise such that after an N-point averaged FFT the per-bin
	// noise power equals NoisePerBin: the normalized FFT averages N
	// samples, reducing noise power by N. The fused generator accumulates
	// the scaled draws straight into the frame, real then imaginary per
	// sample, so quantized and ideal-converter frames see the same
	// realization.
	if g != nil {
		g.AddNoise(f.Data, p.sigma)
	}
	if c.ADCBits > 0 {
		p.quantize(f)
	}
	return f
}

// synthTones runs the scatterer loop into the frame: three Sincos calls per
// scatterer, one ToneFill recurrence into the split lanes, then
// store/accumulate passes rotated per channel by the steering phasor; the
// split lanes are stack scratch (laneScratch). Returns whether any scatterer
// contributed (the first one's stores replace the frame memclr).
func (p *SynthPlan) synthTones(f Frame, scatterers []Scatterer) bool {
	c := p.cfg
	n := c.Samples
	var stack [2 * stackLanes]float64
	re, im := laneScratch(stack[:], n)
	wrote := false
	for _, sc := range scatterers {
		if sc.Amplitude <= 0 || sc.Range <= 0 {
			continue
		}
		// Beat frequency from range plus Doppler.
		fb := p.beatK*sc.Range + p.dopK*sc.RadialVelocity
		base := p.phaseK*sc.Range + sc.Phase
		sinAz := math.Sin(sc.Azimuth)
		ds, dc := math.Sincos(p.stepK * fb)
		rs, rc := math.Sincos(-p.rxK * sinAz)
		s0, c0 := math.Sincos(-base)
		dsp.ToneFill(re, im, sc.Amplitude*c0, sc.Amplitude*s0, dc, ds)
		aRe, aIm := rc, rs
		if !wrote {
			wrote = true
			dsp.StoreTone(f.Data[:n], re, im)
			for k := 1; k < c.NumRx; k++ {
				dsp.StoreRotated(f.Data[k*n:(k+1)*n], re, im, aRe, aIm)
				aRe, aIm = aRe*rc-aIm*rs, aRe*rs+aIm*rc
			}
			continue
		}
		dsp.AccumulateTone(f.Data[:n], re, im)
		for k := 1; k < c.NumRx; k++ {
			dsp.AccumulateRotated(f.Data[k*n:(k+1)*n], re, im, aRe, aIm)
			aRe, aIm = aRe*rc-aIm*rs, aRe*rs+aIm*rc
		}
	}
	return wrote
}

// synthesizeRand synthesizes a frame with the noise stream seeded from the
// rng: a nil rng yields a noiseless frame; a non-nil rng seeds one pooled Gauss
// noise stream from a single rng draw, so the output is a pure function of
// the rng state.
func (p *SynthPlan) synthesizeRand(scatterers []Scatterer, rng *rand.Rand) Frame {
	if rng == nil {
		return p.Synthesize(scatterers, nil)
	}
	g := dsp.AcquireGauss(int64(rng.Uint64()))
	f := p.Synthesize(scatterers, g)
	dsp.ReleaseGauss(g)
	return f
}

// quantize applies the config's b-bit midrise converter with per-frame AGC:
// the full scale tracks the frame's peak I/Q excursion (plus headroom), as
// a real front end's gain control would.
func (p *SynthPlan) quantize(f Frame) {
	peak := 0.0
	for _, v := range f.Data {
		if a := math.Abs(real(v)); a > peak {
			peak = a
		}
		if a := math.Abs(imag(v)); a > peak {
			peak = a
		}
	}
	if peak == 0 {
		return
	}
	// Full scale is the peak plus 10% headroom. Evaluated as
	// (peak*1.1)/levels, the exact expression of the pre-plan quantizer,
	// so quantized frames are bit-identical to it.
	step := peak * 1.1 / p.adcLevels
	for t, v := range f.Data {
		f.Data[t] = complex(
			(math.Floor(real(v)/step)+0.5)*step,
			(math.Floor(imag(v)/step)+0.5)*step,
		)
	}
}
