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

// Channel returns channel k's samples as a view into the frame's buffer.
func (f Frame) Channel(k int) []complex128 {
	return f.Data[k*f.Samples : (k+1)*f.Samples]
}

// NewFrame returns a zeroed frame with the config's channel count and
// sample length backed by a fresh (unpooled) buffer.
func (c Config) NewFrame() Frame {
	return Frame{Data: make([]complex128, c.NumRx*c.Samples), NumRx: c.NumRx, Samples: c.Samples}
}

// SynthPlan is the per-read execution plan of the frame front-end: every
// term of the synthesis model (Eq 2) that depends only on the radar
// configuration — wavelength, beat/Doppler/phase coefficients, the
// per-sample noise sigma, the ADC's AGC parameters — evaluated once, plus
// the fused window+FFT plan of the range transform (Eq 3). The detection
// pipeline builds one plan per read and shares it across the frame workers;
// the plan itself is immutable and safe for concurrent use, only the frame
// buffers are pooled per call.
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
	// useF32 selects the float32 tone/noise kernel lane. The plan takes it
	// whenever the precision is paid for downstream: with ADCBits in (0,14]
	// the quantizer step at full scale is >= 2^-14 of peak, a thousand times
	// the float32 rounding of the tone store (2^-24 relative), and with
	// ADCBits == 0 (ideal converter) the thermal noise floor plays the same
	// masking role. Only ADCBits > 14 — or an explicit Config.ForceFloat64 —
	// keeps the full-precision lane.
	useF32 bool
	// rangePlan is the fused Hann window + IFFT plan of the range
	// transform.
	rangePlan *dsp.Plan
	// steer is the precomputed AoA steering table for the config's array
	// geometry, captured from the owning session at build time.
	steer *steeringTable
	// pool recycles the plan's frame and profile buffers; releasing the
	// plan's owner releases the buffers with it.
	pool *framePool
}

// NewSynthPlan validates the configuration once and builds a fresh frame
// front-end plan for it, owned by the caller. It panics on an invalid config,
// exactly as Synthesize does. Reads resolve their plan through a Session
// (Session.SynthPlanFor), which memoizes it.
func (c Config) NewSynthPlan() *SynthPlan {
	return newSynthPlan(c, nil, newSteeringTable)
}

// newSynthPlan builds the frame front-end plan for c, drawing its range
// transform from plans (nil builds it fresh) and its steering table from
// steering. See SynthPlan for the field semantics.
func newSynthPlan(c Config, plans *dsp.PlanSet, steering func(Config) *steeringTable) *SynthPlan {
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
		rangePlan: plans.PlanFor(c.Samples, dsp.Hann),
		steer:     steering(c),
		pool:      &framePool{},
	}
	if c.ADCBits > 0 {
		// Levels per polarity; Validate bounded ADCBits to (0, 30], so
		// the shift cannot overflow.
		p.adcLevels = float64(int(1) << (c.ADCBits - 1))
	}
	p.useF32 = c.ADCBits <= 14 && !c.ForceFloat64
	// Pre-warm one frame buffer so the first frame of a read does not pay
	// the high-water-mark allocation inside the synthesis loop.
	p.pool.put(newChanBuf(c.NumRx, c.Samples))
	return p
}

// Config returns the radar configuration the plan was built for.
func (p *SynthPlan) Config() Config { return p.cfg }

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
// FillNorm over preallocated lanes replaces the 2*Samples*NumRx individual
// NormFloat64 calls the profile showed dominating this stage.
func (p *SynthPlan) Synthesize(scatterers []Scatterer, g *dsp.Gauss) Frame {
	c := p.cfg
	n := c.Samples
	// The pooled buffer is taken dirty: the first contributing scatterer
	// stores its tone (dsp.StoreTone) instead of accumulating, which
	// replaces the full-frame memclr with useful writes.
	buf := p.pool.acquire(c.NumRx, n, false)
	f := Frame{Data: buf.flat, NumRx: c.NumRx, Samples: n, buf: buf}

	var wrote bool
	if p.useF32 {
		wrote = p.synthTones32(f, buf, scatterers)
	} else {
		wrote = p.synthTones(f, buf, scatterers)
	}
	if !wrote {
		clear(f.Data)
	}

	// Per-sample noise such that after an N-point averaged FFT the per-bin
	// noise power equals NoisePerBin: the normalized FFT averages N
	// samples, reducing noise power by N. The draws come batched from the
	// Gauss stream; the add pass tracks the largest I/Q excursion, which is
	// the quantizer's AGC peak — no extra full-frame scan. The f32 lane's
	// paired-draw generator consumes the stream at half the rate, so f32 and
	// f64 noise realizations are distinct sequences by design.
	peak := 0.0
	switch {
	case g != nil && c.ADCBits > 0:
		sigma := p.sigma
		if p.useF32 {
			lane := g.Norms32(2 * len(f.Data))
			for t, v := range f.Data {
				v += complex(float64(lane[2*t])*sigma, float64(lane[2*t+1])*sigma)
				f.Data[t] = v
				if a := math.Abs(real(v)); a > peak {
					peak = a
				}
				if a := math.Abs(imag(v)); a > peak {
					peak = a
				}
			}
			break
		}
		lane := g.Norms(2 * len(f.Data))
		for t, v := range f.Data {
			v += complex(lane[2*t]*sigma, lane[2*t+1]*sigma)
			f.Data[t] = v
			if a := math.Abs(real(v)); a > peak {
				peak = a
			}
			if a := math.Abs(imag(v)); a > peak {
				peak = a
			}
		}
	case g != nil:
		// No quantizer, no peak needed: the fused generator accumulates
		// the scaled draws straight into the frame.
		if p.useF32 {
			g.AddNoise32(f.Data, p.sigma)
		} else {
			g.AddNoise(f.Data, p.sigma)
		}
	case c.ADCBits > 0:
		for _, v := range f.Data {
			if a := math.Abs(real(v)); a > peak {
				peak = a
			}
			if a := math.Abs(imag(v)); a > peak {
				peak = a
			}
		}
	}
	if c.ADCBits > 0 {
		p.quantize(f, peak)
	}
	return f
}

// synthTones runs the scatterer loop into the frame at full precision:
// three Sincos calls per scatterer, one ToneFill recurrence into the split
// lanes, then store/accumulate passes rotated per channel by the steering
// phasor. Returns whether any scatterer contributed (the first one's stores
// replace the frame memclr).
func (p *SynthPlan) synthTones(f Frame, buf *chanBuf, scatterers []Scatterer) bool {
	c := p.cfg
	n := c.Samples
	re, im := buf.lanes(n)
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

// synthTones32 is synthTones on the float32 kernel lane: the phasor
// recurrence and the per-channel rotation still run in float64, but the tone
// lane is stored once at float32 — halving the lane traffic every channel
// pass re-reads. Each sample's tone is the f64 value rounded once (relative
// error <= 2^-24), far below both the quantizer step at <= 14 bits and the
// thermal noise floor; the equivalence suite bounds the end-to-end
// divergence below half a quantizer cell.
func (p *SynthPlan) synthTones32(f Frame, buf *chanBuf, scatterers []Scatterer) bool {
	c := p.cfg
	n := c.Samples
	re, im := buf.lanes32(n)
	wrote := false
	for _, sc := range scatterers {
		if sc.Amplitude <= 0 || sc.Range <= 0 {
			continue
		}
		fb := p.beatK*sc.Range + p.dopK*sc.RadialVelocity
		base := p.phaseK*sc.Range + sc.Phase
		sinAz := math.Sin(sc.Azimuth)
		ds, dc := math.Sincos(p.stepK * fb)
		rs, rc := math.Sincos(-p.rxK * sinAz)
		s0, c0 := math.Sincos(-base)
		dsp.ToneFill32(re, im, sc.Amplitude*c0, sc.Amplitude*s0, dc, ds)
		aRe, aIm := rc, rs
		if !wrote {
			wrote = true
			dsp.StoreTone32(f.Data[:n], re, im)
			for k := 1; k < c.NumRx; k++ {
				dsp.StoreRotated32(f.Data[k*n:(k+1)*n], re, im, aRe, aIm)
				aRe, aIm = aRe*rc-aIm*rs, aRe*rs+aIm*rc
			}
			continue
		}
		dsp.AccumulateTone32(f.Data[:n], re, im)
		for k := 1; k < c.NumRx; k++ {
			dsp.AccumulateRotated32(f.Data[k*n:(k+1)*n], re, im, aRe, aIm)
			aRe, aIm = aRe*rc-aIm*rs, aRe*rs+aIm*rc
		}
	}
	return wrote
}

// Synthesize generates a baseband frame per Eq 2 through a fresh plan; see
// SynthPlan.Synthesize and SynthPlan.synthesizeRand.
func (c Config) Synthesize(scatterers []Scatterer, rng *rand.Rand) Frame {
	return c.NewSynthPlan().synthesizeRand(scatterers, rng)
}

// synthesizeRand is Synthesize with the noise stream seeded from the rng: a
// nil rng yields a noiseless frame; a non-nil rng seeds one pooled Gauss
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
// the full scale tracks the given peak I/Q excursion (plus headroom), as a
// real front end's gain control would. The peak comes from the synthesis
// pass, which already touches every sample.
func (p *SynthPlan) quantize(f Frame, peak float64) {
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
