package radar

import (
	"fmt"
	"math"
	"math/cmplx"

	"ros/internal/dsp"
)

// RangeProfile is the per-channel range response of one frame (Eq 3).
type RangeProfile struct {
	// Bins is indexed [rx][rangeBin]; magnitudes are normalized so a point
	// scatterer's peak equals its Scatterer.Amplitude. The channel slices
	// are views over one contiguous buffer.
	Bins [][]complex128
	// BinSize is the range per bin in meters.
	BinSize float64

	// buf is the pooled backing store, nil for hand-built profiles.
	buf *chanBuf
}

// RangeProfile applies the range transform of Eq 3 to a frame through a
// fresh plan; see SynthPlan.RangeProfile.
func (c Config) RangeProfile(f Frame) RangeProfile {
	return c.NewSynthPlan().RangeProfile(f)
}

// RangeProfile applies the range transform of Eq 3 to a frame: an IFFT over
// fast time per channel, Hann-windowed against range sidelobes (a -2 dBsm
// street lamp would otherwise smear -13 dB rectangular sidelobes across the
// whole profile) and normalized by the window's coherent gain and the
// sample count so bin magnitudes are calibrated amplitudes. (The beat phase
// decreases with time — see Synthesize — so the range peak appears in the
// IFFT, exactly as Eq 3 writes it.)
//
// All channels are transformed in one batched call of the plan's fused
// window+FFT kernel (dsp.Plan.InverseMany) straight from the frame's
// contiguous buffer into the pooled profile buffer: no window pass, no
// scale pass, no per-call allocation in steady state.
func (p *SynthPlan) RangeProfile(f Frame) RangeProfile {
	c := p.cfg
	if f.NumRx != c.NumRx || len(f.Data) != c.NumRx*c.Samples {
		panic(fmt.Sprintf("radar: frame has %dx%d samples, config wants %dx%d",
			f.NumRx, f.Samples, c.NumRx, c.Samples))
	}
	if f.Samples != c.Samples {
		panic(fmt.Sprintf("radar: frame channels hold %d samples, config %d", f.Samples, c.Samples))
	}
	buf := p.pool.acquire(c.NumRx, c.Samples, false)
	p.rangePlan.InverseMany(buf.flat, f.Data, c.NumRx, c.Samples)
	return RangeProfile{Bins: buf.views, BinSize: c.RangeBinSize(), buf: buf}
}

// BinForRange returns the range bin index closest to r meters.
func (c Config) BinForRange(r float64) int {
	b := int(math.Round(r / c.RangeBinSize()))
	if b < 0 {
		b = 0
	}
	if b >= c.Samples {
		b = c.Samples - 1
	}
	return b
}

// ScanAngles returns the plan's AoA scan grid: +/-60 deg (the radar antenna
// FoV, Sec 7.3) in 1-degree steps. The slice is shared and must be treated as
// read-only; passing it to AoASpectrumInto selects the precomputed-kernel
// fast path.
func (p *SynthPlan) ScanAngles() []float64 { return p.steer.angles }

// AoASpectrumInto evaluates Eq 4 at one range bin: conventional beamforming
// across the Rx array over the given steering angles (radians from
// boresight), writing the beamformed power (watts) per angle into dst, which
// must have length len(angles). When angles is the plan's scan grid
// (ScanAngles) the captured steering kernels are used and the loop runs no
// trig at all.
func (p *SynthPlan) AoASpectrumInto(dst []float64, rp RangeProfile, bin int, angles []float64) {
	c, tab := &p.cfg, p.steer
	if bin < 0 || bin >= len(rp.Bins[0]) {
		panic(fmt.Sprintf("radar: AoA at bin %d of %d", bin, len(rp.Bins[0])))
	}
	if len(dst) != len(angles) {
		panic(fmt.Sprintf("radar: AoA dst has %d slots for %d angles", len(dst), len(angles)))
	}
	if len(angles) > 0 && len(angles) == len(tab.angles) && &angles[0] == &tab.angles[0] {
		// Cached-kernel path: gather the bin across channels once, then one
		// NumRx-length complex dot product per angle.
		var vbuf [16]complex128
		v := vbuf[:0]
		if c.NumRx > len(vbuf) {
			v = make([]complex128, 0, c.NumRx)
		}
		for k := 0; k < c.NumRx; k++ {
			v = append(v, rp.Bins[k][bin])
		}
		inv := complex(1/float64(c.NumRx), 0)
		for a := range angles {
			w := tab.weights[a*tab.numRx : (a+1)*tab.numRx]
			var sum complex128
			for k, x := range v {
				sum += x * w[k]
			}
			sum *= inv
			dst[a] = real(sum)*real(sum) + imag(sum)*imag(sum)
		}
		return
	}
	for i, th := range angles {
		dst[i] = c.beamPowerAt(rp, bin, th)
	}
}

// BeamPower is the fast single-angle beamformer used by the spotlight pass
// (Sec 6): the beamformed received power (watts) at one range bin and
// azimuth. It costs one Sincos for the element-to-element phase rotation;
// the steering weights follow by complex recurrence.
func (c Config) BeamPower(rp RangeProfile, bin int, azimuth float64) float64 {
	if bin < 0 || bin >= len(rp.Bins[0]) {
		panic(fmt.Sprintf("radar: AoA at bin %d of %d", bin, len(rp.Bins[0])))
	}
	return c.beamPowerAt(rp, bin, azimuth)
}

func (c Config) beamPowerAt(rp RangeProfile, bin int, th float64) float64 {
	var vbuf [16]complex128
	v := vbuf[:0]
	if c.NumRx > len(vbuf) {
		v = make([]complex128, 0, c.NumRx)
	}
	for k := 0; k < c.NumRx; k++ {
		v = append(v, rp.Bins[k][bin])
	}
	return c.SteerPower(v, th)
}

// SteerPower is BeamPower on one range bin's per-channel values v (length
// NumRx): a profile column, or a SynthPlan.BinSpectrum vector.
func (c Config) SteerPower(v []complex128, azimuth float64) float64 {
	w := 2 * math.Pi * c.RxSpacing * math.Sin(azimuth) / c.Wavelength()
	sin, cos := math.Sincos(w)
	rot := complex(cos, sin)
	steer := complex(1, 0)
	var sum complex128
	for _, x := range v[:c.NumRx] {
		sum += x * steer
		steer *= rot
	}
	sum /= complex(float64(c.NumRx), 0)
	return real(sum)*real(sum) + imag(sum)*imag(sum)
}

// BeamformRSS "spotlights" a known target (Sec 6): it steers the array to
// the given azimuth at the given range and returns the received power in
// watts.
func (c Config) BeamformRSS(f Frame, rangeM, azimuth float64) float64 {
	rp := c.RangeProfile(f)
	return c.BeamPower(rp, c.BinForRange(rangeM), azimuth)
}

// Detection is one point in the radar point cloud.
type Detection struct {
	// Range in meters.
	Range float64
	// Azimuth in radians from boresight.
	Azimuth float64
	// Power is the beamformed received power in watts.
	Power float64
}

// DetectOptions tunes point-cloud extraction.
type DetectOptions struct {
	// ThresholdDB is the detection threshold above the estimated noise
	// floor (default 12 dB).
	ThresholdDB float64
	// MaxPerBin caps the number of angular peaks kept per range bin
	// (default 2).
	MaxPerBin int
	// MinRange drops the DC/leakage region (default: 4 range bins).
	MinRange float64
	// UseCFAR replaces the global median threshold with cell-averaging
	// CFAR (see CFARDetect), which stays calibrated when clutter raises
	// the floor locally.
	UseCFAR bool
	// CFAR tunes the CFAR detector when UseCFAR is set.
	CFAR CFAROptions
	// DisableIncremental makes PointCloudScan ignore any supplied
	// ScanState and walk every bin each frame — the reference behavior the
	// incremental scan is pinned against.
	DisableIncremental bool
}

// PointCloud extracts detections from a frame through a fresh plan: per
// range bin, non-coherent power across channels against a median-based noise
// estimate, then an AoA scan for bins above threshold (the standard flow of
// Sec 3.2). See SynthPlan.PointCloudScan.
func (c Config) PointCloud(f Frame, opts DetectOptions) []Detection {
	p := c.NewSynthPlan()
	return p.PointCloudScan(p.RangeProfile(f), opts, nil)
}

// PointCloudScan extracts detections from an already-computed range profile
// against the plan's captured steering table, with frame-to-frame scan
// state: st seeds the noise-floor median with the previous frame's estimate
// and — when a coverage check proves it exact — restricts the candidate
// loop to the previous frame's above-threshold bins plus a guard band (see
// scan.go). The detections are byte-identical to the full scan for every
// state; st only changes how much work the scan does. A nil st (or
// opts.DisableIncremental, or opts.UseCFAR, whose local thresholds need
// every bin) always walks the full profile.
func (p *SynthPlan) PointCloudScan(rp RangeProfile, opts DetectOptions, st *ScanState) []Detection {
	c := p.cfg
	if opts.ThresholdDB == 0 {
		opts.ThresholdDB = 12
	}
	if opts.MaxPerBin == 0 {
		opts.MaxPerBin = 2
	}
	if opts.MinRange == 0 {
		opts.MinRange = 4 * c.RangeBinSize()
	}
	if opts.DisableIncremental {
		st = nil
	}
	n := len(rp.Bins[0])

	// Non-coherent channel-summed power per range bin. A pooled profile
	// carries two idle scratch lanes of exactly this length (the synthesis
	// kernel's tone lanes); borrowing them for the power sum and the median
	// scratch makes the per-frame detection pass allocation-free.
	var power, scratch []float64
	if rp.buf != nil {
		power, scratch = rp.buf.lanes(n)
	} else {
		flat := make([]float64, 2*n)
		power, scratch = flat[:n], flat[n:]
	}
	for ci, ch := range rp.Bins {
		if ci == 0 {
			for i, v := range ch {
				power[i] = real(v)*real(v) + imag(v)*imag(v)
			}
			continue
		}
		for i, v := range ch {
			power[i] += real(v)*real(v) + imag(v)*imag(v)
		}
	}
	// The median is rank-exact either way; a valid state seeds the
	// selection with the previous frame's floor, which partitions most of
	// the scratch away in one pass.
	copy(scratch, power)
	var noise float64
	if st != nil && st.valid {
		noise = dsp.PercentileInPlaceSeeded(scratch, 50, st.noise)
	} else {
		noise = dsp.MedianInPlace(scratch)
	}
	if noise <= 0 {
		noise = 1e-30
	}
	thresh := noise * dsp.FromDB(opts.ThresholdDB)
	var cfarHits []bool
	if opts.UseCFAR {
		cfar := opts.CFAR
		if cfar.ThresholdDB == 0 {
			cfar.ThresholdDB = opts.ThresholdDB
		}
		cfarHits = make([]bool, n)
		for _, idx := range CFARDetect(power, cfar) {
			cfarHits[idx] = true
		}
	}

	// Hint-restriction coverage check: the scan may skip unhinted bins only
	// when none of them clears this frame's threshold — then every possible
	// candidate (above threshold AND a local maximum) is hinted, and the
	// restricted loop provably emits the full scan's detections. A target
	// popping in outside the guard band, or a floor shift, fails the check
	// and takes the full loop.
	incremental := false
	if st != nil && !opts.UseCFAR && st.valid && len(st.active) == n && st.frames < scanRefreshInterval {
		maxOut := 0.0
		for i, pw := range power {
			if !st.active[i] && pw > maxOut {
				maxOut = pw
			}
		}
		incremental = maxOut < thresh
	}

	angles := p.steer.angles
	// The median scratch is free again; it holds the AoA spectrum when the
	// scan grid fits (it does for every config with Samples >= 121 bins).
	var spec []float64
	if len(angles) <= len(scratch) {
		spec = scratch[:len(angles)]
	} else {
		spec = make([]float64, len(angles))
	}
	var out []Detection
	scanBin := func(i int) {
		r := float64(i) * rp.BinSize
		if r < opts.MinRange {
			return
		}
		if opts.UseCFAR {
			if !cfarHits[i] {
				return
			}
		} else if power[i] < thresh || power[i] < power[i-1] || power[i] <= power[i+1] {
			return
		}
		p.AoASpectrumInto(spec, rp, i, angles)
		// Gate at 20 percent of the strongest response so the 4-element
		// array's -11 dB sidelobes do not spawn ghost points.
		maxSpec, _ := dsp.Max(spec)
		minHeight := math.Max(dsp.Mean(spec), 0.2*maxSpec)
		peaks := dsp.FindPeaks(spec, minHeight, 3)
		if len(peaks) > opts.MaxPerBin {
			peaks = peaks[:opts.MaxPerBin]
		}
		for _, pk := range peaks {
			az := angles[0] + pk.Pos*(angles[1]-angles[0])
			out = append(out, Detection{Range: r, Azimuth: az, Power: pk.Value})
		}
	}
	if incremental {
		mScanIncremental.Inc()
		for _, i := range st.hints {
			scanBin(i)
		}
	} else {
		mScanFull.Inc()
		for i := 1; i < n-1; i++ {
			scanBin(i)
		}
	}
	if st != nil {
		if opts.UseCFAR {
			// CFAR thresholds are local; the global-floor hint machinery
			// does not describe them. Leave the state cold.
			st.Reset()
		} else {
			st.update(n, power, thresh, noise, incremental)
		}
	}
	return out
}

// ChannelPower returns the total power in one channel of a frame (useful for
// diagnostics and tests).
func ChannelPower(f Frame, k int) float64 {
	sum := 0.0
	for _, v := range f.Channel(k) {
		sum += cmplx.Abs(v) * cmplx.Abs(v)
	}
	return sum
}
