package radar

import (
	"fmt"
	"math"

	"ros/internal/dsp"
	"ros/internal/obs"
)

// Every point-cloud scan walks the whole profile, so the incremental
// counter stays at zero. Both stay registered because the benchmark's
// per-layer radar.scan_incremental_ratio reads them; they go when that
// metric is retired.
var (
	mScanFull = obs.Default.Counter("ros_radar_scan_full_total",
		"Point-cloud scans; every scan walks every range bin.")
	_ = obs.Default.Counter("ros_radar_scan_incremental_total",
		"Always zero: the incremental point-cloud scan was removed.")
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

// RangeProfile applies the range transform of Eq 3 to a frame: an inverse
// FFT over fast time per channel, Hann-windowed against range sidelobes (a
// -2 dBsm street lamp would otherwise smear -13 dB rectangular sidelobes
// across the whole profile) and normalized by the window's coherent gain
// and the sample count so bin magnitudes are calibrated amplitudes. (The
// beat phase decreases with time — see Synthesize — so the range peak
// appears in the inverse FFT, exactly as Eq 3 writes it.)
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
	buf := acquireBuf(c.NumRx, c.Samples, false)
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
// read-only.
func (p *SynthPlan) ScanAngles() []float64 { return p.steer.angles }

// AoASpectrumInto evaluates Eq 4 at one range bin: conventional beamforming
// across the Rx array over the plan's scan grid (ScanAngles), writing the
// beamformed power (watts) per angle into dst, which must have one slot per
// grid angle. The captured steering kernels make the loop trig-free: the
// bin is gathered across channels once, then each angle costs one
// NumRx-length complex dot product.
func (p *SynthPlan) AoASpectrumInto(dst []float64, rp RangeProfile, bin int) {
	c, tab := &p.cfg, p.steer
	if bin < 0 || bin >= len(rp.Bins[0]) {
		panic(fmt.Sprintf("radar: AoA at bin %d of %d", bin, len(rp.Bins[0])))
	}
	if len(dst) != len(tab.angles) {
		panic(fmt.Sprintf("radar: AoA dst has %d slots for %d angles", len(dst), len(tab.angles)))
	}
	var vbuf [16]complex128
	v := vbuf[:0]
	if c.NumRx > len(vbuf) {
		v = make([]complex128, 0, c.NumRx)
	}
	for k := 0; k < c.NumRx; k++ {
		v = append(v, rp.Bins[k][bin])
	}
	inv := complex(1/float64(c.NumRx), 0)
	for a := range dst {
		w := tab.weights[a*tab.numRx : (a+1)*tab.numRx]
		var sum complex128
		for k, x := range v {
			sum += x * w[k]
		}
		sum *= inv
		dst[a] = real(sum)*real(sum) + imag(sum)*imag(sum)
	}
}

// SteerPower is the fast single-angle beamformer of the spotlight pass
// (Sec 6): the beamformed received power (watts) of one range bin's
// per-channel values v (length NumRx: a kept profile column, Columns.At,
// or a SynthPlan.BinSpectrum vector) at one azimuth. It costs one Sincos
// for the element-to-element phase rotation; the steering weights follow
// by complex recurrence.
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

// Detection is one point in the radar point cloud.
type Detection struct {
	// Range in meters.
	Range float64
	// Azimuth in radians from boresight.
	Azimuth float64
	// Power is the beamformed received power in watts.
	Power float64
}

// Point-cloud extraction constants (the standard flow of Sec 3.2).
const (
	// detectThresholdDB is the detection threshold above the median
	// noise floor.
	detectThresholdDB = 12
	// maxPeaksPerBin caps the number of angular peaks kept per range bin.
	maxPeaksPerBin = 2
	// minRangeBins drops the DC/leakage region below this many range bins.
	minRangeBins = 4
)

// detectThreshold is detectThresholdDB as a linear power ratio, converted
// once rather than once per frame.
var detectThreshold = dsp.FromDB(detectThresholdDB)

// PointCloudScan extracts detections from an already-computed range profile
// against the plan's captured steering table. Each frame is scanned on its
// own: the channel-summed power's median sets the noise floor, and every
// bin in 1..n-2 past the leakage region that clears the threshold as a
// local maximum gets an AoA scan.
//
// With keep (at most one, from a ColumnStore), the scan also copies into
// it every column a steered beam can lift to the store's floor (see
// Columns), so the caller can release the profile as soon as the scan
// returns.
func (p *SynthPlan) PointCloudScan(rp RangeProfile, keep ...*Columns) []Detection {
	minRange := minRangeBins * p.cfg.RangeBinSize()
	n := len(rp.Bins[0])

	// Non-coherent channel-summed power per range bin. The power sum and
	// the median scratch are stack lanes (laneScratch), so the per-frame
	// detection pass allocates nothing and the profile carries no scratch.
	var stack [2 * stackLanes]float64
	power, scratch := laneScratch(stack[:], n)
	last := len(rp.Bins) - 1
	for ci, ch := range rp.Bins {
		switch {
		case ci == last && len(keep) > 0:
			keep[0].keep(rp, power)
		case ci == 0:
			for i, v := range ch {
				power[i] = real(v)*real(v) + imag(v)*imag(v)
			}
		default:
			for i, v := range ch {
				power[i] += real(v)*real(v) + imag(v)*imag(v)
			}
		}
	}
	copy(scratch, power)
	noise := dsp.MedianInPlace(scratch)
	if noise <= 0 {
		noise = 1e-30
	}
	thresh := noise * detectThreshold

	angles := p.steer.angles
	// The median scratch is free again; it holds the AoA spectrum when the
	// scan grid fits (it does for every config with Samples >= 121 bins).
	var spec []float64
	if len(angles) <= len(scratch) {
		spec = scratch[:len(angles)]
	} else {
		spec = make([]float64, len(angles))
	}
	mScanFull.Inc()
	var out []Detection
	for i := 1; i < n-1; i++ {
		if power[i] < thresh || power[i] < power[i-1] || power[i] <= power[i+1] {
			continue
		}
		r := float64(i) * rp.BinSize
		if r < minRange {
			continue
		}
		p.AoASpectrumInto(spec, rp, i)
		// Gate at 20 percent of the strongest response so the 4-element
		// array's -11 dB sidelobes do not spawn ghost points.
		maxSpec, _ := dsp.Max(spec)
		minHeight := math.Max(dsp.Mean(spec), 0.2*maxSpec)
		peaks := dsp.FindPeaks(spec, minHeight, 3)
		if len(peaks) > maxPeaksPerBin {
			peaks = peaks[:maxPeaksPerBin]
		}
		for _, pk := range peaks {
			az := angles[0] + pk.Pos*(angles[1]-angles[0])
			out = append(out, Detection{Range: r, Azimuth: az, Power: pk.Value})
		}
	}
	return out
}
