package radar

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"ros/internal/dsp"
)

// TestPointCloudScanKeepsColumns: with a Columns to fill, the scan returns
// the same detections and keeps exactly the bins whose steering bound
// reaches NumRx times the floor, each with its profile column bit for bit.
// The bound drops some bins whose channel-summed power alone reaches the
// floor, and keeps none below it. Four channels take the scan's unrolled
// bound, three its general one.
func TestPointCloudScanKeepsColumns(t *testing.T) {
	for _, nr := range []int{4, 3} {
		t.Run(fmt.Sprintf("%drx", nr), func(t *testing.T) { testKeepsColumns(t, nr) })
	}
}

func testKeepsColumns(t *testing.T, nr int) {
	c := TI1443()
	c.NumRx = nr
	plan := c.NewSynthPlan()
	f := plan.Synthesize([]Scatterer{
		{Range: 5, Azimuth: 0.1, Amplitude: 3e-5},
		{Range: 9.5, Azimuth: -0.3, Amplitude: 1.2e-5},
	}, dsp.AcquireGauss(3))
	rp := plan.RangeProfile(f)
	ReleaseFrame(f)
	defer ReleaseProfile(rp)

	floor := 6 * c.NoisePerBin()
	const frames = 40 // enough frames to fill more than one block
	s := NewColumnStore(frames, c.NumRx, c.Samples, floor)
	defer s.Release()
	want := plan.PointCloudScan(rp)
	for i := 0; i < frames; i++ {
		got := plan.PointCloudScan(rp, s.Frame(i))
		if len(got) != len(want) {
			t.Fatalf("frame %d: keeping scan found %d detections, plain scan %d", i, len(got), len(want))
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("frame %d detection %d: %+v, plain scan %+v", i, k, got[k], want[k])
			}
		}
	}
	if len(s.blocks) < 2 {
		t.Fatalf("%d frames used %d blocks, want a second block exercised", frames, len(s.blocks))
	}
	reach := float64(c.NumRx) * floor
	for i := 0; i < frames; i++ {
		cols := s.Frame(i)
		kept, powerOnly := 0, 0
		for bin := 0; bin < c.Samples; bin++ {
			col := make([]complex128, len(rp.Bins))
			var p float64
			for k, ch := range rp.Bins {
				v := ch[bin]
				col[k] = v
				p += real(v)*real(v) + imag(v)*imag(v)
			}
			r := steerBound(col, p)
			if p >= floor {
				powerOnly++
			}
			got := cols.At(bin)
			if (p >= floor && r >= reach) != (got != nil) {
				t.Fatalf("frame %d bin %d: power %g vs floor %g, bound %g vs %g, kept %v",
					i, bin, p, floor, r, reach, got != nil)
			}
			if got == nil {
				continue
			}
			kept++
			for k := range col {
				if got[k] != col[k] {
					t.Fatalf("frame %d bin %d channel %d: kept %v, profile %v", i, bin, k, got[k], col[k])
				}
			}
		}
		if kept != cols.Kept() || kept == 0 || kept >= powerOnly {
			t.Fatalf("frame %d: kept %d bins (Kept() = %d), %d of %d reach the floor on power alone",
				i, kept, cols.Kept(), powerOnly, c.Samples)
		}
	}
}

// TestSteerBoundCoversEverySteering: for 1 to 8 channels and columns of
// noise, one plane wave, two waves and energy in one channel, the steering
// bound over NumRx^2 is at least the steered power at every scan angle and
// at 10k random azimuths, up to a relative 1e-12 of rounding (the keep
// rule's floor sits 1% under the gate). It is at most NumRx times the
// column's power, and for one plane wave it equals the power steered at
// the wave's own azimuth.
func TestSteerBoundCoversEverySteering(t *testing.T) {
	const tol = 1e-12
	rng := rand.New(rand.NewSource(7))
	azimuths := make([]float64, 10000)
	for i := range azimuths {
		azimuths[i] = (rng.Float64() - 0.5) * math.Pi
	}
	for n := 1; n <= 8; n++ {
		c := TI1443()
		c.NumRx = n
		angles := c.NewSynthPlan().ScanAngles()
		// wave returns the column a plane wave from az of amplitude a makes:
		// the conjugate of SteerPower's weights, so SteerPower at az is |a|^2.
		wave := func(az float64, a complex128) []complex128 {
			w := 2 * math.Pi * c.RxSpacing * math.Sin(az) / c.Wavelength()
			x := make([]complex128, n)
			for k := range x {
				x[k] = a * cmplx.Exp(complex(0, -float64(k)*w))
			}
			return x
		}
		randC := func() complex128 { return complex(rng.NormFloat64(), rng.NormFloat64()) }
		type column struct {
			kind string
			x    []complex128
			peak float64 // azimuth the bound must equal the steered power at, or NaN
		}
		var cases []column
		for trial := 0; trial < 10; trial++ {
			noise := make([]complex128, n)
			for k := range noise {
				noise[k] = randC()
			}
			cases = append(cases, column{"noise", noise, math.NaN()})

			az := azimuths[trial]
			cases = append(cases, column{"plane wave", wave(az, randC()), az})

			two := wave(azimuths[100+trial], randC())
			for k, v := range wave(azimuths[200+trial], 0.7*randC()) {
				two[k] += v
			}
			cases = append(cases, column{"two waves", two, math.NaN()})

			one := make([]complex128, n)
			one[trial%n] = randC()
			cases = append(cases, column{"one channel", one, math.NaN()})
		}
		for _, tc := range cases {
			var p float64
			for _, v := range tc.x {
				p += real(v)*real(v) + imag(v)*imag(v)
			}
			bound := steerBound(tc.x, p) / float64(n*n)
			if bound > p/float64(n)*(1+tol) {
				t.Fatalf("%d channels, %s: bound %g over NumRx times the power %g", n, tc.kind, bound, p/float64(n))
			}
			for _, set := range [][]float64{angles, azimuths} {
				for _, az := range set {
					if sp := c.SteerPower(tc.x, az); sp > bound*(1+tol) {
						t.Fatalf("%d channels, %s, azimuth %.4f: steers to %g over the bound %g", n, tc.kind, az, sp, bound)
					}
				}
			}
			if !math.IsNaN(tc.peak) {
				if sp := c.SteerPower(tc.x, tc.peak); math.Abs(bound-sp) > tol*sp {
					t.Fatalf("%d channels, plane wave: bound %g, peak steered power %g", n, bound, sp)
				}
			}
		}
	}
}

// TestKeepBinsGathersNamedColumns: KeepBins keeps exactly the bins it is
// given, in any order and with repeats, each with its profile column bit
// for bit, and At reads nil everywhere else.
func TestKeepBinsGathersNamedColumns(t *testing.T) {
	c := TI1443()
	plan := c.NewSynthPlan()
	f := plan.Synthesize([]Scatterer{{Range: 4, Azimuth: 0.2, Amplitude: 1e-5}}, dsp.AcquireGauss(2))
	rp := plan.RangeProfile(f)
	ReleaseFrame(f)
	defer ReleaseProfile(rp)
	s := NewColumnStore(1, c.NumRx, c.Samples, 0)
	defer s.Release()
	cols := s.Frame(0)
	bins := []int{200, 3, 64, 3, c.Samples - 1, 0, 63}
	cols.KeepBins(rp, bins)
	named := map[int]bool{}
	for _, b := range bins {
		named[b] = true
	}
	for bin := 0; bin < c.Samples; bin++ {
		col := cols.At(bin)
		if !named[bin] {
			if col != nil {
				t.Fatalf("bin %d kept without being named", bin)
			}
			continue
		}
		if col == nil {
			t.Fatalf("named bin %d not kept", bin)
		}
		for k, ch := range rp.Bins {
			if col[k] != ch[bin] {
				t.Fatalf("bin %d channel %d: kept %v, profile %v", bin, k, col[k], ch[bin])
			}
		}
	}
	if cols.Kept() != len(named) {
		t.Fatalf("Kept() = %d, want %d", cols.Kept(), len(named))
	}
}

// TestColumnStoreReuseAllocFree: a released store comes back from the pool
// with its storage, so a read of the same shape fills its columns without
// allocating.
func TestColumnStoreReuseAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	c := TI1443()
	plan := c.NewSynthPlan()
	f := plan.Synthesize([]Scatterer{{Range: 5, Azimuth: 0.1, Amplitude: 3e-5}}, dsp.AcquireGauss(5))
	rp := plan.RangeProfile(f)
	ReleaseFrame(f)
	defer ReleaseProfile(rp)
	read := func() {
		s := NewColumnStore(64, c.NumRx, c.Samples, 4*c.NoisePerBin())
		for i := 0; i < 64; i++ {
			plan.PointCloudScan(rp, s.Frame(i))
		}
		s.Release()
	}
	read() // grow the store to the read's size
	if allocs := testing.AllocsPerRun(20, read); allocs != 0 {
		t.Fatalf("a pooled same-shape read allocated %v times, want 0", allocs)
	}
}
