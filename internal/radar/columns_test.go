package radar

import (
	"testing"

	"ros/internal/dsp"
)

// TestPointCloudScanKeepsColumns: with a Columns to fill, the scan returns
// the same detections and keeps exactly the bins whose channel-summed power
// reaches the floor, each with its profile column bit for bit.
func TestPointCloudScanKeepsColumns(t *testing.T) {
	c := TI1443()
	plan := c.NewSynthPlan()
	f := plan.Synthesize([]Scatterer{
		{Range: 5, Azimuth: 0.1, Amplitude: 3e-5},
		{Range: 9.5, Azimuth: -0.3, Amplitude: 1.2e-5},
	}, dsp.NewGauss(3))
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
	for i := 0; i < frames; i++ {
		cols := s.Frame(i)
		kept := 0
		for bin := 0; bin < c.Samples; bin++ {
			var p float64
			for _, ch := range rp.Bins {
				v := ch[bin]
				p += real(v)*real(v) + imag(v)*imag(v)
			}
			col := cols.At(bin)
			if (p >= floor) != (col != nil) {
				t.Fatalf("frame %d bin %d: power %g vs floor %g, kept %v", i, bin, p, floor, col != nil)
			}
			if col == nil {
				continue
			}
			kept++
			for k, ch := range rp.Bins {
				if col[k] != ch[bin] {
					t.Fatalf("frame %d bin %d channel %d: kept %v, profile %v", i, bin, k, col[k], ch[bin])
				}
			}
		}
		if kept != cols.Kept() || kept == 0 || kept == c.Samples {
			t.Fatalf("frame %d: kept %d bins, Kept() = %d of %d", i, kept, cols.Kept(), c.Samples)
		}
	}
}

// TestKeepBinsGathersNamedColumns: KeepBins keeps exactly the bins it is
// given, in any order and with repeats, each with its profile column bit
// for bit, and At reads nil everywhere else.
func TestKeepBinsGathersNamedColumns(t *testing.T) {
	c := TI1443()
	plan := c.NewSynthPlan()
	f := plan.Synthesize([]Scatterer{{Range: 4, Azimuth: 0.2, Amplitude: 1e-5}}, dsp.NewGauss(2))
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
	f := plan.Synthesize([]Scatterer{{Range: 5, Azimuth: 0.1, Amplitude: 3e-5}}, dsp.NewGauss(5))
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
