package radar

import (
	"testing"

	"ros/internal/dsp"
)

// TestPointCloudScanAllocFree pins the detection pass's allocation
// contract: the power sum, the median scratch and the AoA spectrum all live
// in stack lanes, so a frame with no detections allocates nothing.
func TestPointCloudScanAllocFree(t *testing.T) {
	plan := TI1443().NewSynthPlan()
	f := plan.Synthesize(nil, dsp.AcquireGauss(5))
	rp := plan.RangeProfile(f)
	ReleaseFrame(f)
	defer ReleaseProfile(rp)
	if rp.buf == nil {
		t.Fatal("range profile is not pooled")
	}
	if dets := plan.PointCloudScan(rp); len(dets) != 0 {
		t.Fatalf("noise-only profile produced %d detections", len(dets))
	}
	if allocs := testing.AllocsPerRun(100, func() {
		plan.PointCloudScan(rp)
	}); allocs != 0 {
		t.Errorf("PointCloudScan allocated %v times per run, want 0", allocs)
	}
}

func BenchmarkPointCloudScan(b *testing.B) {
	c := TI1443()
	plan := c.NewSynthPlan()
	g := dsp.AcquireGauss(3)
	f := plan.Synthesize([]Scatterer{
		{Range: 5, Azimuth: 0.1, Amplitude: 3e-5},
		{Range: 9.5, Azimuth: -0.3, Amplitude: 1.2e-5},
	}, g)
	rp := plan.RangeProfile(f)
	ReleaseFrame(f)
	defer ReleaseProfile(rp)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan.PointCloudScan(rp)
	}
}

// BenchmarkPointCloudScanKeep is the scan as pass 1 runs it: keeping
// columns into a read's store at the spotlight's floor (7.425 noise powers
// per bin: detect.columnFloor for the TI1443). It cycles through 32 frames
// of the same two scatterers under different noise, so the branch
// predictor cannot learn which bins are kept. A store holds 64 frames and
// is then released, as a read's is.
func BenchmarkPointCloudScanKeep(b *testing.B) {
	c := TI1443()
	plan := c.NewSynthPlan()
	profiles := make([]RangeProfile, 32)
	for i := range profiles {
		f := plan.Synthesize([]Scatterer{
			{Range: 5, Azimuth: 0.1, Amplitude: 3e-5},
			{Range: 9.5, Azimuth: -0.3, Amplitude: 1.2e-5},
		}, dsp.AcquireGauss(int64(i+3)))
		profiles[i] = plan.RangeProfile(f)
		ReleaseFrame(f)
		defer ReleaseProfile(profiles[i])
	}
	const frames = 64
	floor := 7.425 * c.NoisePerBin()
	s := NewColumnStore(frames, c.NumRx, c.Samples, floor)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%frames == 0 && i > 0 {
			s.Release()
			s = NewColumnStore(frames, c.NumRx, c.Samples, floor)
		}
		plan.PointCloudScan(profiles[i%len(profiles)], s.Frame(i%frames))
	}
	b.StopTimer()
	s.Release()
}
