package radar

import (
	"testing"

	"ros/internal/dsp"
)

// TestPointCloudScanAllocFree pins the detection pass's allocation
// contract: on a pooled profile the power sum, the median scratch and the
// AoA spectrum all live in the profile's idle lanes, so a frame with no
// detections allocates nothing.
func TestPointCloudScanAllocFree(t *testing.T) {
	plan := TI1443().NewSynthPlan()
	f := plan.Synthesize(nil, dsp.NewGauss(5))
	rp := plan.RangeProfile(f)
	ReleaseFrame(f)
	defer ReleaseProfile(rp)
	if rp.buf == nil {
		t.Fatal("range profile is not pooled")
	}
	if dets := plan.PointCloudScan(rp, DetectOptions{}); len(dets) != 0 {
		t.Fatalf("noise-only profile produced %d detections", len(dets))
	}
	if allocs := testing.AllocsPerRun(100, func() {
		plan.PointCloudScan(rp, DetectOptions{})
	}); allocs != 0 {
		t.Errorf("PointCloudScan allocated %v times per run, want 0", allocs)
	}
}

func BenchmarkPointCloudScan(b *testing.B) {
	c := TI1443()
	plan := c.NewSynthPlan()
	g := dsp.NewGauss(3)
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
		plan.PointCloudScan(rp, DetectOptions{})
	}
}
