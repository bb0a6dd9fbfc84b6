package radar

import (
	"math"
	"reflect"
	"testing"

	"ros/internal/dsp"
)

// scanStreamFrame synthesizes frame t of a deterministic drive-by-like
// stream: a strong target migrating slowly through range plus weak clutter,
// with per-frame noise — the regime the incremental scan is built for.
func scanStreamFrame(t *testing.T, c Config, plan *SynthPlan, idx int, dropTarget bool) RangeProfile {
	t.Helper()
	sc := []Scatterer{
		{Range: 5 + 0.002*float64(idx), Azimuth: 0.1, Amplitude: 3e-5},
		{Range: 9.5 - 0.001*float64(idx), Azimuth: -0.3, Amplitude: 1.2e-5},
		{Range: 14, Azimuth: 0.4, Amplitude: 6e-6},
	}
	if dropTarget {
		sc = sc[2:]
	}
	g := dsp.NewGauss(int64(1000 + idx))
	f := plan.Synthesize(sc, g)
	rp := plan.RangeProfile(f)
	ReleaseFrame(f)
	return rp
}

// TestPointCloudScanMatchesFullScan pins the incremental scan to the full
// scan byte for byte over a correlated frame stream, including pop-in and
// pop-out transients that defeat the hint set, and checks the hint
// restriction actually engaged (the equality would otherwise be vacuous).
func TestPointCloudScanMatchesFullScan(t *testing.T) {
	c := TI1443()
	plan := c.NewSynthPlan()
	var opts DetectOptions
	var st ScanState
	incBefore := mScanIncremental.Value()
	fullBefore := mScanFull.Value()
	for idx := 0; idx < 80; idx++ {
		// Frames 40-44 drop the strong targets entirely (pop-out), frame 45
		// brings them back at a jumped range (pop-in outside any guard band).
		drop := idx >= 40 && idx < 45
		rp := scanStreamFrame(t, c, plan, idx, drop)
		want := plan.PointCloudScan(rp, opts, nil)
		got := plan.PointCloudScan(rp, opts, &st)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d (drop=%v): incremental %v != full %v", idx, drop, got, want)
		}
		ReleaseProfile(rp)
	}
	if inc := mScanIncremental.Value() - incBefore; inc < 40 {
		t.Errorf("only %d of 80 frames took the incremental path — hint set never engaged", inc)
	}
	if full := mScanFull.Value() - fullBefore; full < 81 {
		// 80 full-scan references + at least the cold-start stateful scan.
		t.Errorf("full-scan counter moved by %d, want >= 81", full)
	}
}

// TestPointCloudScanRefreshInterval checks the periodic full rescan: a
// stationary scene takes the incremental path except every
// scanRefreshInterval-th frame.
func TestPointCloudScanRefreshInterval(t *testing.T) {
	c := TI1443()
	plan := c.NewSynthPlan()
	var st ScanState
	incBefore := mScanIncremental.Value()
	fullBefore := mScanFull.Value()
	// Full scans land at frame 0 (cold) and then every
	// scanRefreshInterval+1 frames (the refresh itself resets the counter).
	const frames = 2*(scanRefreshInterval+1) + 1
	for idx := 0; idx < frames; idx++ {
		rp := scanStreamFrame(t, c, plan, 0, false) // identical frame each time
		plan.PointCloudScan(rp, DetectOptions{}, &st)
		ReleaseProfile(rp)
	}
	full := mScanFull.Value() - fullBefore
	inc := mScanIncremental.Value() - incBefore
	if want := int64(3); full != want { // cold start + two refreshes
		t.Errorf("full scans = %d, want %d (cold start + refreshes)", full, want)
	}
	if full+inc != frames {
		t.Errorf("full %d + incremental %d != %d frames", full, inc, frames)
	}
}

// TestPointCloudScanResetForcesFullScan checks Reset's contract: the frame
// after a Reset never trusts the hints, exactly as a pipeline recovering
// from a dropped frame requires.
func TestPointCloudScanResetForcesFullScan(t *testing.T) {
	c := TI1443()
	plan := c.NewSynthPlan()
	var st ScanState
	rp := scanStreamFrame(t, c, plan, 0, false)
	defer ReleaseProfile(rp)
	plan.PointCloudScan(rp, DetectOptions{}, &st) // warm the state
	incBefore := mScanIncremental.Value()
	plan.PointCloudScan(rp, DetectOptions{}, &st)
	if mScanIncremental.Value() != incBefore+1 {
		t.Fatal("warm state did not take the incremental path")
	}
	st.Reset()
	fullBefore := mScanFull.Value()
	plan.PointCloudScan(rp, DetectOptions{}, &st)
	if mScanFull.Value() != fullBefore+1 {
		t.Error("scan after Reset did not take the full path")
	}
	// And the state re-warms afterwards.
	incBefore = mScanIncremental.Value()
	plan.PointCloudScan(rp, DetectOptions{}, &st)
	if mScanIncremental.Value() != incBefore+1 {
		t.Error("state did not re-warm after the post-Reset full scan")
	}
}

// TestPointCloudScanOptionsForceFull checks the two opt-outs: CFAR mode
// (whose local thresholds the hint machinery cannot describe) and
// DisableIncremental both keep every scan full, state or no state.
func TestPointCloudScanOptionsForceFull(t *testing.T) {
	c := TI1443()
	plan := c.NewSynthPlan()
	rp := scanStreamFrame(t, c, plan, 0, false)
	defer ReleaseProfile(rp)
	var st ScanState
	incBefore := mScanIncremental.Value()
	for i := 0; i < 3; i++ {
		want := plan.PointCloudScan(rp, DetectOptions{UseCFAR: true}, nil)
		got := plan.PointCloudScan(rp, DetectOptions{UseCFAR: true}, &st)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("CFAR pass %d: %v != %v", i, got, want)
		}
	}
	var st2 ScanState
	for i := 0; i < 3; i++ {
		want := plan.PointCloudScan(rp, DetectOptions{}, nil)
		got := plan.PointCloudScan(rp, DetectOptions{DisableIncremental: true}, &st2)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("DisableIncremental pass %d: %v != %v", i, got, want)
		}
	}
	if mScanIncremental.Value() != incBefore {
		t.Error("an opted-out scan took the incremental path")
	}
}

// TestPointCloudScanRandomProfiles hammers the equality on uncorrelated
// random profiles — the adversarial case where hints are always wrong and
// the coverage check must catch every one.
func TestPointCloudScanRandomProfiles(t *testing.T) {
	c := TI1443()
	plan := c.NewSynthPlan()
	var st ScanState
	for trial := 0; trial < 60; trial++ {
		g := dsp.NewGauss(int64(7 + trial))
		sc := make([]Scatterer, 1+trial%5)
		for i := range sc {
			sc[i] = Scatterer{
				Range:     1 + math.Mod(float64(trial*13+i*29), 17),
				Azimuth:   math.Mod(float64(trial*7+i*3), 1.0) - 0.5,
				Amplitude: 2e-5 * math.Mod(float64(trial+i)*0.37, 1.0),
			}
		}
		f := plan.Synthesize(sc, g)
		rp := plan.RangeProfile(f)
		ReleaseFrame(f)
		want := plan.PointCloudScan(rp, DetectOptions{}, nil)
		got := plan.PointCloudScan(rp, DetectOptions{}, &st)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: incremental %v != full %v", trial, got, want)
		}
		ReleaseProfile(rp)
	}
}

func BenchmarkPointCloudIncremental(b *testing.B) {
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
	var st ScanState
	plan.PointCloudScan(rp, DetectOptions{}, &st) // warm
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan.PointCloudScan(rp, DetectOptions{}, &st)
	}
}

func BenchmarkPointCloudFull(b *testing.B) {
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
		plan.PointCloudScan(rp, DetectOptions{}, nil)
	}
}
