package radar_test

import (
	"testing"

	"ros/internal/engine"
	"ros/internal/obs"
	"ros/internal/radar"
)

// The synthesis-plan cache is owned by engine.Engine (radar builds plans
// only through the uncached Config.NewSynthPlan). These tests pin, from the
// radar side, what that cache may and may not do to a plan: entries are
// pure memoization, so a reset drops them without changing what a plan
// computes.

// synthPlanGauge returns the radar_synth_plan entry count e reports in the
// default registry, and whether the label set is registered at all.
func synthPlanGauge(e *engine.Engine) (float64, bool) {
	for _, g := range obs.Default.Snapshot().Gauges {
		if g.Name == "ros_engine_cache_entries" && g.Labels["engine"] == e.ID() &&
			g.Labels["cache"] == engine.CacheSynthPlans {
			return g.Value, true
		}
	}
	return 0, false
}

// TestCacheGaugesAndReset pins the retention contract of the plan cache:
// a new cache reports 0 entries, first use of a config registers one, a
// repeat use adds none, Close retires the label set, and a plan rebuilt
// after the reset reproduces the pre-reset frame and point cloud exactly.
func TestCacheGaugesAndReset(t *testing.T) {
	e := engine.New("")
	if v, _ := synthPlanGauge(e); v != 0 {
		t.Fatalf("synth plan gauge = %v on a new engine, want 0", v)
	}

	c := radar.TI1443()
	sc := []radar.Scatterer{{Range: 3, Azimuth: 0.1, Amplitude: 1e-5}}
	run := func(p *radar.SynthPlan) ([]complex128, []radar.Detection) {
		f := p.Synthesize(sc, nil)
		defer radar.ReleaseFrame(f)
		rp := p.RangeProfile(f)
		defer radar.ReleaseProfile(rp)
		return append([]complex128(nil), f.Data...), p.PointCloudScan(rp)
	}
	beforeFrame, beforeCloud := run(e.SynthPlan(c))
	if len(beforeCloud) == 0 {
		t.Fatal("test frame yields an empty point cloud")
	}
	e.SynthPlan(c)
	if v, ok := synthPlanGauge(e); !ok || v != 1 {
		t.Fatalf("synth plan gauge = %v (registered %v) after two uses of one config, want 1", v, ok)
	}

	e.Close()
	if v, ok := synthPlanGauge(e); ok {
		t.Fatalf("synth plan gauge still registered after Close (value %v)", v)
	}

	frame, cloud := run(e.SynthPlan(c))
	for i := range frame {
		if frame[i] != beforeFrame[i] {
			t.Fatalf("rebuilt plan: sample %d changed: %v -> %v", i, beforeFrame[i], frame[i])
		}
	}
	if len(cloud) != len(beforeCloud) {
		t.Fatalf("rebuilt plan: point cloud size changed: %d -> %d", len(beforeCloud), len(cloud))
	}
	for i := range cloud {
		if cloud[i] != beforeCloud[i] {
			t.Fatalf("rebuilt plan: point %d changed: %+v -> %+v", i, beforeCloud[i], cloud[i])
		}
	}
}

// TestSessionClear pins the clear-and-repopulate contract for the cache a
// read session draws its plans from: no plan survives Close, and the next
// request builds one new plan that later requests share.
func TestSessionClear(t *testing.T) {
	e := engine.New("")
	cfg := radar.TI1443()
	p1 := e.SynthPlan(cfg)
	e.Close()
	p2 := e.SynthPlan(cfg)
	if p2 == p1 {
		t.Fatal("plan survived Close")
	}
	if p3 := e.SynthPlan(cfg); p3 != p2 {
		t.Fatal("cache did not repopulate after Close: two plans for one config")
	}
}
