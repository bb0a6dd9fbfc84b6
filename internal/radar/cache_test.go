package radar

import (
	"testing"

	"ros/internal/dsp"
	"ros/internal/obs"
)

// TestCacheGaugesAndReset pins the retention contract of a session's memo
// caches: first use registers an entry in the corresponding gauge, Clear
// zeroes both, and the pipeline keeps producing identical results after a
// clear (entries are pure memoization, never state).
func TestCacheGaugesAndReset(t *testing.T) {
	gauges := map[string]*obs.Gauge{}
	s := NewSession(dsp.NewPlanSet(func(string) *obs.Gauge { return new(obs.Gauge) }),
		func(cache string) *obs.Gauge {
			g := new(obs.Gauge)
			gauges[cache] = g
			return g
		})
	synthG, steerG := gauges[CacheSynthPlans], gauges[CacheSteering]
	if synthG.Value() != 0 || steerG.Value() != 0 {
		t.Fatalf("gauges = %v/%v on a new session, want 0", synthG.Value(), steerG.Value())
	}

	c := TI1443()
	p := s.SynthPlanFor(c)
	sc := []Scatterer{{Range: 3, Azimuth: 0.1, Amplitude: 1e-5}}
	before := p.Synthesize(sc, nil)
	beforeCloud := p.PointCloudScan(p.RangeProfile(before), DetectOptions{}, nil)
	ReleaseFrame(before)
	if v := synthG.Value(); v < 1 {
		t.Fatalf("synth plan gauge = %v after first plan, want >= 1", v)
	}
	if v := steerG.Value(); v < 1 {
		t.Fatalf("steering gauge = %v after first plan, want >= 1", v)
	}

	s.Clear()
	if v := synthG.Value(); v != 0 {
		t.Fatalf("synth plan gauge = %v after Clear, want 0", v)
	}
	if v := steerG.Value(); v != 0 {
		t.Fatalf("steering gauge = %v after Clear, want 0", v)
	}

	// Rebuilt entries must reproduce the pre-clear output exactly, and so
	// must an unshared plan.
	for name, p2 := range map[string]*SynthPlan{"rebuilt": s.SynthPlanFor(c), "fresh": c.NewSynthPlan()} {
		after := p2.Synthesize(sc, nil)
		afterCloud := p2.PointCloudScan(p2.RangeProfile(after), DetectOptions{}, nil)
		ReleaseFrame(after)
		if len(afterCloud) != len(beforeCloud) {
			t.Fatalf("%s plan: point cloud size changed: %d -> %d", name, len(beforeCloud), len(afterCloud))
		}
		for i := range afterCloud {
			if afterCloud[i] != beforeCloud[i] {
				t.Fatalf("%s plan: point %d changed: %+v -> %+v", name, i, beforeCloud[i], afterCloud[i])
			}
		}
	}
}
