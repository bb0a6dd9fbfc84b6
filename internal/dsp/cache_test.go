package dsp

import (
	"math/cmplx"
	"testing"

	"ros/internal/obs"
)

// testPlanSet returns a plan set reporting into fresh unregistered gauges,
// one per cache name.
func testPlanSet() (*PlanSet, map[string]*obs.Gauge) {
	gauges := map[string]*obs.Gauge{}
	s := NewPlanSet(func(cache string) *obs.Gauge {
		g := new(obs.Gauge)
		gauges[cache] = g
		return g
	})
	return s, gauges
}

// TestCacheGaugesAndReset pins the retention contract of a plan set's memo
// caches: building a plan registers entries in its gauges, Clear zeroes
// them, and transforms built afterwards reproduce the pre-clear output
// exactly.
func TestCacheGaugesAndReset(t *testing.T) {
	s, gauges := testPlanSet()
	planG, twidG, winG := gauges[CachePlans], gauges[CacheTwiddles], gauges[CacheWindows]
	for _, g := range []*obs.Gauge{planG, twidG, winG} {
		if v := g.Value(); v != 0 {
			t.Fatalf("gauge = %v on a new set, want 0", v)
		}
	}

	x := make([]complex128, 64)
	for i := range x {
		x[i] = complex(float64(i%7)-3, float64(i%5)-2)
	}
	p := s.PlanFor(len(x), Hann)
	before := make([]complex128, len(x))
	p.Forward(before, x)

	if v := planG.Value(); v < 1 {
		t.Fatalf("plan gauge = %v after PlanFor, want >= 1", v)
	}
	if v := twidG.Value(); v < 1 {
		t.Fatalf("twiddle gauge = %v after transform, want >= 1", v)
	}
	if v := winG.Value(); v < 1 {
		t.Fatalf("window gauge = %v after PlanFor, want >= 1", v)
	}

	s.Clear()
	for _, g := range []*obs.Gauge{planG, twidG, winG} {
		if v := g.Value(); v != 0 {
			t.Fatalf("gauge = %v after Clear, want 0", v)
		}
	}

	// Rebuilt plans must be bit-identical to the pre-clear ones, and to a
	// fresh uncached plan.
	for name, p2 := range map[string]*Plan{"rebuilt": s.PlanFor(len(x), Hann), "fresh": NewPlan(len(x), Hann)} {
		after := make([]complex128, len(x))
		p2.Forward(after, x)
		for i := range after {
			if after[i] != before[i] {
				t.Fatalf("%s plan: bin %d changed: %v -> %v (|d|=%g)",
					name, i, before[i], after[i], cmplx.Abs(after[i]-before[i]))
			}
		}
	}
}
