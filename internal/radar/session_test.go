package radar

import (
	"sync"
	"testing"

	"ros/internal/dsp"
	"ros/internal/obs"
)

// testGauge hands a session throwaway gauges from the default registry
// (registry constructors are get-or-create, so reuse across tests is fine).
func testGauge(cache string) *obs.Gauge {
	return obs.Default.Gauge("test_radar_session_"+cache, "session test scratch gauge")
}

// testSession returns a fresh session over a fresh plan set.
func testSession() *Session {
	return NewSession(dsp.NewPlanSet(testGauge), testGauge)
}

// TestSessionSynthPlanConcurrentConstruction pins the losing-racer contract
// of SynthPlanFor: many goroutines requesting the same configuration at once
// all get the same plan pointer and the cache holds exactly one entry.
func TestSessionSynthPlanConcurrentConstruction(t *testing.T) {
	s := testSession()
	cfg := TI1443()

	const goroutines = 32
	var (
		start sync.WaitGroup
		done  sync.WaitGroup
		gate  = make(chan struct{})
		plans [goroutines]*SynthPlan
	)
	start.Add(goroutines)
	done.Add(goroutines)
	for i := 0; i < goroutines; i++ {
		go func(i int) {
			defer done.Done()
			start.Done()
			<-gate
			plans[i] = s.SynthPlanFor(cfg)
		}(i)
	}
	start.Wait()
	close(gate)
	done.Wait()

	for i := 1; i < goroutines; i++ {
		if plans[i] != plans[0] {
			t.Fatalf("goroutine %d got a different plan pointer", i)
		}
	}
	if got := s.synthPlans.Len(); got != 1 {
		t.Fatalf("synth plan cache holds %d entries after one racing config, want 1", got)
	}

	// The surviving plan must work: synthesize one frame through it.
	f := plans[0].Synthesize(nil, nil)
	if f.NumRx != cfg.NumRx || f.Samples != cfg.Samples {
		t.Fatalf("frame shape %dx%d from the raced plan, want %dx%d",
			f.NumRx, f.Samples, cfg.NumRx, cfg.Samples)
	}
	ReleaseFrame(f)
}

// TestSessionClear drops both caches and lets the session repopulate.
func TestSessionClear(t *testing.T) {
	s := testSession()
	cfg := TI1443()
	p1 := s.SynthPlanFor(cfg)
	if s.synthPlans.Len() != 1 {
		t.Fatalf("synth plan cache = %d entries, want 1", s.synthPlans.Len())
	}
	s.Clear()
	if s.synthPlans.Len() != 0 || s.steering.Len() != 0 {
		t.Fatalf("caches not empty after Clear: %d plans, %d steering",
			s.synthPlans.Len(), s.steering.Len())
	}
	p2 := s.SynthPlanFor(cfg)
	if p2 == p1 {
		t.Fatal("plan survived Clear")
	}
	if s.synthPlans.Len() != 1 {
		t.Fatalf("cache did not repopulate after Clear")
	}
}
