// Session is the radar layer's resource handle: the memoized state one
// radar+scene configuration accumulates — frame synthesis plans (with their
// pooled frame buffers) and beamforming steering tables — owned by whoever
// constructed the session instead of by the process. An engine.Engine owns
// one Session per configuration handle and Clears it deterministically when
// the handle is retired; Config.NewSynthPlan builds an unshared plan for
// callers without one.
package radar

import (
	"ros/internal/dsp"
	"ros/internal/obs"
)

// Cache names a Session reports under, passed to the dsp.CacheGauge provider
// so an owning handle can label one shared gauge vector per cache instead of
// colliding on global gauge names.
const (
	CacheSynthPlans = "radar_synth_plan"
	CacheSteering   = "radar_steering"
)

// Session owns the radar memo caches for one configuration handle. Entries
// are immutable and safe for concurrent use; the session itself is safe for
// concurrent use by any number of goroutines.
type Session struct {
	// plans supplies the fused window+FFT plans synthesis plans capture.
	plans *dsp.PlanSet
	// synthPlans caches frame front-end plans per Config (Config is
	// comparable); a sweep re-reading the same radar reuses the
	// scene-static tables across reads.
	synthPlans *obs.CountedMap
	// steering caches beamforming steering tables per
	// (numRx, spacing, frequency).
	steering *obs.CountedMap
}

// NewSession returns an empty session drawing transform plans from the given
// set, with caches mirroring their entry counts into the gauges the provider
// hands out. plans must be non-nil.
func NewSession(plans *dsp.PlanSet, gauge dsp.CacheGauge) *Session {
	if plans == nil {
		panic("radar: NewSession needs a plan set")
	}
	return &Session{
		plans:      plans,
		synthPlans: obs.NewCountedMap(gauge(CacheSynthPlans)),
		steering:   obs.NewCountedMap(gauge(CacheSteering)),
	}
}

// PlanSet returns the dsp plan set this session draws transforms from.
func (s *Session) PlanSet() *dsp.PlanSet { return s.plans }

// SynthPlanFor validates the configuration once and returns the session's
// frame front-end plan for it, building it on first use. It panics on an
// invalid config, exactly as Config.Synthesize does.
//
// Two goroutines racing on a cold config both build a plan; LoadOrStore
// keeps exactly one, and the loser's plan — with the one frame buffer it
// pre-warmed — is left to the collector.
func (s *Session) SynthPlanFor(c Config) *SynthPlan {
	if v, ok := s.synthPlans.Load(c); ok {
		return v.(*SynthPlan)
	}
	actual, _ := s.synthPlans.LoadOrStore(c, newSynthPlan(c, s.plans, s.steeringFor))
	return actual.(*SynthPlan)
}

// steeringFor returns the session's cached steering table for the config's
// array geometry, computing it on first use.
func (s *Session) steeringFor(c Config) *steeringTable {
	key := steeringKey{numRx: c.NumRx, spacing: c.RxSpacing, freq: c.CenterFrequency}
	if v, ok := s.steering.Load(key); ok {
		return v.(*steeringTable)
	}
	t := newSteeringTable(c)
	if v, loaded := s.steering.LoadOrStore(key, t); loaded {
		return v.(*steeringTable)
	}
	return t
}

// Clear drops the session's memo caches — synthesis plans and steering
// tables — and zeroes their gauges. Plans already handed out stay valid
// (entries are immutable and each plan owns its frame pool); subsequent
// calls rebuild.
func (s *Session) Clear() {
	s.synthPlans.Clear()
	s.steering.Clear()
}
