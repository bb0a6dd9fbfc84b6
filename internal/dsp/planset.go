// PlanSet is the dsp layer's resource handle: one set of transform memo
// caches — fused window+FFT plans, window coefficient tables, twiddle
// tables, Bluestein chirp plans — owned by whoever constructed it instead of
// by the process. An engine.Engine owns one set per configuration handle and
// Clears it deterministically when the handle is retired. Callers without a
// set build fresh tables (NewPlan, the FFT helpers).
package dsp

import (
	"fmt"

	"ros/internal/obs"
)

// Cache names a PlanSet reports under, passed to the CacheGauge provider so
// an owning handle can label one shared gauge vector per cache instead of
// colliding on global gauge names.
const (
	CachePlans    = "dsp_plan"
	CacheWindows  = "dsp_window"
	CacheTwiddles = "dsp_twiddle"
	CacheChirps   = "dsp_chirp"
)

// CacheGauge provisions the entry-count gauge for one named cache of a
// resource handle; an Engine binds labeled children of one shared vector.
type CacheGauge func(cache string) *obs.Gauge

// PlanSet owns the transform memo caches for one configuration handle.
// Entries are immutable and safe for concurrent use; the set itself is safe
// for concurrent use by any number of goroutines. A nil *PlanSet memoizes
// nothing: every call builds fresh tables owned by the caller.
type PlanSet struct {
	plans    *obs.CountedMap
	windows  *obs.CountedMap
	twiddles *obs.CountedMap
	chirps   *obs.CountedMap
}

// NewPlanSet returns an empty plan set whose caches mirror their entry
// counts into the gauges the provider hands out.
func NewPlanSet(gauge CacheGauge) *PlanSet {
	return &PlanSet{
		plans:    obs.NewCountedMap(gauge(CachePlans)),
		windows:  obs.NewCountedMap(gauge(CacheWindows)),
		twiddles: obs.NewCountedMap(gauge(CacheTwiddles)),
		chirps:   obs.NewCountedMap(gauge(CacheChirps)),
	}
}

// PlanFor returns the set's cached execution plan for n-point transforms
// under the given window, building it on first use. It panics if n < 1.
func (s *PlanSet) PlanFor(n int, w Window) *Plan {
	if n < 1 {
		panic(fmt.Sprintf("dsp: PlanFor with size %d", n))
	}
	if s == nil {
		return s.newPlan(n, w)
	}
	key := [2]int{n, int(w)}
	if p, ok := s.plans.Load(key); ok {
		return p.(*Plan)
	}
	p := s.newPlan(n, w)
	actual, _ := s.plans.LoadOrStore(key, p)
	return actual.(*Plan)
}

// WindowCoefficients returns the window coefficients alongside the coherent
// gain from the set's cache. The returned slice is shared: callers must
// treat it as read-only (use Window.Coefficients for a private copy).
func (s *PlanSet) WindowCoefficients(w Window, n int) ([]float64, float64) {
	key := [2]int{int(w), n}
	if s != nil {
		if e, ok := s.windows.Load(key); ok {
			ent := e.(*windowEntry)
			return ent.coeffs, ent.gain
		}
	}
	c := w.Coefficients(n)
	sum := 0.0
	for _, v := range c {
		sum += v
	}
	gain := 1.0
	if len(c) > 0 {
		gain = sum / float64(len(c))
	}
	if s == nil {
		return c, gain
	}
	actual, _ := s.windows.LoadOrStore(key, &windowEntry{coeffs: c, gain: gain})
	ent := actual.(*windowEntry)
	return ent.coeffs, ent.gain
}

// twiddleTable returns the set's cached forward roots of unity for size n:
// table[j] = exp(-2*pi*i*j/n) for j < n/2.
func (s *PlanSet) twiddleTable(n int) []complex128 {
	if s == nil {
		return newTwiddleTable(n)
	}
	if t, ok := s.twiddles.Load(n); ok {
		return t.([]complex128)
	}
	t := newTwiddleTable(n)
	actual, _ := s.twiddles.LoadOrStore(n, t)
	return actual.([]complex128)
}

// chirpPlanFor returns the set's cached Bluestein precomputation for one
// (length, direction) pair.
func (s *PlanSet) chirpPlanFor(n int, inverse bool) *chirpPlan {
	if s == nil {
		return newChirpPlan(n, inverse, newTwiddleTable)
	}
	sign := 0
	if inverse {
		sign = 1
	}
	key := [2]int{n, sign}
	if p, ok := s.chirps.Load(key); ok {
		return p.(*chirpPlan)
	}
	p := newChirpPlan(n, inverse, s.twiddleTable)
	actual, _ := s.chirps.LoadOrStore(key, p)
	return actual.(*chirpPlan)
}

// Clear drops every cache in the set and zeroes the gauges. Plans already
// handed out stay valid — each Plan captured its tables at build time — and
// subsequent calls rebuild.
func (s *PlanSet) Clear() {
	s.plans.Clear()
	s.windows.Clear()
	s.twiddles.Clear()
	s.chirps.Clear()
}
