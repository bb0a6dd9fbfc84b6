// Package engine ties the memoized state the reads it serves accumulate
// into one Engine: the synthesis plan per radar configuration (which
// captures the range transform and the steering table), the decoder's
// spectrum FFT plan per transform size, and the scene-response memo. Every
// cache is content-addressed,
// so reads of different scenes can share an Engine (rosd keeps one per
// radar front end). An Engine is constructed once, passed explicitly
// through the simulation and detection layers, and released
// deterministically with Close, which drops the caches and their metric
// label sets in one step. It is the only owner of memoized state in the
// module: callers that pass no Engine resolve to the process-wide Default,
// and no Engine shares state with another.
package engine

import (
	"fmt"
	"sync/atomic"

	"ros/internal/dsp"
	"ros/internal/obs"
	"ros/internal/radar"
	"ros/internal/scene"
)

// CacheSynthPlans names the synthesis-plan cache in the cache label of
// ros_engine_cache_entries.
const CacheSynthPlans = "radar_synth_plan"

// CacheSpectrumPlans names the spectrum-plan cache in the cache label of
// ros_engine_cache_entries.
const CacheSpectrumPlans = "spectrum_plan"

// cacheEntries is the one labeled gauge every engine-owned cache reports
// under. The capacity bounds label-set growth from engine churn; Close
// deletes an engine's sets, so only leaked engines consume it permanently.
var cacheEntries = obs.Default.GaugeVecCapacity(
	"ros_engine_cache_entries",
	"Resident entries per engine-owned cache.",
	1024,
	"cache", "engine",
)

// nextID numbers anonymous engines.
var nextID atomic.Uint64

// defaultEngine backs every caller that passes no Engine; see Default.
var defaultEngine = New("default")

// Default returns the process-wide Engine, id "default", that reads without
// an explicit Engine draw their memoized state from. Its caches live for the
// process and stay warm across passes (an offline sweep re-reading the same
// radar reuses them); servers juggling many radar configurations build one
// Engine per radar configuration instead, and Close it when that radar
// retires.
func Default() *Engine { return defaultEngine }

// Engine owns the memoized state for the reads that share it. The
// exported handles are immutable after New; the Engine is safe for
// concurrent use, including Close racing in-flight reads (values already
// handed out stay valid — Close only drops cache entries and metrics).
type Engine struct {
	id string
	// synthPlans caches one synthesis plan per radar.Config (Config is
	// comparable).
	synthPlans *obs.CountedMap
	// spectrumPlans caches one Rectangular FFT plan per decode transform
	// size.
	spectrumPlans *obs.CountedMap
	// Responses owns the scene-response memo.
	Responses *scene.ResponseCache

	// labels records the cache label sets registered under cacheEntries,
	// so Close can delete exactly what New created.
	labels [][]string
	closed atomic.Bool
}

// New returns a fresh Engine whose caches report under
// ros_engine_cache_entries{cache,engine=id}. An empty id is replaced with a
// unique generated one.
func New(id string) *Engine {
	if id == "" {
		id = fmt.Sprintf("engine-%d", nextID.Add(1))
	}
	e := &Engine{id: id}
	gauge := func(cache string) *obs.Gauge {
		e.labels = append(e.labels, []string{cache, e.id})
		return cacheEntries.With(cache, e.id)
	}
	e.synthPlans = obs.NewCountedMap(gauge(CacheSynthPlans))
	e.spectrumPlans = obs.NewCountedMap(gauge(CacheSpectrumPlans))
	e.Responses = scene.NewResponseCache(gauge(scene.CacheResponses))
	return e
}

// SynthPlan returns the engine's synthesis plan for c, building it with
// radar.Config.NewSynthPlan on first use. It panics on an invalid config,
// exactly as NewSynthPlan does.
//
// Two goroutines racing on a cold config both build a plan; LoadOrStore
// keeps exactly one, and the loser's plan — with the one frame buffer it
// pre-warmed — is left to the collector.
func (e *Engine) SynthPlan(c radar.Config) *radar.SynthPlan {
	if v, ok := e.synthPlans.Load(c); ok {
		return v.(*radar.SynthPlan)
	}
	actual, _ := e.synthPlans.LoadOrStore(c, c.NewSynthPlan())
	return actual.(*radar.SynthPlan)
}

// SpectrumPlan returns the engine's Rectangular FFT plan for n-point
// decoder spectra, building it on first use; it implements
// coding.PlanSource. It panics unless n is a power of two of at least 8,
// exactly as dsp.NewPlan does. Racing builders resolve as in SynthPlan.
func (e *Engine) SpectrumPlan(n int) *dsp.Plan {
	if v, ok := e.spectrumPlans.Load(n); ok {
		return v.(*dsp.Plan)
	}
	actual, _ := e.spectrumPlans.LoadOrStore(n, dsp.NewPlan(n, dsp.Rectangular))
	return actual.(*dsp.Plan)
}

// ID returns the engine's metric label value.
func (e *Engine) ID() string { return e.id }

// Closed reports whether Close has run.
func (e *Engine) Closed() bool { return e.closed.Load() }

// Close drops every cache the engine owns and deletes its label sets from
// the shared gauge vector. Idempotent; safe to call while reads against the
// engine are still in flight (they keep the plans and memo entries they
// already hold, and any entry repopulated by a straggler after Close only
// occupies memory until the straggler finishes — the gauges are already
// unregistered).
func (e *Engine) Close() {
	if e.closed.Swap(true) {
		return
	}
	e.Responses.Clear()
	e.synthPlans.Clear()
	e.spectrumPlans.Clear()
	for _, ls := range e.labels {
		cacheEntries.Delete(ls...)
	}
}
