// Package engine ties the per-layer resource handles — dsp.PlanSet,
// radar.Session, scene.ResponseCache, radar.ScanStatePool — into one Engine
// owning every piece of memoized state a radar+scene configuration
// accumulates: transform plans, steering tables, scene-response memos,
// pooled frame buffers, and scan states. An Engine is constructed once per
// configuration handle, passed explicitly through the simulation and
// detection layers, and released deterministically with Close, which drops
// the caches and their metric label sets in one step. It is the only owner of
// memoized state in the module: callers that pass no Engine resolve to the
// process-wide Default, and no Engine shares state with another.
package engine

import (
	"fmt"
	"sync/atomic"

	"ros/internal/dsp"
	"ros/internal/obs"
	"ros/internal/radar"
	"ros/internal/scene"
)

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
// radar reuses them); servers juggling many configurations build one Engine
// per configuration instead, and Close it when the configuration retires.
func Default() *Engine { return defaultEngine }

// Engine owns the memoized state for one radar+scene configuration. The
// exported handles are immutable after New; the Engine is safe for
// concurrent use, including Close racing in-flight reads (values already
// handed out stay valid — Close only drops cache entries and metrics).
type Engine struct {
	id string
	// Plans owns the transform memo caches (fused window+FFT plans, window
	// tables, twiddle tables, chirp plans).
	Plans *dsp.PlanSet
	// Session owns the radar memo caches (synthesis plans with their frame
	// pools, steering tables), drawing transforms from Plans.
	Session *radar.Session
	// Responses owns the scene-response memo.
	Responses *scene.ResponseCache
	// ScanStates recycles per-worker incremental scan states.
	ScanStates *radar.ScanStatePool

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
	e := &Engine{id: id, ScanStates: &radar.ScanStatePool{}}
	gauge := func(cache string) *obs.Gauge {
		e.labels = append(e.labels, []string{cache, e.id})
		return cacheEntries.With(cache, e.id)
	}
	e.Plans = dsp.NewPlanSet(gauge)
	e.Session = radar.NewSession(e.Plans, gauge)
	e.Responses = scene.NewResponseCache(gauge(scene.CacheResponses), 0)
	return e
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
	e.Session.Clear()
	e.Plans.Clear()
	for _, ls := range e.labels {
		cacheEntries.Delete(ls...)
	}
}
