package ros

import "ros/internal/engine"

// Engine is an explicit resource handle for readers: it owns every piece of
// memoized state reads accumulate — transform plans, steering tables,
// scene-response memos, pooled frame buffers, scan states. Readers without an
// Engine share one process-wide default Engine (process-lifetime retention,
// reported under engine="default"); readers sharing an Engine share its
// caches; Close releases everything the Engine owns deterministically,
// dropping its metric entries with it.
//
// Use one Engine per long-lived radar+scene configuration when serving many
// configurations from one process (the rosd daemon keys an Engine LRU by
// configuration fingerprint); skip it entirely for one-shot tools.
type Engine struct {
	h *engine.Engine
}

// NewEngine returns a fresh Engine whose caches report under
// ros_engine_cache_entries{cache,engine}.
func NewEngine() *Engine {
	return &Engine{h: engine.New("")}
}

// Close drops every cache the engine owns and unregisters its metrics.
// Idempotent, and safe while reads against the engine are still in flight:
// they keep the plans and memo entries they already hold and complete
// normally. Reads started after Close simply repopulate cold caches (memory
// the closed engine retains until the last reference drops).
func (e *Engine) Close() {
	e.h.Close()
}

// Closed reports whether Close has run.
func (e *Engine) Closed() bool { return e.h.Closed() }

// WithEngine binds the reader's reads to the engine's caches instead of the
// default Engine's. Results are byte-identical either way.
func WithEngine(e *Engine) ReaderOption {
	return func(r *Reader) {
		r.engine = e.h
	}
}
