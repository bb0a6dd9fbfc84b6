// Response memoization of the scene package. Tag field responses are pure
// functions of (tag geometry, radar position, frequency), and a drive-by
// sweep interrogates the same tag from the same trajectory positions on
// every read — so the per-scatterer module sums, the dominant cost of
// decode-mode scene evaluation, are memoized in a ResponseCache. Entries are
// immutable complex/real values shared across goroutines. The cache is a
// resource handle owned by an engine.Engine: Scene.Responses selects one, and
// a Scene without one evaluates every term directly.
package scene

import "ros/internal/obs"

// CacheResponses names the scene response cache for resource-handle gauge
// providers (see dsp.CacheGauge).
const CacheResponses = "scene_response"

// sceneResponseCap bounds a response cache by default. A canonical read
// touches a few thousand (position, frequency) pairs per tag; 65536 entries
// hold dozens of simultaneous sweeps. Unlike the radar caches (whose working
// sets are one entry per config), trajectories with per-read jitter could
// grow this without bound, so on hitting the cap the map is wiped and
// rebuilt — memo misses change timing, never values.
const sceneResponseCap = 1 << 16

// responseKind distinguishes the memoized field terms sharing the cache.
type responseKind uint8

const (
	kindResponse   responseKind = iota // Tag.Response (decode-mode complex field)
	kindStackPower                     // Tag.stackPower (detect-mode aperture power)
)

// responseKey addresses one memoized term. Positions and frequency are keyed
// on their exact float64 bits: any change reruns the module loop, equal bits
// return the identical stored value, so memoized and direct evaluation are
// indistinguishable byte for byte.
type responseKey struct {
	fp         uint64 // tag fingerprint from NewTag; 0 never reaches the cache
	px, py, pz float64
	f          float64
	kind       responseKind
}

// ResponseCache owns the memoized tag field terms for one resource handle.
// It is safe for concurrent use by any number of goroutines.
type ResponseCache struct {
	entries *obs.CountedMap
	cap     int
}

// NewResponseCache returns an empty cache mirroring its entry count into the
// given gauge, wiping itself whenever it reaches capacity (<= 0 selects the
// default capacity).
func NewResponseCache(gauge *obs.Gauge, capacity int) *ResponseCache {
	if capacity <= 0 {
		capacity = sceneResponseCap
	}
	return &ResponseCache{entries: obs.NewCountedMap(gauge), cap: capacity}
}

// load returns the cached term for key, if present.
func (rc *ResponseCache) load(key responseKey) (any, bool) { return rc.entries.Load(key) }

// store publishes a computed term, wiping the cache first when at capacity.
// Concurrent racers compute identical values (the term is a pure function of
// the key), so whichever store wins is indistinguishable.
func (rc *ResponseCache) store(key responseKey, v any) {
	if rc.entries.Len() >= rc.cap {
		rc.entries.Clear()
	}
	rc.entries.LoadOrStore(key, v)
}

// Len returns the resident entry count.
func (rc *ResponseCache) Len() int { return rc.entries.Len() }

// Clear drops every entry and zeroes the gauge. Subsequent calls recompute
// and repopulate; results are bit-identical either way.
func (rc *ResponseCache) Clear() { rc.entries.Clear() }
