package rosd

import (
	"container/list"
	"fmt"
	"sync"

	"ros/internal/engine"
	"ros/internal/obs"
	"ros/internal/radar"
	"ros/internal/sim"
)

// radarDefault returns the radar configuration a nil DriveBy.Radar resolves
// to, for request translation and fingerprinting.
func radarDefault() radar.Config { return radar.TI1443() }

// engineKey condenses a pass configuration into the LRU key: the effective
// radar configuration and nothing else. Every cache an Engine owns is
// content-addressed — transform plans by (size, window), synthesis plans and
// steering tables by radar.Config, scene responses by tag fingerprint and
// exact geometry — so reads of different scenes on one front end share one
// Engine without sharing answers, and a new standoff, tag, fog level or
// frame budget reuses the warm radar state instead of rebuilding it. Two
// requests with equal keys share an engine; the key doubles as the "engine"
// gauge label and the wire-visible engine id.
func engineKey(cfg sim.DriveBy) string {
	rc := radarDefault()
	if cfg.Radar != nil {
		rc = *cfg.Radar
	}
	return obs.Fingerprint(fmt.Sprintf("%+v", rc))
}

// engineLRU is the capacity-bounded engine cache of the read service. get
// returns the resident engine for a configuration or builds one, evicting
// (and closing) the least recently used engine past capacity. Eviction while
// the evicted engine still serves in-flight reads is safe: Engine.Close lets
// holders keep the state they already reference, so those reads complete
// normally against a cold-for-everyone-else engine.
type engineLRU struct {
	mu       sync.Mutex
	capacity int
	order    *list.List               // front = most recently used
	entries  map[string]*list.Element // key -> element holding *lruEntry
}

type lruEntry struct {
	key string
	eng *engine.Engine
}

func newEngineLRU(capacity int) *engineLRU {
	return &engineLRU{
		capacity: capacity,
		order:    list.New(),
		entries:  make(map[string]*list.Element, capacity),
	}
}

// get returns the engine for the configuration and its key, building and
// possibly evicting under the lock (engine construction is cheap — the
// caches it owns fill lazily — so holding the lock keeps the
// one-engine-per-key invariant without a singleflight layer).
func (l *engineLRU) get(cfg sim.DriveBy) (*engine.Engine, string) {
	key := engineKey(cfg)
	l.mu.Lock()
	defer l.mu.Unlock()
	if el, ok := l.entries[key]; ok {
		l.order.MoveToFront(el)
		mEngineHits.Inc()
		return el.Value.(*lruEntry).eng, key
	}
	mEngineMisses.Inc()
	for l.order.Len() >= l.capacity {
		back := l.order.Back()
		ent := back.Value.(*lruEntry)
		l.order.Remove(back)
		delete(l.entries, ent.key)
		ent.eng.Close()
		mEvictions.Inc()
	}
	ent := &lruEntry{key: key, eng: engine.New(key)}
	l.entries[key] = l.order.PushFront(ent)
	gEngines.Set(float64(l.order.Len()))
	return ent.eng, key
}

// Len returns the resident engine count.
func (l *engineLRU) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.order.Len()
}

// Close evicts and closes every resident engine.
func (l *engineLRU) Close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for el := l.order.Front(); el != nil; el = el.Next() {
		el.Value.(*lruEntry).eng.Close()
	}
	l.order.Init()
	l.entries = make(map[string]*list.Element, l.capacity)
	gEngines.Set(0)
}
