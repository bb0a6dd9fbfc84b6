package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// MaxLabelSets is the per-vector cardinality cap: the number of distinct
// label-value combinations a CounterVec/GaugeVec/HistogramVec will allocate
// before routing further combinations to a shared overflow child and counting
// them on obs_dropped_labelsets_total. The label *scheme* of this codebase is
// bounded by construction — stage names, outcome enums, worker-count buckets,
// fault kinds — so hitting the cap means a caller is interpolating unbounded
// input (tenant ids without bucketing, raw error strings) into a label, which
// the cap turns from a memory leak into a visible self-metric.
const MaxLabelSets = 64

// DroppedLabelSetsMetric is the self-metric counting observations routed to
// an overflow child because a vector hit MaxLabelSets.
const DroppedLabelSetsMetric = "obs_dropped_labelsets_total"

// labelValuesKey joins label values into one map key. \xff cannot appear in
// metric label values (exposition is UTF-8 text), so the join is unambiguous.
func labelValuesKey(values []string) string {
	return strings.Join(values, "\xff")
}

// labeled pairs one child's label values with its position in exposition.
type labeled[T any] struct {
	values []string
	child  T
}

// vecIndex is the immutable labelset index published behind an atomic
// pointer: the observe path is one pointer load plus one read-only map
// lookup, with no locks. Growth copies the map under the vector's mutex and
// swaps the pointer (labelsets are bounded by MaxLabelSets, so copies are
// rare and small).
type vecIndex[T any] struct {
	m map[string]labeled[T]
}

// vec is the shared machinery of the three vector kinds.
type vec[T any] struct {
	name   string
	help   string
	labels []string
	idx    atomic.Pointer[vecIndex[T]]

	mu       sync.Mutex // guards growth only, never the observe path
	maxSets  int        // cardinality cap; MaxLabelSets unless overridden
	overflow T          // shared child returned past the cardinality cap
	dropped  *Counter   // the registry's obs_dropped_labelsets_total
	make     func() T
}

func newVec[T any](name, help string, labels []string, maxSets int, dropped *Counter, make func() T) *vec[T] {
	if len(labels) == 0 {
		panic(fmt.Sprintf("obs: vector %q needs at least one label", name))
	}
	for _, l := range labels {
		if l == "" || l == "le" {
			panic(fmt.Sprintf("obs: vector %q has reserved or empty label %q", name, l))
		}
	}
	if maxSets <= 0 {
		maxSets = MaxLabelSets
	}
	v := &vec[T]{name: name, help: help, labels: append([]string(nil), labels...),
		maxSets: maxSets, dropped: dropped, overflow: make(), make: make}
	v.idx.Store(&vecIndex[T]{m: map[string]labeled[T]{}})
	return v
}

// with returns the child for the given label values, creating it on first
// use. Past MaxLabelSets distinct labelsets it returns the vector's shared
// overflow child (whose observations are never exposed) and increments
// obs_dropped_labelsets_total — callers should cache hot children, at which
// point with is one atomic load plus a map hit.
func (v *vec[T]) with(values []string) T {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: vector %q got %d label values for %d labels",
			v.name, len(values), len(v.labels)))
	}
	key := labelValuesKey(values)
	if l, ok := v.idx.Load().m[key]; ok {
		return l.child
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	cur := v.idx.Load()
	if l, ok := cur.m[key]; ok {
		return l.child
	}
	if len(cur.m) >= v.maxSets {
		v.dropped.Inc()
		return v.overflow
	}
	next := &vecIndex[T]{m: make(map[string]labeled[T], len(cur.m)+1)}
	for k, l := range cur.m {
		next.m[k] = l
	}
	child := v.make()
	next.m[key] = labeled[T]{values: append([]string(nil), values...), child: child}
	v.idx.Store(next)
	return child
}

// delete removes the child with the given label values, freeing its slot
// under the cardinality cap and dropping it from exposition. It reports
// whether a child was resident. Deletion publishes a fresh index, so
// concurrent observers either see the old child (and their observations die
// with it) or miss — the same semantics a cache Clear has.
func (v *vec[T]) delete(values []string) bool {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: vector %q got %d label values for %d labels",
			v.name, len(values), len(v.labels)))
	}
	key := labelValuesKey(values)
	v.mu.Lock()
	defer v.mu.Unlock()
	cur := v.idx.Load()
	if _, ok := cur.m[key]; !ok {
		return false
	}
	next := &vecIndex[T]{m: make(map[string]labeled[T], len(cur.m)-1)}
	for k, l := range cur.m {
		if k != key {
			next.m[k] = l
		}
	}
	v.idx.Store(next)
	return true
}

// snapshot returns the resident children sorted by label values, for
// deterministic exposition.
func (v *vec[T]) snapshot() []labeled[T] {
	m := v.idx.Load().m
	out := make([]labeled[T], 0, len(m))
	for _, l := range m {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool {
		return labelValuesKey(out[i].values) < labelValuesKey(out[j].values)
	})
	return out
}

// labelMap pairs the vector's label names with one child's values.
func (v *vec[T]) labelMap(values []string) map[string]string {
	m := make(map[string]string, len(v.labels))
	for i, name := range v.labels {
		m[name] = values[i]
	}
	return m
}

// CounterVec is a counter family indexed by a fixed, pre-registered label
// scheme. With is lock-free after a labelset's first observation.
type CounterVec struct{ v *vec[*Counter] }

// With returns the counter for the given label values (in registration
// order).
func (c *CounterVec) With(values ...string) *Counter { return c.v.with(values) }

// Delete removes the labelset's counter from the vector, freeing its slot
// under the cardinality cap and dropping it from exposition; see
// GaugeVec.Delete.
func (c *CounterVec) Delete(values ...string) bool { return c.v.delete(values) }

// GaugeVec is a gauge family indexed by a fixed label scheme.
type GaugeVec struct{ v *vec[*Gauge] }

// With returns the gauge for the given label values.
func (g *GaugeVec) With(values ...string) *Gauge { return g.v.with(values) }

// Delete removes the labelset's gauge from the vector, freeing its slot
// under the cardinality cap and dropping it from exposition. It reports
// whether the labelset was resident. Resource handles use it to retire their
// per-instance gauges deterministically on Close.
func (g *GaugeVec) Delete(values ...string) bool { return g.v.delete(values) }

// HistogramVec is a histogram family indexed by a fixed label scheme; every
// child shares the bucket bounds given at registration.
type HistogramVec struct{ v *vec[*Histogram] }

// With returns the histogram for the given label values.
func (h *HistogramVec) With(values ...string) *Histogram { return h.v.with(values) }

// Delete removes the labelset's histogram from the vector, freeing its slot
// under the cardinality cap and dropping it from exposition; see
// GaugeVec.Delete.
func (h *HistogramVec) Delete(values ...string) bool { return h.v.delete(values) }

// CounterVec returns the named counter vector with the given label scheme,
// creating it on first use (later calls ignore help and labels, like the
// scalar constructors).
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return r.CounterVecCapacity(name, help, 0, labels...)
}

// CounterVecCapacity is CounterVec with an explicit labelset cap (0 means
// MaxLabelSets); see GaugeVecCapacity.
func (r *Registry) CounterVecCapacity(name, help string, maxSets int, labels ...string) *CounterVec {
	r.mu.RLock()
	v := r.counterVecs[name]
	r.mu.RUnlock()
	if v != nil {
		return v
	}
	dropped := r.Counter(DroppedLabelSetsMetric,
		"observations routed to a vector's overflow child past the labelset cap")
	r.mu.Lock()
	defer r.mu.Unlock()
	if v := r.counterVecs[name]; v != nil {
		return v
	}
	r.checkFreeLocked(name, "counter vector")
	v = &CounterVec{v: newVec(name, help, labels, maxSets, dropped, func() *Counter { return &Counter{} })}
	r.counterVecs[name] = v
	return v
}

// GaugeVecCapacity returns the named gauge vector, creating it on first use
// with the given labelset cap (0 means MaxLabelSets; later calls ignore the
// cap, like every other constructor argument). Per-instance resource
// gauges — many short-lived handles, each registering a few labelsets and
// Delete-ing them on Close — size their cap to the handle population
// instead of the global default.
func (r *Registry) GaugeVecCapacity(name, help string, maxSets int, labels ...string) *GaugeVec {
	r.mu.RLock()
	v := r.gaugeVecs[name]
	r.mu.RUnlock()
	if v != nil {
		return v
	}
	dropped := r.Counter(DroppedLabelSetsMetric,
		"observations routed to a vector's overflow child past the labelset cap")
	r.mu.Lock()
	defer r.mu.Unlock()
	if v := r.gaugeVecs[name]; v != nil {
		return v
	}
	r.checkFreeLocked(name, "gauge vector")
	v = &GaugeVec{v: newVec(name, help, labels, maxSets, dropped, func() *Gauge { return &Gauge{} })}
	r.gaugeVecs[name] = v
	return v
}

// HistogramVec returns the named histogram vector whose children share the
// given bucket bounds, creating it on first use. maxSets caps its labelsets
// as in GaugeVecCapacity (0 means MaxLabelSets).
func (r *Registry) HistogramVec(name, help string, bounds []float64, maxSets int, labels ...string) *HistogramVec {
	r.mu.RLock()
	v := r.histogramVecs[name]
	r.mu.RUnlock()
	if v != nil {
		return v
	}
	dropped := r.Counter(DroppedLabelSetsMetric,
		"observations routed to a vector's overflow child past the labelset cap")
	r.mu.Lock()
	defer r.mu.Unlock()
	if v := r.histogramVecs[name]; v != nil {
		return v
	}
	r.checkFreeLocked(name, "histogram vector")
	if len(bounds) == 0 {
		panic(fmt.Sprintf("obs: histogram vector %q needs at least one bucket bound", name))
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram vector %q bounds not increasing at %d", name, i))
		}
	}
	shared := append([]float64(nil), bounds...)
	v = &HistogramVec{v: newVec(name, help, labels, maxSets, dropped, func() *Histogram {
		return &Histogram{bounds: shared, counts: make([]atomic.Int64, len(shared)+1)}
	})}
	r.histogramVecs[name] = v
	return v
}

// BucketWorkers maps a resolved worker count onto the bounded label values
// used by the worker-count metric dimension: "1", "2", "4", "8", "16+"
// (rounded up to the next bucket). Keeping the axis enumerable is what lets
// worker-labeled vectors stay under MaxLabelSets by construction.
func BucketWorkers(n int) string {
	switch {
	case n <= 1:
		return "1"
	case n <= 2:
		return "2"
	case n <= 4:
		return "4"
	case n <= 8:
		return "8"
	default:
		return "16+"
	}
}
