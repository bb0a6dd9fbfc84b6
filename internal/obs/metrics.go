package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry is a concurrent metrics registry. Metric handles are get-or-create
// and safe to cache in package variables; observation methods are lock-free
// (atomic adds / CAS), so the registry can sit on the per-frame hot path.
type Registry struct {
	mu            sync.RWMutex
	counters      map[string]*Counter
	gauges        map[string]*Gauge
	histograms    map[string]*Histogram
	counterVecs   map[string]*CounterVec
	gaugeVecs     map[string]*GaugeVec
	histogramVecs map[string]*HistogramVec
}

// Default is the process-wide registry used by the instrumented pipeline and
// served by rosbench -serve.
var Default = NewRegistry()

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:      make(map[string]*Counter),
		gauges:        make(map[string]*Gauge),
		histograms:    make(map[string]*Histogram),
		counterVecs:   make(map[string]*CounterVec),
		gaugeVecs:     make(map[string]*GaugeVec),
		histogramVecs: make(map[string]*HistogramVec),
	}
}

// Counter is a monotonically increasing int64.
type Counter struct {
	help string
	v    atomic.Int64
}

// Add increments the counter by delta.
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable float64.
type Gauge struct {
	help string
	bits atomic.Uint64
}

// Set stores the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket histogram in the Prometheus cumulative style:
// bucket i counts observations <= bounds[i], plus one overflow bucket.
// Observation is a binary search plus two atomic adds.
type Histogram struct {
	help      string
	bounds    []float64      // strictly increasing upper bounds
	counts    []atomic.Int64 // len(bounds)+1, last is +Inf
	count     atomic.Int64
	sum       atomic.Uint64 // float64 bits, CAS-accumulated
	nonFinite atomic.Int64  // NaN/±Inf observations diverted from sum
}

// Observe records one value. NaN and ±Inf observations are diverted to a
// dedicated non-finite counter (NonFinite, exposed as <name>_nonfinite_total)
// instead of the buckets: a single NaN CAS-ed into sum would poison every
// later mean, and an Inf would saturate it, turning one bad sample into a
// permanently corrupt metric.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		h.nonFinite.Add(1)
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// NonFinite returns the number of NaN/±Inf observations diverted from the
// buckets.
func (h *Histogram) NonFinite() int64 { return h.nonFinite.Load() }

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// LogBuckets returns perDecade logarithmically spaced upper bounds per
// decade from min to max inclusive — the fixed log-scale buckets used for
// latency, SNR ratios, and BER, whose natural ranges span decades.
func LogBuckets(min, max float64, perDecade int) []float64 {
	if min <= 0 || max <= min || perDecade < 1 {
		panic(fmt.Sprintf("obs: bad log buckets [%g, %g] x%d", min, max, perDecade))
	}
	var b []float64
	step := 1 / float64(perDecade)
	for e := math.Log10(min); ; e += step {
		v := math.Pow(10, e)
		if v > max*(1+1e-9) {
			break
		}
		b = append(b, v)
	}
	return b
}

// LinearBuckets returns n upper bounds start, start+width, ... — for
// quantities like SNR in dB that are already logarithmic.
func LinearBuckets(start, width float64, n int) []float64 {
	if width <= 0 || n < 1 {
		panic(fmt.Sprintf("obs: bad linear buckets %g+%g x%d", start, width, n))
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = start + width*float64(i)
	}
	return b
}

// Counter returns the named counter, creating it on first use. Registering
// the same name as a different metric kind panics — that is a programming
// error, caught at init time because handles live in package variables.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c := r.counters[name]; c != nil {
		return c
	}
	r.checkFreeLocked(name, "counter")
	c = &Counter{help: help}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g := r.gauges[name]; g != nil {
		return g
	}
	r.checkFreeLocked(name, "gauge")
	g = &Gauge{help: help}
	r.gauges[name] = g
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// upper bounds on first use (later calls ignore the bounds argument).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	r.mu.RLock()
	h := r.histograms[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h := r.histograms[name]; h != nil {
		return h
	}
	r.checkFreeLocked(name, "histogram")
	if len(bounds) == 0 {
		panic(fmt.Sprintf("obs: histogram %q needs at least one bucket bound", name))
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not increasing at %d", name, i))
		}
	}
	h = &Histogram{
		help:   help,
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
	r.histograms[name] = h
	return h
}

// checkFreeLocked panics when name is already registered as another kind.
func (r *Registry) checkFreeLocked(name, kind string) {
	if _, ok := r.counters[name]; ok {
		panic(fmt.Sprintf("obs: %q already registered as counter, not %s", name, kind))
	}
	if _, ok := r.gauges[name]; ok {
		panic(fmt.Sprintf("obs: %q already registered as gauge, not %s", name, kind))
	}
	if _, ok := r.histograms[name]; ok {
		panic(fmt.Sprintf("obs: %q already registered as histogram, not %s", name, kind))
	}
	if _, ok := r.counterVecs[name]; ok {
		panic(fmt.Sprintf("obs: %q already registered as counter vector, not %s", name, kind))
	}
	if _, ok := r.gaugeVecs[name]; ok {
		panic(fmt.Sprintf("obs: %q already registered as gauge vector, not %s", name, kind))
	}
	if _, ok := r.histogramVecs[name]; ok {
		panic(fmt.Sprintf("obs: %q already registered as histogram vector, not %s", name, kind))
	}
}
