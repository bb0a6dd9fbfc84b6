// Package obs is the repo's zero-dependency observability substrate:
// hierarchical spans for per-stage timing of the read pipeline, a concurrent
// metrics registry (counters, gauges, log-bucket histograms) with Prometheus
// and JSON exposition, and a package-level structured logger. Everything in
// the hot path is lock-free (atomic adds, pooled span nodes) so instrumenting
// the per-frame radar loop costs well under the 2% budget guarded by
// BenchmarkSpanOverhead, and nothing here draws randomness or feeds back into
// the simulation, so instrumented runs stay byte-deterministic.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one span attribute (frame count, FFT size, worker count, ...).
type Attr struct {
	Key   string
	Value any
}

// Span is one node of a trace tree. It carries two notions of time:
//
//   - wall time, the Start..End interval of the span itself, and
//   - self time, durations accumulated with Add — the worker-summed CPU
//     time of a stage that runs concurrently on a pool, where a wall-clock
//     interval would undercount the work by the worker count.
//
// Duration returns self time when any was accumulated and wall time
// otherwise, so stage views read uniformly. All methods are safe for
// concurrent use; Add is a single atomic add, cheap enough for per-frame
// accounting.
type Span struct {
	name   string
	start  time.Time
	wallNS atomic.Int64
	selfNS atomic.Int64

	mu       sync.Mutex
	attrs    []Attr
	children []*Span
}

var spanPool = sync.Pool{New: func() any { return new(Span) }}

// StartSpan begins a new root span.
func StartSpan(name string) *Span {
	s := spanPool.Get().(*Span)
	s.name = name
	s.start = time.Now()
	s.wallNS.Store(0)
	s.selfNS.Store(0)
	s.attrs = s.attrs[:0]
	s.children = s.children[:0]
	return s
}

// StartChild begins a child span under s.
func (s *Span) StartChild(name string) *Span {
	c := StartSpan(name)
	s.Adopt(c)
	return c
}

// Adopt attaches an existing span (and its subtree) as a child of s.
func (s *Span) Adopt(child *Span) {
	if child == nil {
		return
	}
	s.mu.Lock()
	s.children = append(s.children, child)
	s.mu.Unlock()
}

// End records the span's wall duration. Calling End again overwrites it.
func (s *Span) End() {
	s.wallNS.Store(time.Since(s.start).Nanoseconds())
}

// Add accumulates worker-summed self time. It is a single atomic add.
func (s *Span) Add(d time.Duration) {
	s.selfNS.Add(d.Nanoseconds())
}

// Name returns the span name.
func (s *Span) Name() string { return s.name }

// Wall returns the End-recorded wall duration (0 before End).
func (s *Span) Wall() time.Duration { return time.Duration(s.wallNS.Load()) }

// Self returns the Add-accumulated worker-summed duration.
func (s *Span) Self() time.Duration { return time.Duration(s.selfNS.Load()) }

// Duration returns the span's stage time: self time when any was
// accumulated, wall time otherwise.
func (s *Span) Duration() time.Duration {
	if self := s.selfNS.Load(); self != 0 {
		return time.Duration(self)
	}
	return time.Duration(s.wallNS.Load())
}

// SetAttr sets an attribute, overwriting an existing key.
func (s *Span) SetAttr(key string, value any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Value = value
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// Attr returns the attribute value for key, or nil when unset.
func (s *Span) Attr(key string) any {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			return s.attrs[i].Value
		}
	}
	return nil
}

// IntAttr returns an integer attribute (int or int64), or 0 when unset.
func (s *Span) IntAttr(key string) int64 {
	switch v := s.Attr(key).(type) {
	case int:
		return int64(v)
	case int64:
		return v
	}
	return 0
}

// Child returns the first direct child with the given name, or nil.
func (s *Span) Child(name string) *Span {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.children {
		if c.name == name {
			return c
		}
	}
	return nil
}

// Children returns a copy of the direct children.
func (s *Span) Children() []*Span {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// ChildDuration is shorthand for the named child's Duration (0 when the
// child does not exist) — the accessor Stats views are built from.
func (s *Span) ChildDuration(name string) time.Duration {
	if c := s.Child(name); c != nil {
		return c.Duration()
	}
	return 0
}

// Release returns the span and its whole subtree to the pool. The caller
// must not touch the span afterwards; only release trees that no result
// struct still references.
func (s *Span) Release() {
	if s == nil {
		return
	}
	s.mu.Lock()
	children := s.children
	s.children = nil
	s.mu.Unlock()
	for _, c := range children {
		c.Release()
	}
	spanPool.Put(s)
}

// SpanView is the JSON-friendly rendering of a span tree, embedded in
// flight-recorder entries and rosbench's -json record.
type SpanView struct {
	Name     string         `json:"name"`
	WallMs   float64        `json:"wall_ms,omitempty"`
	SelfMs   float64        `json:"self_ms,omitempty"`
	Attrs    map[string]any `json:"attrs,omitempty"`
	Children []SpanView     `json:"children,omitempty"`
}

// View snapshots the span tree into a SpanView.
func (s *Span) View() SpanView {
	v := SpanView{
		Name:   s.name,
		WallMs: float64(s.wallNS.Load()) / 1e6,
		SelfMs: float64(s.selfNS.Load()) / 1e6,
	}
	s.mu.Lock()
	if len(s.attrs) > 0 {
		v.Attrs = make(map[string]any, len(s.attrs))
		for _, a := range s.attrs {
			v.Attrs[a.Key] = a.Value
		}
	}
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range children {
		v.Children = append(v.Children, c.View())
	}
	return v
}
