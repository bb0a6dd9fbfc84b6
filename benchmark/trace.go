package benchmark

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ros/internal/obs"
)

// Span is one benchmark-side interval around a call into a layer. Spans of
// one operation share Op (the id of its root span); Parent links a span to
// the span that caused it.
type Span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent,omitempty"`
	Op     int64   `json:"op"`
	Name   string  `json:"name"`
	Lane   int     `json:"lane"`
	Start  float64 `json:"start_us"`
	Dur    float64 `json:"dur_us"`
}

// recorder keeps spans and per-layer samples in memory until the run ends.
// It records only while on, so a traced run can interleave untraced rounds
// and measure what recording costs.
type recorder struct {
	epoch time.Time
	on    atomic.Bool
	ids   atomic.Int64

	mu      sync.Mutex
	spans   []Span
	samples map[string][]float64
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), samples: map[string][]float64{}}
}

// active reports whether spans and samples are being kept; a nil recorder
// (tracing off) never is.
func (r *recorder) active() bool { return r != nil && r.on.Load() }

// newID allocates a span id; ids are positive so 0 means "no parent".
func (r *recorder) newID() int64 { return r.ids.Add(1) }

// span records a finished interval.
func (r *recorder) span(s Span, start, end time.Time) {
	if !r.active() {
		return
	}
	s.Start = float64(start.Sub(r.epoch).Nanoseconds()) / 1e3
	s.Dur = float64(end.Sub(start).Nanoseconds()) / 1e3
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// sample records one per-layer observation under name.
func (r *recorder) sample(name string, v float64) {
	if !r.active() {
		return
	}
	r.mu.Lock()
	r.samples[name] = append(r.samples[name], v)
	r.mu.Unlock()
}

// durationsByOp returns the durations in ms of the spans named name, keyed
// by operation and summed within one (a retried call has several attempts).
func durationsByOp(spans []Span, name string) map[int64]float64 {
	out := map[int64]float64{}
	for _, s := range spans {
		if s.Name == name {
			out[s.Op] += s.Dur / 1e3
		}
	}
	return out
}

func values(m map[int64]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

// opCtx is what an operation hands the HTTP transport through its
// context.Context: the operation's root span, which parents each attempt,
// and the caller lane.
type opCtx struct {
	op   int64
	lane int
}

type opKey struct{}

// opHeader carries "op:parent:lane" from the client's transport to the
// server's handler wrapper, joining the two sides of one request.
const opHeader = "X-Bench-Op"

// tracingTransport records one span per HTTP attempt and stamps the
// attempt's span id into the request for the handler wrapper.
type tracingTransport struct {
	rec  *recorder
	next http.RoundTripper
}

func (t *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	o, ok := req.Context().Value(opKey{}).(opCtx)
	if !ok || !t.rec.active() {
		return t.next.RoundTrip(req)
	}
	id := t.rec.newID()
	// RoundTrip must not modify the caller's request; stamp a clone.
	req = req.Clone(req.Context())
	req.Header.Set(opHeader, fmt.Sprintf("%d:%d:%d", o.op, id, o.lane))
	start := time.Now()
	resp, err := t.next.RoundTrip(req)
	t.rec.span(Span{ID: id, Parent: o.op, Op: o.op, Name: "http.RoundTrip", Lane: o.lane}, start, time.Now())
	return resp, err
}

// tracingHandler times the wrapped handler for requests that carry an
// operation header.
func tracingHandler(rec *recorder, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parts := strings.Split(r.Header.Get(opHeader), ":")
		if len(parts) != 3 {
			next.ServeHTTP(w, r)
			return
		}
		op, err1 := strconv.ParseInt(parts[0], 10, 64)
		parent, err2 := strconv.ParseInt(parts[1], 10, 64)
		lane, err3 := strconv.Atoi(parts[2])
		if err1 != nil || err2 != nil || err3 != nil {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		next.ServeHTTP(w, r)
		rec.span(Span{ID: rec.newID(), Parent: parent, Op: op, Name: "rosd.handler", Lane: lane}, start, time.Now())
	})
}

// WriteChromeTrace writes the spans of each report as Chrome trace_event
// JSON (loadable in Perfetto or chrome://tracing): one process per workload,
// one thread per caller lane, and the span, parent and operation ids in each
// event's args.
func WriteChromeTrace(w io.Writer, reports []*Report) error {
	var events []obs.TraceEvent
	for i, rep := range reports {
		pid := i + 1
		events = append(events, obs.TraceEvent{Name: "process_name", Ph: "M", PID: pid,
			Args: map[string]any{"name": rep.Workload}})
		for _, s := range rep.Spans {
			events = append(events, obs.TraceEvent{
				Name: s.Name, Ph: "X", TS: s.Start, Dur: s.Dur, PID: pid, TID: s.Lane,
				Args: map[string]any{"id": s.ID, "parent": s.Parent, "op": s.Op},
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(obs.TraceDoc{TraceEvents: events, DisplayTimeUnit: "ms"})
}
