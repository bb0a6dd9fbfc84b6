// Package rosd implements the RoS read service: a zero-dependency HTTP/JSON
// daemon serving batched drive-by reads for many radar+scene configurations
// from one process. Each radar front end gets one engine.Engine, shared by
// every scene read through it, from a capacity-bounded LRU (eviction closes
// the engine, releasing its caches and metric entries deterministically), so
// resident memory tracks the radar configurations in use instead of growing
// with every configuration ever seen — the failure mode the process-global
// caches had.
//
// Admission happens in two layers. Per tenant, a token bucket enforces each
// tenant's quota (Config.TenantRate/TenantBurst): a read past its tenant's
// quota answers a typed overload error — 429 for the whole batch when every
// read in it is over quota — so one flooding tenant is throttled at the door
// while the others keep their goodput. Globally, when accepting a batch
// would push admitted in-flight reads past Config.MaxQueueDepth, the batch
// is refused with HTTP 429 and an "overload" error body (roserr.ErrOverload)
// instead of being queued into an unbounded latency tail.
//
// Admitted reads do not run immediately: they queue per tenant and a fixed
// executor pool (Config.ExecWorkers) dequeues them in weighted round-robin
// order across tenants, so a tenant with a deep backlog delays only itself.
// Each read carries a deadline from its request (deadline_ms) or the
// server's ReadTimeout, measured from admission — a read whose deadline
// expires while still queued is shed with a typed "cancelled" result without
// burning a worker. Within an admitted batch, requests stay independent: one
// tenant's injected fault or bad configuration yields a typed per-request
// error in the response array and never fails the batch (extending the
// per-frame degradation contract of the read pipeline to the service
// boundary).
//
// Shutdown is graceful by default: Drain flips /readyz to 503, refuses new
// batches with a typed 503 "draining" body, finishes every admitted read
// within the drain budget, then flushes the flight recorder and a final
// metrics snapshot. Close is the hard variant.
//
// See docs/ROSD.md for the API reference and capacity tuning.
package rosd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ros/internal/em"
	"ros/internal/fault"
	"ros/internal/obs"
	"ros/internal/obs/httpserve"
	"ros/internal/roserr"
	"ros/internal/sim"
)

// Service metrics. Package-level because an obs.Registry panics on duplicate
// registration and tests start several servers per process. Tenant is a
// caller-supplied label; the vec's labelset cap routes an abusive cardinality
// flood to the overflow child rather than growing without bound.
var (
	mReads = obs.Default.CounterVec("ros_rosd_reads_total",
		"Read requests served, by tenant and outcome.", "tenant", "outcome")
	hReadSeconds = obs.Default.HistogramVec("ros_rosd_read_seconds",
		"Wall time of one read request inside an admitted batch.",
		obs.LogBuckets(1e-4, 10, 2), "tenant")
	hQueueDepth = obs.Default.Histogram("ros_rosd_queue_depth",
		"In-flight reads observed at each batch admission decision.",
		obs.LinearBuckets(0, 8, 33))
	mBatches = obs.Default.Counter("ros_rosd_batches_total",
		"Read batches admitted.")
	mOverload = obs.Default.Counter("ros_rosd_overload_total",
		"Read batches refused by admission control (HTTP 429).")
	gInflight = obs.Default.Gauge("ros_rosd_inflight_reads",
		"Reads currently executing.")
	gEngines = obs.Default.Gauge("ros_rosd_engines_resident",
		"Engines resident in the configuration LRU.")
	mEngineHits = obs.Default.Counter("ros_rosd_engine_hits_total",
		"Batch requests that found their configuration's engine resident.")
	mEngineMisses = obs.Default.Counter("ros_rosd_engine_misses_total",
		"Batch requests that built a fresh engine for their configuration.")
	mEvictions = obs.Default.Counter("ros_rosd_engine_evictions_total",
		"Engines evicted (and closed) to stay under the LRU capacity.")
	mTenantThrottled = obs.Default.CounterVec("ros_rosd_tenant_throttled_total",
		"Reads refused by a tenant's token bucket (quota exceeded).", "tenant")
	gTenantQueue = obs.Default.GaugeVecCapacity("ros_rosd_tenant_queue_depth",
		"Reads queued per tenant awaiting an executor worker.", 1024, "tenant")
	gQueuedReads = obs.Default.Gauge("ros_rosd_queued_reads",
		"Admitted reads waiting in the fair queue (not yet executing).")
	gTenants = obs.Default.Gauge("ros_rosd_tenants_resident",
		"Tenants resident in the recency-bounded tenant table.")
	mTenantEvictions = obs.Default.Counter("ros_rosd_tenant_evictions_total",
		"Idle tenants evicted from the tenant table past its capacity.")
	mDeadlineShed = obs.Default.Counter("ros_rosd_deadline_shed_total",
		"Reads that reached a worker past their deadline and were shed unexecuted.")
	gReady = obs.Default.Gauge("ros_rosd_ready",
		"Readiness as last probed: 1 serving, 0 draining or browned out.")
	mDrains = obs.Default.Counter("ros_rosd_drains_total",
		"Graceful drains started.")
)

// Outcome labels for ros_rosd_reads_total.
const (
	outcomeOK          = "ok"
	outcomeNoTag       = "no_tag"
	outcomeUndecodable = "undecodable"
	outcomePartial     = "partial"
	outcomeError       = "error"
)

// Config parameterizes a Server. The zero value serves with the defaults
// noted on each field.
type Config struct {
	// Addr is the listen address for Start (default "localhost:0").
	Addr string
	// EngineCapacity bounds the engine LRU, which holds one engine per
	// radar configuration; the least recently used engine is closed when a
	// new radar configuration would exceed it. Default 64.
	EngineCapacity int
	// MaxQueueDepth is the admission limit: a batch is refused with 429
	// when accepting it would push in-flight reads past this depth.
	// Default 256.
	MaxQueueDepth int
	// MaxBatch caps the reads in one batch; larger batches are rejected as
	// configuration errors (HTTP 400). Default 64.
	MaxBatch int
	// ReadTimeout is the default per-read deadline budget, measured from
	// admission (queue wait included); a request's deadline_ms overrides
	// it. Expiry yields a per-request "cancelled" error, and a read whose
	// deadline passes while it is still queued is shed without burning a
	// worker. Default 0 (none).
	ReadTimeout time.Duration
	// ExecWorkers is the executor pool size: how many admitted reads run
	// concurrently (the rest wait in the fair queue). Default GOMAXPROCS.
	ExecWorkers int
	// TenantRate is each tenant's quota in reads per second (token-bucket
	// refill rate); a read past the quota is refused with a typed overload
	// error and counted on ros_rosd_tenant_throttled_total. Default 0
	// (quotas disabled).
	TenantRate float64
	// TenantBurst is the token-bucket depth (reads a tenant may burst
	// above its steady rate). Default max(8, TenantRate).
	TenantBurst float64
	// TenantCapacity bounds the tenant table; past it the least recently
	// seen idle tenant is evicted. Default 256.
	TenantCapacity int
	// TenantWeights sets per-tenant fair-dequeue weights (jobs served per
	// round-robin turn); absent tenants weigh 1.
	TenantWeights map[string]int
	// ShedDepth is the readiness brownout threshold: /readyz reports 503
	// once admitted in-flight reads reach it. Default 90% of
	// MaxQueueDepth.
	ShedDepth int
	// MaxBodyBytes caps the /v1/read request body. Default 1 MiB.
	MaxBodyBytes int64
	// DrainDumpDir, when set, receives flight.json and metrics.json (the
	// flight-recorder ring and a final metrics snapshot) at the end of a
	// graceful drain.
	DrainDumpDir string
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "localhost:0"
	}
	if c.EngineCapacity <= 0 {
		c.EngineCapacity = 64
	}
	if c.MaxQueueDepth <= 0 {
		c.MaxQueueDepth = 256
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.ExecWorkers <= 0 {
		c.ExecWorkers = runtime.GOMAXPROCS(0)
	}
	if c.TenantBurst <= 0 {
		c.TenantBurst = 8
		if c.TenantRate > c.TenantBurst {
			c.TenantBurst = c.TenantRate
		}
	}
	if c.TenantCapacity <= 0 {
		c.TenantCapacity = 256
	}
	if c.ShedDepth <= 0 {
		c.ShedDepth = c.MaxQueueDepth * 9 / 10
		if c.ShedDepth < 1 {
			c.ShedDepth = 1
		}
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	return c
}

// Server is the read service. Construct with New, serve over the network
// with Start or embed Handler in a test server, release with Close (hard
// stop) or Drain (graceful: finish in-flight work first).
type Server struct {
	cfg     Config
	engines *engineLRU
	mux     *http.ServeMux
	queue   *fairQueue

	// admit guards the admission decision so depth checks against
	// MaxQueueDepth are exact rather than racy-increment-then-undo.
	// inflight counts admitted reads — queued plus executing.
	admit    sync.Mutex
	inflight int

	draining atomic.Bool
	workers  sync.WaitGroup
	stopOnce sync.Once

	lis net.Listener
	srv *http.Server
}

// New builds a Server around the observability mux: /metrics, /metrics.json,
// /debug/flight, /debug/vars and /debug/pprof/ come from
// internal/obs/httpserve; the read API mounts at /v1/read, liveness and
// readiness at /healthz and /readyz. The executor worker pool starts
// immediately (Handler works without Start).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		engines: newEngineLRU(cfg.EngineCapacity),
		mux:     httpserve.Mux(nil),
		queue:   newFairQueue(cfg.TenantRate, cfg.TenantBurst, cfg.TenantCapacity, cfg.TenantWeights),
	}
	s.mux.HandleFunc("/v1/read", s.handleRead)
	s.mux.HandleFunc("/healthz", handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	gReady.Set(1)
	for i := 0; i < cfg.ExecWorkers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	return s
}

// Handler returns the server's HTTP handler, for tests and embedding.
func (s *Server) Handler() http.Handler { return s.mux }

// Start listens on cfg.Addr and serves in a background goroutine.
func (s *Server) Start() error {
	lis, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("rosd: listen %s: %w", s.cfg.Addr, err)
	}
	s.lis = lis
	s.srv = &http.Server{Handler: s.mux}
	go func() {
		if err := s.srv.Serve(lis); err != nil && !errors.Is(err, http.ErrServerClosed) {
			obs.Logger().Error("rosd: serve failed", "err", err)
		}
	}()
	obs.Logger().Info("rosd: serving", "addr", lis.Addr().String(),
		"engine_capacity", s.cfg.EngineCapacity, "max_queue_depth", s.cfg.MaxQueueDepth)
	return nil
}

// Addr returns the bound listen address (valid after Start).
func (s *Server) Addr() string {
	if s.lis == nil {
		return ""
	}
	return s.lis.Addr().String()
}

// Close hard-stops the service: the listener closes immediately, queued
// reads that no worker has picked up yet fail with a typed "draining" error
// (so their batch handlers return), executing reads finish, workers exit,
// and every resident engine closes. For a shutdown that finishes in-flight
// work first, use Drain.
func (s *Server) Close() error {
	var err error
	if s.srv != nil {
		err = s.srv.Close()
	}
	s.stop()
	return err
}

// stop shuts the executor down exactly once: fail still-queued jobs, wait
// for workers to finish their current reads, release the engines.
func (s *Server) stop() {
	s.stopOnce.Do(func() {
		for _, j := range s.queue.close() {
			s.failJob(j, fmt.Errorf("rosd: %w: read dropped by hard stop", roserr.ErrDraining))
		}
		s.workers.Wait()
		s.engines.Close()
	})
}

// Drain shuts the service down gracefully: readiness flips to 503 and new
// batches are refused immediately, while in-flight reads (queued and
// executing) finish within the budget. It then flushes the flight recorder
// and a final metrics snapshot (logged, and written to DrainDumpDir when
// configured) and releases every resource. A nil return means zero admitted
// reads were dropped; a budget overrun returns an error naming the count
// still in flight (those are then failed, not abandoned).
func (s *Server) Drain(budget time.Duration) error {
	if !s.draining.CompareAndSwap(false, true) {
		return nil
	}
	mDrains.Inc()
	gReady.Set(0)
	start := time.Now()
	obs.Logger().Info("rosd: draining", "budget", budget)

	deadline := start.Add(budget)
	var drainErr error
	for {
		s.admit.Lock()
		n := s.inflight
		s.admit.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			drainErr = fmt.Errorf("rosd: %w: drain budget %s expired with %d reads in flight",
				roserr.ErrDraining, budget, n)
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if s.srv != nil {
		// In-flight handlers have produced their results; give their
		// response writes a short grace before the connections die.
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		if err := s.srv.Shutdown(ctx); err != nil && drainErr == nil {
			drainErr = fmt.Errorf("rosd: shutdown: %w", err)
		}
		cancel()
	}
	s.flushTelemetry(time.Since(start))
	s.stop()
	return drainErr
}

// Draining reports whether a drain has started (readiness is down and new
// batches are being refused).
func (s *Server) Draining() bool { return s.draining.Load() }

// flushTelemetry logs the final service state and, when DrainDumpDir is set,
// writes the flight-recorder ring and a full metrics snapshot there — the
// post-mortem a crash would have lost.
func (s *Server) flushTelemetry(drainWall time.Duration) {
	dump := obs.DefaultFlight.Dump()
	snap := obs.Default.Snapshot()
	obs.Logger().Info("rosd: drained",
		"wall", drainWall,
		"flight_recorded", dump.Recorded,
		"metric_series", len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms))
	dir := s.cfg.DrainDumpDir
	if dir == "" {
		return
	}
	write := func(name string, fn func(io.Writer) error) {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			obs.Logger().Error("rosd: drain dump failed", "file", name, "err", err)
			return
		}
		err = fn(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			obs.Logger().Error("rosd: drain dump failed", "file", name, "err", err)
		}
	}
	write("flight.json", obs.DefaultFlight.WriteJSON)
	write("metrics.json", obs.Default.WriteJSON)
}

// handleHealthz is liveness: the process is up and serving HTTP.
func handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

// handleReadyz is readiness with load-aware brownout: 503 while draining or
// while admitted in-flight reads sit at or above ShedDepth, so a balancer
// steers traffic away before admission starts returning 429s.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.admit.Lock()
	n := s.inflight
	s.admit.Unlock()
	draining := s.draining.Load()
	ready := !draining && n < s.cfg.ShedDepth
	if ready {
		gReady.Set(1)
	} else {
		gReady.Set(0)
	}
	status := http.StatusOK
	if !ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, map[string]any{
		"ready":      ready,
		"draining":   draining,
		"inflight":   n,
		"shed_depth": s.cfg.ShedDepth,
	})
}

// BatchRequest is the body of POST /v1/read.
type BatchRequest struct {
	Reads []ReadRequest `json:"reads"`
}

// ReadRequest configures one drive-by read inside a batch. The zero value of
// every field keeps the corresponding simulator default (32-module tag at a
// 3 m standoff, 2 m/s, clear weather).
type ReadRequest struct {
	// Tenant labels the request's metrics; empty renders as "default".
	Tenant string `json:"tenant,omitempty"`
	// Bits is the tag's encoded bit string (required).
	Bits string `json:"bits"`
	// StackModules is the number of PSVAAs per stack (8, 16 or 32).
	StackModules int `json:"stack_modules,omitempty"`
	// Standoff is the closest radar-to-tag distance in meters.
	Standoff float64 `json:"standoff,omitempty"`
	// SpeedMPS is the vehicle speed in m/s.
	SpeedMPS float64 `json:"speed_mps,omitempty"`
	// HeightOffset is the radar-vs-tag-center height mismatch in meters.
	HeightOffset float64 `json:"height_offset,omitempty"`
	// Fog selects the weather: "", "clear", "light" or "heavy".
	Fog string `json:"fog,omitempty"`
	// TrackingError is the relative self-tracking drift.
	TrackingError float64 `json:"tracking_error,omitempty"`
	// WithClutter surrounds the tag with the roadside object lineup.
	WithClutter bool `json:"with_clutter,omitempty"`
	// Commercial swaps in the commercial automotive front end (Sec 8).
	Commercial bool `json:"commercial,omitempty"`
	// FrameBudget caps the simulated frames (0 keeps the default 280).
	FrameBudget int `json:"frame_budget,omitempty"`
	// Workers caps the frame-loop worker pool (0 uses GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
	// Seed drives the read's randomness.
	Seed int64 `json:"seed,omitempty"`
	// DeadlineMS is this read's deadline budget in milliseconds, measured
	// from admission (queue wait included); it overrides the server's
	// -read-timeout. A read whose deadline passes while still queued is
	// shed with a typed "cancelled" error without executing. 0 keeps the
	// server default.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Fault enables deterministic fault injection for this read only.
	Fault *FaultRequest `json:"fault,omitempty"`
}

// FaultRequest is the JSON shape of a per-read fault injection plan.
type FaultRequest struct {
	Seed        int64   `json:"seed,omitempty"`
	DropRate    float64 `json:"drop_rate,omitempty"`
	CorruptRate float64 `json:"corrupt_rate,omitempty"`
	BurstRate   float64 `json:"burst_rate,omitempty"`
	PanicRate   float64 `json:"panic_rate,omitempty"`
	DelayRate   float64 `json:"delay_rate,omitempty"`
}

// BatchResponse is the body of a 200 response: Results[i] answers Reads[i].
type BatchResponse struct {
	Results []ReadResult `json:"results"`
	// EnginesResident is the LRU occupancy after the batch.
	EnginesResident int `json:"engines_resident"`
}

// ReadResult reports one read. Error is nil on success; a failed read keeps
// whatever partial fields the pipeline produced alongside the typed error.
type ReadResult struct {
	Tenant          string  `json:"tenant,omitempty"`
	Detected        bool    `json:"detected"`
	Bits            string  `json:"bits,omitempty"`
	SNRdB           float64 `json:"snr_db,omitempty"`
	BER             float64 `json:"ber,omitempty"`
	MedianRSSdBm    float64 `json:"median_rss_dbm,omitempty"`
	Samples         int     `json:"samples,omitempty"`
	Partial         bool    `json:"partial,omitempty"`
	FramesCompleted int     `json:"frames_completed,omitempty"`
	FramesDropped   int     `json:"frames_dropped,omitempty"`
	// Engine is the radar-configuration fingerprint keying the engine that
	// served the read (the "engine" label of ros_engine_cache_entries);
	// every read on one radar front end reports the same id.
	Engine string     `json:"engine,omitempty"`
	WallMS float64    `json:"wall_ms"`
	Error  *ErrorInfo `json:"error,omitempty"`
}

// ErrorInfo is the typed JSON rendering of a read or batch error.
type ErrorInfo struct {
	// Kind is the stable taxonomy tag: "config", "cancelled",
	// "frame_corrupt", "no_tag", "undecodable", "worker_panic",
	// "overload" or "internal".
	Kind string `json:"kind"`
	// Message is the human-readable error chain.
	Message string `json:"message"`
}

// errorKind maps an error chain onto its stable JSON kind via the roserr
// taxonomy (roserr.Kind is shared with the client, which parses the kind
// back into the matching sentinel).
func errorKind(err error) string { return roserr.Kind(err) }

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(body); err != nil {
		obs.Logger().Error("rosd: response encode failed", "err", err)
	}
}

func writeError(w http.ResponseWriter, status int, kind, format string, args ...any) {
	writeJSON(w, status, map[string]*ErrorInfo{
		"error": {Kind: kind, Message: fmt.Sprintf(format, args...)},
	})
}

// tryAdmit atomically admits n reads against MaxQueueDepth, reporting the
// depth observed at the decision and whether the batch was admitted.
func (s *Server) tryAdmit(n int) (depth int, ok bool) {
	s.admit.Lock()
	defer s.admit.Unlock()
	depth = s.inflight
	if depth+n > s.cfg.MaxQueueDepth {
		return depth, false
	}
	s.inflight += n
	gInflight.Set(float64(s.inflight))
	return depth, true
}

// release returns one read's admission slot.
func (s *Server) release() {
	s.admit.Lock()
	s.inflight--
	gInflight.Set(float64(s.inflight))
	s.admit.Unlock()
}

// handleRead serves POST /v1/read: decode (hardened: body size cap, unknown
// fields rejected), refuse while draining, draw each read's tenant quota
// token, admit the remainder against the global gate, enqueue on the fair
// queue, and collect per-request results.
func (s *Server) handleRead(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "config", "use POST")
		return
	}
	if s.draining.Load() {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "draining",
			"%v: shutting down, admissions closed", roserr.ErrDraining)
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	var batch BatchRequest
	if err := dec.Decode(&batch); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "config",
				"body exceeds the %d-byte limit", tooBig.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "config", "malformed batch: %v", err)
		return
	}
	if dec.More() {
		writeError(w, http.StatusBadRequest, "config", "trailing data after batch")
		return
	}
	if len(batch.Reads) == 0 {
		writeError(w, http.StatusBadRequest, "config", "empty batch")
		return
	}
	if len(batch.Reads) > s.cfg.MaxBatch {
		writeError(w, http.StatusBadRequest, "config",
			"batch of %d exceeds the %d-read limit", len(batch.Reads), s.cfg.MaxBatch)
		return
	}

	// Per-tenant quota: each read draws a token from its tenant's bucket.
	// Throttled reads answer in-result; a batch with nothing admittable
	// (the single-tenant flood case) is refused whole with 429 so the
	// client's backoff sees the same signal queue overload sends.
	now := time.Now()
	results := make([]ReadResult, len(batch.Reads))
	admitted := make([]bool, len(batch.Reads))
	nAdmit, throttled := 0, 0
	var maxWait time.Duration
	for i := range batch.Reads {
		tenant := displayTenant(batch.Reads[i].Tenant)
		ok, wait := s.queue.throttle(tenant, now)
		if !ok {
			throttled++
			if wait > maxWait {
				maxWait = wait
			}
			results[i] = throttledResult(batch.Reads[i], wait)
			continue
		}
		admitted[i] = true
		nAdmit++
	}
	if nAdmit == 0 && throttled > 0 {
		w.Header().Set("Retry-After", retryAfterSeconds(maxWait))
		writeError(w, http.StatusTooManyRequests, "overload",
			"%v: tenant quota exceeded for all %d reads", roserr.ErrOverload, throttled)
		return
	}

	depth, ok := s.tryAdmit(nAdmit)
	hQueueDepth.Observe(float64(depth))
	if !ok {
		// The tokens were drawn but no work ran; refund them so quota
		// accounting tracks admitted work only.
		for i := range batch.Reads {
			if admitted[i] {
				s.queue.refund(displayTenant(batch.Reads[i].Tenant), 1)
			}
		}
		mOverload.Inc()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "overload",
			"%v: %d reads in flight, %d-read batch exceeds queue depth %d",
			roserr.ErrOverload, depth, nAdmit, s.cfg.MaxQueueDepth)
		return
	}
	mBatches.Inc()

	var wg sync.WaitGroup
	for i := range batch.Reads {
		if !admitted[i] {
			continue
		}
		wg.Add(1)
		j := &job{
			req:      batch.Reads[i],
			ctx:      r.Context(),
			deadline: readDeadline(now, batch.Reads[i], s.cfg.ReadTimeout),
			enqueued: now,
			res:      &results[i],
			wg:       &wg,
		}
		if !s.queue.push(displayTenant(j.req.Tenant), j) {
			// Closed between the draining check and here: fail in-result.
			wg.Done()
			s.release()
			results[i] = ReadResult{Tenant: j.req.Tenant, Error: &ErrorInfo{
				Kind:    "draining",
				Message: fmt.Sprintf("rosd: %v: shutting down", roserr.ErrDraining),
			}}
		}
	}
	wg.Wait()
	writeJSON(w, http.StatusOK, BatchResponse{
		Results:         results,
		EnginesResident: s.engines.Len(),
	})
}

// displayTenant resolves the metrics/queueing label of a request's tenant.
func displayTenant(tenant string) string {
	if tenant == "" {
		return "default"
	}
	return tenant
}

// readDeadline computes a read's absolute deadline at admission: the
// request's deadline_ms budget when set, else the server's ReadTimeout,
// else none. Queue wait counts against it — that is the point.
func readDeadline(now time.Time, req ReadRequest, fallback time.Duration) time.Time {
	if req.DeadlineMS > 0 {
		return now.Add(time.Duration(req.DeadlineMS) * time.Millisecond)
	}
	if fallback > 0 {
		return now.Add(fallback)
	}
	return time.Time{}
}

// retryAfterSeconds renders a wait as a Retry-After header value, rounded up
// to at least one second.
func retryAfterSeconds(wait time.Duration) string {
	secs := int(math.Ceil(wait.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// throttledResult answers a read refused by its tenant's token bucket.
func throttledResult(req ReadRequest, wait time.Duration) ReadResult {
	res := ReadResult{Tenant: req.Tenant, Error: &ErrorInfo{
		Kind: "overload",
		Message: fmt.Sprintf("rosd: %v: tenant %q over quota, retry in %s",
			roserr.ErrOverload, displayTenant(req.Tenant), wait.Round(time.Millisecond)),
	}}
	mReads.With(displayTenant(req.Tenant), outcomeError).Inc()
	return res
}

// worker is one executor: it serves jobs in the fair queue's order until the
// queue closes.
func (s *Server) worker() {
	defer s.workers.Done()
	for {
		j, ok := s.queue.pop()
		if !ok {
			return
		}
		s.execute(j)
	}
}

// execute runs one dequeued job. A job whose deadline already passed while
// queued is shed with the typed cancelled result instead of burning the
// worker on a doomed read.
func (s *Server) execute(j *job) {
	defer j.wg.Done()
	defer s.release()
	if !j.deadline.IsZero() && !time.Now().Before(j.deadline) {
		mDeadlineShed.Inc()
		tenant := displayTenant(j.req.Tenant)
		*j.res = ReadResult{Tenant: j.req.Tenant, Error: &ErrorInfo{
			Kind: "cancelled",
			Message: fmt.Sprintf("rosd: %v: %v: deadline expired after %s in queue, read not started",
				roserr.ErrReadCancelled, context.DeadlineExceeded,
				time.Since(j.enqueued).Round(time.Millisecond)),
		}}
		mReads.With(tenant, outcomeError).Inc()
		return
	}
	ctx := j.ctx
	if !j.deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, j.deadline)
		defer cancel()
	}
	*j.res = s.runOne(ctx, j.req)
}

// failJob answers a job the executor will never run (hard stop or drain
// budget overrun) so its batch handler unblocks.
func (s *Server) failJob(j *job, err error) {
	*j.res = ReadResult{Tenant: j.req.Tenant, Error: &ErrorInfo{
		Kind:    errorKind(err),
		Message: err.Error(),
	}}
	mReads.With(displayTenant(j.req.Tenant), outcomeError).Inc()
	j.wg.Done()
	s.release()
}

// runOne executes one read of an admitted batch. It never panics the batch:
// pipeline worker panics already degrade inside the simulator, and a panic
// in this frame (a service bug) is recovered into a "worker_panic" result.
func (s *Server) runOne(ctx context.Context, req ReadRequest) (res ReadResult) {
	tenant := req.Tenant
	if tenant == "" {
		tenant = "default"
	}
	res.Tenant = req.Tenant
	start := time.Now()
	defer func() {
		if p := recover(); p != nil {
			res.Error = &ErrorInfo{
				Kind:    "worker_panic",
				Message: fmt.Sprintf("%v: rosd handler: %v", roserr.ErrWorkerPanic, p),
			}
			obs.Logger().Error("rosd: handler panic", "panic", p,
				"stack", string(debug.Stack()))
		}
		wall := time.Since(start)
		res.WallMS = float64(wall.Nanoseconds()) / 1e6
		hReadSeconds.With(tenant).Observe(wall.Seconds())
		mReads.With(tenant, resultOutcome(&res)).Inc()
	}()

	cfg, err := driveByFor(req)
	if err != nil {
		res.Error = &ErrorInfo{Kind: errorKind(err), Message: err.Error()}
		return res
	}
	eng, key := s.engines.get(cfg)
	cfg.Engine = eng
	res.Engine = key

	out, err := sim.RunContext(ctx, cfg)
	if out != nil {
		res.Detected = out.Detected
		res.Bits = out.Bits
		// JSON has no infinities: an undetected pass reports SNR -Inf,
		// which would abort the whole batch encode. Zero-with-omitempty
		// renders those fields absent instead.
		res.SNRdB = finite(out.SNRdB)
		res.BER = finite(out.BER)
		res.MedianRSSdBm = finite(out.MedianRSSdBm)
		res.Samples = out.Samples
		res.Partial = out.Partial
		res.FramesCompleted = out.FramesCompleted
		res.FramesDropped = out.FramesDropped
		// The service exposes the flat JSON view only; return the span tree
		// to the pool (dropping the Detection's alias into it first).
		if out.Detection != nil {
			out.Detection.Span = nil
		}
		out.Span.Release()
		out.Span = nil
	}
	if err != nil {
		res.Error = &ErrorInfo{Kind: errorKind(err), Message: err.Error()}
	}
	return res
}

// finite clamps NaN and ±Inf to zero for JSON encoding.
func finite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}

// resultOutcome labels a finished read for ros_rosd_reads_total.
func resultOutcome(res *ReadResult) string {
	switch {
	case res.Partial:
		return outcomePartial
	case res.Error != nil:
		return outcomeError
	case !res.Detected:
		return outcomeNoTag
	case res.Bits == "":
		return outcomeUndecodable
	}
	return outcomeOK
}

// driveByFor translates a wire request into a validated pass configuration.
func driveByFor(req ReadRequest) (sim.DriveBy, error) {
	if req.Bits == "" {
		return sim.DriveBy{}, fmt.Errorf("rosd: %w: empty bits", roserr.ErrConfig)
	}
	var fog em.FogLevel
	switch req.Fog {
	case "", "clear":
		fog = em.FogClear
	case "light":
		fog = em.FogLight
	case "heavy":
		fog = em.FogHeavy
	default:
		return sim.DriveBy{}, fmt.Errorf("rosd: %w: unknown fog level %q", roserr.ErrConfig, req.Fog)
	}
	cfg := sim.DriveBy{
		Bits:          req.Bits,
		StackModules:  req.StackModules,
		Standoff:      req.Standoff,
		Speed:         req.SpeedMPS,
		HeightOffset:  req.HeightOffset,
		Fog:           fog,
		TrackingError: req.TrackingError,
		WithClutter:   req.WithClutter,
		FrameBudget:   req.FrameBudget,
		Workers:       req.Workers,
		Seed:          req.Seed,
	}
	if req.Commercial {
		rc := radarDefault()
		rc.FrontEnd = em.CommercialRadar()
		cfg.Radar = &rc
	}
	if f := req.Fault; f != nil {
		cfg.Fault = &fault.Config{
			Seed:          f.Seed,
			FrameDropRate: f.DropRate,
			CorruptRate:   f.CorruptRate,
			BurstRate:     f.BurstRate,
			PanicRate:     f.PanicRate,
			DelayRate:     f.DelayRate,
		}
	}
	if err := cfg.Validate(); err != nil {
		return sim.DriveBy{}, err
	}
	return cfg, nil
}
