package benchmark

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"ros/internal/rosclient"
	"ros/internal/rosd"
)

// The rosd workloads' reads: an unshaped 32-module "1111" tag (the service
// default) at 96 frames on one worker. 48 and 80 frames decode this tag
// wrong ("1100" and "1110"); 96 is the smallest tested budget that decodes
// it right.
const (
	rosdBits     = "1111"
	rosdFrames   = 96
	batchReads   = 4
	rosdTenants  = 4
	rosdCallers  = 2
	standoffLow  = 2.6
	standoffSpan = 0.3
)

// rosdSteady serves warm reads: 8 configurations under the default
// 64-engine LRU, so every batch after the first round finds its engines
// resident and the service path itself is what is measured.
func rosdSteady() Workload { return serviceWorkload("rosd-steady", 8, 64) }

// rosdChurn cycles 48 configurations through a 16-engine LRU, so nearly
// every read builds an engine and fills cold caches.
func rosdChurn() Workload { return serviceWorkload("rosd-churn", 48, 16) }

// serviceWorkload is a closed loop of 2 rosclient callers posting 4-read
// single-tenant batches, round-robin over 4 tenants, to an in-process rosd
// on loopback with its default executor pool. Consecutive reads cycle
// through configs configurations.
func serviceWorkload(name string, configs, capacity int) Workload {
	return Workload{
		Name:    name,
		Units:   25,
		Callers: rosdCallers,
		open: func(_ context.Context, _ Workload, e *env) (runner, error) {
			return openService(e, configs, capacity)
		},
	}
}

// service drives one in-process rosd.
type service struct {
	env       *env
	configs   int
	srv       *rosd.Server
	hs        *http.Server
	served    chan struct{}
	transport *http.Transport
	client    *rosclient.Client

	mu sync.Mutex
	// serviceMS sums the reads' server-reported service time per traced
	// operation.
	serviceMS map[int64]float64
}

func openService(e *env, configs, capacity int) (*service, error) {
	srv := rosd.New(rosd.Config{EngineCapacity: capacity})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("benchmark: listen: %w", err)
	}
	transport := &http.Transport{MaxConnsPerHost: rosdCallers, MaxIdleConnsPerHost: rosdCallers}
	handler, rt := srv.Handler(), http.RoundTripper(transport)
	if e.rec != nil {
		handler = tracingHandler(e.rec, handler)
		rt = &tracingTransport{rec: e.rec, next: transport}
	}
	s := &service{
		env:       e,
		configs:   configs,
		srv:       srv,
		hs:        &http.Server{Handler: handler},
		served:    make(chan struct{}),
		transport: transport,
		serviceMS: map[int64]float64{},
	}
	go func() {
		defer close(s.served)
		if err := s.hs.Serve(lis); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "benchmark: serve: %v\n", err)
		}
	}()
	s.client = rosclient.New(rosclient.Config{
		BaseURL:    "http://" + lis.Addr().String(),
		HTTPClient: &http.Client{Transport: rt},
		Seed:       uint64(e.seed),
	})
	return s, nil
}

// batch builds operation u: read j is the stream's read n = 4u+j, with
// configuration n mod configs and seed+n as its seed; tenants rotate per
// batch.
func (s *service) batch(u int64) rosd.BatchRequest {
	b := rosd.BatchRequest{Reads: make([]rosd.ReadRequest, batchReads)}
	tenant := fmt.Sprintf("tenant-%d", mod(u, rosdTenants))
	for j := range b.Reads {
		n := u*batchReads + int64(j)
		c := mod(n, s.configs)
		b.Reads[j] = rosd.ReadRequest{
			Tenant:      tenant,
			Bits:        rosdBits,
			Standoff:    standoffLow + standoffSpan*float64(c)/float64(s.configs-1),
			FrameBudget: rosdFrames,
			Workers:     1,
			Seed:        s.env.seed + n,
		}
	}
	return b
}

func mod(a int64, m int) int {
	r := int(a % int64(m))
	if r < 0 {
		r += m
	}
	return r
}

func (s *service) unit(ctx context.Context, u int64, lane int) unitResult {
	req := s.batch(u)
	rec := s.env.rec
	var op int64
	if rec.active() {
		op = rec.newID()
		ctx = context.WithValue(ctx, opKey{}, opCtx{op: op, lane: lane})
	}
	var resp rosd.BatchResponse
	start := time.Now()
	err := s.client.Do(ctx, "/v1/read", req, &resp)
	end := time.Now()
	res := unitResult{lat: []float64{ms(end.Sub(start))}, reads: len(req.Reads)}
	if op != 0 {
		rec.span(Span{ID: op, Op: op, Name: "rosclient.Client.Do", Lane: lane}, start, end)
	}
	if err != nil || len(resp.Results) != len(req.Reads) {
		// A refusal left after retries, a transport failure or a short
		// answer fails every read of the batch.
		res.fails = len(req.Reads)
		return res
	}
	total := 0.0
	for i, r := range resp.Results {
		if r.Error != nil || r.Bits != req.Reads[i].Bits {
			res.fails++
		}
		total += r.WallMS
		if op != 0 {
			rec.sample("rosd.read_service_ms", r.WallMS)
		}
	}
	if op != 0 {
		s.mu.Lock()
		s.serviceMS[op] = total
		s.mu.Unlock()
	}
	return res
}

func (s *service) layers(l layerSet, t *traceData) {
	calls := durationsByOp(t.spans, "rosclient.Client.Do")
	handlers := durationsByOp(t.spans, "rosd.handler")
	s.mu.Lock()
	defer s.mu.Unlock()
	// The executor pool runs GOMAXPROCS reads at once (rosd's default), so
	// a batch's reads occupy about Σservice/workers of its handler time.
	workers := float64(runtime.GOMAXPROCS(0))
	var transport, nonservice []float64
	for op, h := range handlers {
		if c, ok := calls[op]; ok {
			transport = append(transport, c-h)
		}
		if svc, ok := s.serviceMS[op]; ok {
			nonservice = append(nonservice, h-svc/workers)
		}
	}
	setPercentile(l, "rosclient.call_ms_p50", values(calls), 0.5)
	setPercentile(l, "rosclient.transport_ms_p50", transport, 0.5)
	setPercentile(l, "rosd.handler_ms_p50", values(handlers), 0.5)
	setPercentile(l, "rosd.handler_ms_p90", values(handlers), 0.9)
	setPercentile(l, "rosd.read_service_ms_p50", t.samples["rosd.read_service_ms"], 0.5)
	setPercentile(l, "rosd.nonservice_ms_p50", nonservice, 0.5)

	retries, ok := counterDelta(t.before, t.after, "ros_rosclient_retries_total")
	l.set("rosclient.retries", retries, ok)
	depth, ok := histDeltaQuantile(t.before, t.after, "ros_rosd_queue_depth", 0.9)
	l.set("rosd.queue_depth_p90", depth, ok)
	overloads, ok := counterDelta(t.before, t.after, "ros_rosd_overload_total")
	l.set("rosd.overloads", overloads, ok)
	hits, hitsOK := counterDelta(t.before, t.after, "ros_rosd_engine_hits_total")
	misses, missesOK := counterDelta(t.before, t.after, "ros_rosd_engine_misses_total")
	l.ratio("rosd.engine_hit_ratio", hits, hitsOK, hits+misses, missesOK)
	evictions, ok := counterDelta(t.before, t.after, "ros_rosd_engine_evictions_total")
	l.ratio("rosd.engine_evictions_per_read", evictions, ok, float64(t.reads), true)
}

func (s *service) close() {
	s.hs.Close()
	<-s.served
	s.srv.Close()
	s.transport.CloseIdleConnections()
}
