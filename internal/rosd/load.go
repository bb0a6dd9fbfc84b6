package rosd

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"ros/internal/obs"
	"ros/internal/rosclient"
	"ros/internal/roserr"
)

// LoadConfig parameterizes RunLoad, the service's load harness: many
// concurrent clients posting batches of mixed-configuration reads against
// one server. The zero value of every field keeps the default noted on it.
type LoadConfig struct {
	// URL is the base URL of a running server ("http://host:port"); empty
	// starts an in-process server on an ephemeral port for the run and
	// closes it after. In-process runs additionally report the server-side
	// queue-depth histogram (shared process, shared metrics registry).
	URL string
	// Server configures the in-process server when URL is empty.
	Server Config
	// Reads is the total read count (default 1024).
	Reads int
	// Concurrency is the number of parallel client goroutines (default 32).
	Concurrency int
	// BatchSize is the reads per POST (default 8). Batches are
	// single-tenant, so per-tenant fairness is measurable end to end.
	BatchSize int
	// Configs is the number of distinct radar+scene configurations mixed
	// into the stream (default 8). Configurations on one radar front end
	// share an engine; see loadRead for the front ends in the mix.
	Configs int
	// Tenants is the number of distinct tenant labels cycled through the
	// stream (default 4).
	Tenants int
	// FloodFactor makes tenant-0 a flooder: it sends FloodFactor times an
	// in-quota tenant's share of the stream (default 1 — uniform traffic).
	FloodFactor int
	// FrameBudget caps each read's simulated frames (default 96, the
	// smallest budget that decodes the stream's tag right; 48 and 80 frames
	// decode it wrong, which the report counts as misreads).
	FrameBudget int
	// MaxRetries bounds the client's retries per batch (default 64).
	MaxRetries int
	// Hedge arms hedged reads in the harness client: a second identical
	// request races any batch slower than this (0 disables). Reads are
	// seeded, so duplicated execution is safe.
	Hedge time.Duration
}

func (c LoadConfig) withDefaults() LoadConfig {
	if c.Reads <= 0 {
		c.Reads = 1024
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 32
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 8
	}
	if c.Configs <= 0 {
		c.Configs = 8
	}
	if c.Tenants <= 0 {
		c.Tenants = 4
	}
	if c.FloodFactor <= 0 {
		c.FloodFactor = 1
	}
	if c.FrameBudget <= 0 {
		c.FrameBudget = 96
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 64
	}
	return c
}

// TenantReport is one tenant's slice of a load run, as its clients saw it.
type TenantReport struct {
	Tenant string `json:"tenant"`
	// Reads is the tenant's share of the stream; OK decoded the requested
	// bits, Misreads decoded other bits, Throttled were refused by quota
	// (in-result overload errors or whole batches still 429 after retries),
	// Errors is everything else typed.
	Reads     int `json:"reads"`
	OK        int `json:"ok"`
	Misreads  int `json:"misreads"`
	Throttled int `json:"throttled"`
	Errors    int `json:"errors"`
	// GoodputRPS is OK (correctly decoded) reads per wall second of the run.
	GoodputRPS float64 `json:"goodput_rps"`
	// BatchP50MS/P99MS are the tenant's client-observed batch latencies
	// (including the client's backoff waits).
	BatchP50MS float64 `json:"batch_p50_ms"`
	BatchP99MS float64 `json:"batch_p99_ms"`
}

// LoadReport summarizes one RunLoad: client-observed batch latency
// quantiles, per-read outcome counts, admission behavior, per-tenant
// goodput, and (for in-process runs) the server's queue-depth histogram
// quantiles.
type LoadReport struct {
	Reads       int `json:"reads"`
	Batches     int `json:"batches"`
	Concurrency int `json:"concurrency"`
	Configs     int `json:"configs"`
	// Overloads counts backpressure responses the client observed (429
	// overload and 503 draining, each retried within MaxRetries).
	Overloads int `json:"overloads"`
	// Retries counts client retry attempts across the run.
	Retries int64 `json:"retries"`
	// Hedges counts hedge requests the client launched (0 unless Hedge set).
	Hedges int64 `json:"hedges,omitempty"`
	// Errors counts reads that returned a typed per-request error
	// (throttled reads included).
	Errors int `json:"errors"`
	// Throttled counts reads refused by tenant quota.
	Throttled int `json:"throttled"`
	// Outcomes counts reads by result label (ok, misread, no_tag, ...); a
	// read that decoded bits other than the requested ones is a misread,
	// never ok.
	Outcomes map[string]int `json:"outcomes"`
	// Tenants reports each tenant's goodput, sorted by tenant name.
	Tenants []TenantReport `json:"tenants,omitempty"`
	// FairnessRatio is min/max goodput across the in-quota tenants (the
	// flood tenant excluded when FloodFactor > 1): 1.0 is perfectly fair,
	// 0 means some tenant was starved outright.
	FairnessRatio float64 `json:"fairness_ratio,omitempty"`
	// EnginesResident is the server's LRU occupancy after the run.
	EnginesResident int `json:"engines_resident"`
	// Evictions counts Engines the LRU closed to stay at capacity over the
	// run (in-process runs only; zero against a remote URL). A run with more
	// radar front ends than EngineCapacity must report a nonzero count —
	// that is the bounded-residency contract under mixed load.
	Evictions int64   `json:"evictions"`
	WallMS    float64 `json:"wall_ms"`
	// BatchP50MS/P99MS/MaxMS are client-observed per-batch latencies.
	BatchP50MS float64 `json:"batch_p50_ms"`
	BatchP99MS float64 `json:"batch_p99_ms"`
	BatchMaxMS float64 `json:"batch_max_ms"`
	// QueueDepthP50/P99 are bucket-upper-bound quantiles of the server's
	// ros_rosd_queue_depth histogram over the run (in-process runs only;
	// zero against a remote URL).
	QueueDepthP50 float64 `json:"queue_depth_p50"`
	QueueDepthP99 float64 `json:"queue_depth_p99"`
}

// outcomeMisread labels a read that completed and decoded bits other than
// the ones it requested. Only the harness knows the requested bits, so the
// label lives in LoadReport.Outcomes, not in the server's read counters.
const outcomeMisread = "misread"

// tenantAgg accumulates one tenant's outcomes during the run.
type tenantAgg struct {
	reads, ok, misreads, throttled, errs int
	lats                                 []float64
}

// RunLoad drives cfg.Reads reads through the service — tenant-0 at
// FloodFactor times everyone else's share — and reports what the clients,
// the quota layer and the admission layer saw. Batches ride the
// self-healing rosclient: 429/503 are retried with seeded backoff honoring
// Retry-After, so every read completes unless its tenant stays over quota
// (those reads count as Throttled, not run failures).
func RunLoad(cfg LoadConfig) (*LoadReport, error) {
	cfg = cfg.withDefaults()

	url := cfg.URL
	var inProcess *Server
	var depthBefore *obs.HistogramSnap
	var evictionsBefore int64
	if url == "" {
		srv := New(cfg.Server)
		if err := srv.Start(); err != nil {
			return nil, err
		}
		defer srv.Close()
		inProcess = srv
		url = "http://" + srv.Addr()
		depthBefore = snapHistogram("ros_rosd_queue_depth")
		evictionsBefore = snapCounter("ros_rosd_engine_evictions_total")
	}

	client := rosclient.New(rosclient.Config{
		BaseURL:     url,
		Seed:        1,
		MaxRetries:  cfg.MaxRetries,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  16 * time.Millisecond,
		// The server hints whole seconds; waiting that long per 429 would
		// dominate a load run, so the harness caps the honored wait and
		// leans on its tight retry budget instead.
		MaxRetryAfter: 25 * time.Millisecond,
		HedgeDelay:    cfg.Hedge,
	})

	type tenantBatch struct {
		tenant string
		batch  BatchRequest
	}
	batches := make(chan tenantBatch, cfg.Concurrency)
	var (
		mu        sync.Mutex
		latencies []float64
		perTenant = make(map[string]*tenantAgg)
		report    = &LoadReport{
			Concurrency: cfg.Concurrency,
			Configs:     cfg.Configs,
			Outcomes:    make(map[string]int),
		}
		firstErr error
	)
	aggFor := func(name string) *tenantAgg {
		a := perTenant[name]
		if a == nil {
			a = &tenantAgg{}
			perTenant[name] = a
		}
		return a
	}

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for tb := range batches {
				var res BatchResponse
				bStart := time.Now()
				var err error
				if cfg.Hedge > 0 {
					err = client.DoHedged(context.Background(), "/v1/read", tb.batch, &res)
				} else {
					err = client.Do(context.Background(), "/v1/read", tb.batch, &res)
				}
				lat := msSince(bStart)

				mu.Lock()
				report.Batches++
				latencies = append(latencies, lat)
				agg := aggFor(tb.tenant)
				agg.reads += len(tb.batch.Reads)
				agg.lats = append(agg.lats, lat)
				if err != nil {
					if errors.Is(err, roserr.ErrOverload) {
						// The whole batch stayed over quota past the retry
						// budget: refused work, not a harness failure.
						agg.throttled += len(tb.batch.Reads)
						report.Outcomes[outcomeError] += len(tb.batch.Reads)
					} else if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					continue
				}
				report.EnginesResident = res.EnginesResident
				for i := range res.Results {
					r := &res.Results[i]
					outcome := resultOutcome(r)
					if outcome == outcomeOK && (i >= len(tb.batch.Reads) || r.Bits != tb.batch.Reads[i].Bits) {
						outcome = outcomeMisread
					}
					report.Outcomes[outcome]++
					switch {
					case r.Error != nil && r.Error.Kind == "overload":
						agg.throttled++
					case r.Error != nil:
						agg.errs++
					case outcome == outcomeMisread:
						agg.misreads++
					default:
						agg.ok++
					}
				}
				mu.Unlock()
			}
		}()
	}

	// Deal each tenant its share — tenant-0 gets FloodFactor shares — as
	// single-tenant batches, interleaved round-robin so arrival order mixes
	// tenants the way real traffic would.
	perTenantBatches := make([][]tenantBatch, cfg.Tenants)
	seed := int64(1)
	sent := 0
	shares := cfg.Tenants + cfg.FloodFactor - 1
	for ti := 0; ti < cfg.Tenants; ti++ {
		quota := cfg.Reads * 1 / shares
		if ti == 0 {
			quota = cfg.Reads * cfg.FloodFactor / shares
		}
		if ti == cfg.Tenants-1 {
			quota = cfg.Reads - sent // remainder balances rounding
		}
		name := fmt.Sprintf("tenant-%d", ti)
		for done := 0; done < quota; {
			n := cfg.BatchSize
			if rem := quota - done; n > rem {
				n = rem
			}
			b := BatchRequest{Reads: make([]ReadRequest, n)}
			for i := range b.Reads {
				b.Reads[i] = loadRead(cfg, name, seed)
				seed++
			}
			perTenantBatches[ti] = append(perTenantBatches[ti], tenantBatch{tenant: name, batch: b})
			done += n
			sent += n
		}
	}
	report.Reads = sent
	for round := 0; ; round++ {
		any := false
		for ti := range perTenantBatches {
			if round < len(perTenantBatches[ti]) {
				batches <- perTenantBatches[ti][round]
				any = true
			}
		}
		if !any {
			break
		}
	}
	close(batches)
	wg.Wait()
	report.WallMS = float64(time.Since(start).Nanoseconds()) / 1e6

	stats := client.Stats()
	report.Overloads = int(stats.Throttles)
	report.Retries = stats.Retries
	report.Hedges = stats.Hedges

	if firstErr != nil {
		return report, firstErr
	}

	sort.Float64s(latencies)
	report.BatchP50MS = quantile(latencies, 0.50)
	report.BatchP99MS = quantile(latencies, 0.99)
	if len(latencies) > 0 {
		report.BatchMaxMS = latencies[len(latencies)-1]
	}

	wallSec := report.WallMS / 1e3
	names := make([]string, 0, len(perTenant))
	for name := range perTenant {
		names = append(names, name)
	}
	sort.Strings(names)
	minGood, maxGood := math.Inf(1), 0.0
	for _, name := range names {
		a := perTenant[name]
		sort.Float64s(a.lats)
		tr := TenantReport{
			Tenant:     name,
			Reads:      a.reads,
			OK:         a.ok,
			Misreads:   a.misreads,
			Throttled:  a.throttled,
			Errors:     a.errs,
			BatchP50MS: quantile(a.lats, 0.50),
			BatchP99MS: quantile(a.lats, 0.99),
		}
		if wallSec > 0 {
			tr.GoodputRPS = float64(a.ok) / wallSec
		}
		report.Tenants = append(report.Tenants, tr)
		report.Throttled += a.throttled
		report.Errors += a.throttled + a.errs
		if cfg.FloodFactor > 1 && name == "tenant-0" {
			continue // the flooder does not vote on fairness
		}
		minGood = math.Min(minGood, tr.GoodputRPS)
		maxGood = math.Max(maxGood, tr.GoodputRPS)
	}
	if maxGood > 0 && !math.IsInf(minGood, 1) {
		report.FairnessRatio = minGood / maxGood
	}

	if inProcess != nil {
		if after := snapHistogram("ros_rosd_queue_depth"); after != nil {
			report.QueueDepthP50 = histSnapQuantile(depthBefore, after, 0.50)
			report.QueueDepthP99 = histSnapQuantile(depthBefore, after, 0.99)
		}
		report.Evictions = snapCounter("ros_rosd_engine_evictions_total") - evictionsBefore
	}
	return report, nil
}

// loadRead builds the i-th read of the stream: configurations cycle so
// every batch mixes scenes, standoff varies per configuration so distinct
// configurations really are distinct scenes, clutter alternates, and
// configurations 2 and 3 of every 4 use the commercial front end, so the
// stream spans two engines and a capacity-1 LRU evicts under load.
// Standoffs stay within 30 cm of 3 m (2 cm apart up to 15 configurations,
// closer beyond): at 96 frames the tag reads right there on both front
// ends, while from ~3.7 m out some seeds misread, so outcome counts measure
// the service, not the physics.
func loadRead(cfg LoadConfig, tenant string, seed int64) ReadRequest {
	conf := int(seed) % cfg.Configs
	step := 0.3 / math.Max(15, float64(cfg.Configs))
	return ReadRequest{
		Tenant:      tenant,
		Bits:        "1111",
		Standoff:    3 + step*float64(conf),
		WithClutter: conf%2 == 1,
		Commercial:  conf%4 >= 2,
		FrameBudget: cfg.FrameBudget,
		Workers:     1,
		Seed:        seed,
	}
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// quantile reads q from an ascending latency slice (nearest-rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// snapCounter reads one scalar counter out of the default registry.
func snapCounter(name string) int64 {
	snap := obs.Default.Snapshot()
	for i := range snap.Counters {
		c := &snap.Counters[i]
		if c.Name == name && len(c.Labels) == 0 {
			return c.Value
		}
	}
	return 0
}

// snapHistogram copies one scalar histogram out of the default registry.
func snapHistogram(name string) *obs.HistogramSnap {
	snap := obs.Default.Snapshot()
	for i := range snap.Histograms {
		h := &snap.Histograms[i]
		if h.Name == name && len(h.Labels) == 0 {
			return h
		}
	}
	return nil
}

// histSnapQuantile estimates quantile q of the observations a histogram
// gained between two snapshots (before may be nil), reporting the upper
// bound of the bucket the quantile falls in — the same convention the
// runtime-histogram gauges use. The unbounded last bucket reports the
// previous bound.
func histSnapQuantile(before, after *obs.HistogramSnap, q float64) float64 {
	if after == nil {
		return 0
	}
	deltaAt := func(i int) int64 {
		c := after.Buckets[i].Count
		if before != nil && i < len(before.Buckets) {
			c -= before.Buckets[i].Count
		}
		return c
	}
	n := len(after.Buckets)
	total := deltaAt(n - 1)
	if total == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(total)))
	for i := 0; i < n; i++ {
		if deltaAt(i) >= target {
			if math.IsInf(after.Buckets[i].LE, 1) && i > 0 {
				return after.Buckets[i-1].LE
			}
			return after.Buckets[i].LE
		}
	}
	return after.Buckets[n-1].LE
}
