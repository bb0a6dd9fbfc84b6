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

// Fixed parameters of the load harness's stream.
const (
	// loadFrameBudget caps each read's simulated frames: the smallest
	// budget that decodes the stream's tag right (48 and 80 frames decode
	// it wrong, which the report counts as misreads).
	loadFrameBudget = 96
	// loadMaxRetries bounds the client's retries per batch.
	loadMaxRetries = 64
)

// loadConfig parameterizes runLoad, the service's load harness: many
// concurrent clients posting batches of mixed-configuration reads against
// one in-process server.
type loadConfig struct {
	// Server configures the in-process server.
	Server Config
	// Reads is the total read count.
	Reads int
	// Concurrency is the number of parallel client goroutines.
	Concurrency int
	// BatchSize is the reads per POST. Batches are single-tenant, so
	// per-tenant fairness is measurable end to end.
	BatchSize int
	// Configs is the number of distinct radar+scene configurations mixed
	// into the stream. Configurations on one radar front end share an
	// engine; see loadRead for the front ends in the mix.
	Configs int
	// Tenants is the number of distinct tenant labels cycled through the
	// stream.
	Tenants int
	// FloodFactor makes tenant-0 a flooder: it sends FloodFactor times an
	// in-quota tenant's share of the stream (0 or 1 is uniform traffic).
	FloodFactor int
}

// tenantReport is one tenant's slice of a load run, as its clients saw it.
type tenantReport struct {
	Tenant string
	// Reads is the tenant's share of the stream; OK completed without a
	// typed error and without decoding other bits than requested;
	// Throttled were refused by quota (in-result overload errors or whole
	// batches still 429 after retries).
	Reads, OK, Throttled int
}

// loadReport summarizes one runLoad: client-observed batch latency
// quantiles, per-read outcome counts, admission behavior, per-tenant
// goodput and engine residency.
type loadReport struct {
	Reads int
	// Overloads counts backpressure responses the client observed (429
	// overload and 503 draining, each retried within loadMaxRetries).
	Overloads int
	// Errors counts reads that returned a typed per-request error
	// (throttled reads included).
	Errors int
	// Outcomes counts reads by result label (ok, misread, no_tag, ...); a
	// read that decoded bits other than the requested ones is a misread,
	// never ok.
	Outcomes map[string]int
	// Tenants reports each tenant's outcomes, sorted by tenant name.
	Tenants []tenantReport
	// FairnessRatio is min/max goodput across the in-quota tenants (the
	// flood tenant excluded when FloodFactor > 1): 1.0 is perfectly fair,
	// 0 means some tenant was starved outright.
	FairnessRatio float64
	// EnginesResident is the server's LRU occupancy after the run.
	EnginesResident int
	// Evictions counts Engines the LRU closed to stay at capacity over the
	// run. A run with more radar front ends than EngineCapacity must report
	// a nonzero count: that is the bounded-residency contract under mixed
	// load.
	Evictions int64
	// BatchP50MS/P99MS are client-observed per-batch latencies.
	BatchP50MS, BatchP99MS float64
}

// outcomeMisread labels a read that completed and decoded bits other than
// the ones it requested. Only the harness knows the requested bits, so the
// label lives in loadReport.Outcomes, not in the server's read counters.
const outcomeMisread = "misread"

// runLoad drives cfg.Reads reads through an in-process server (tenant-0 at
// FloodFactor times everyone else's share) and reports what the clients,
// the quota layer and the admission layer saw. Batches ride the
// self-healing rosclient: 429/503 are retried with seeded backoff honoring
// Retry-After, so every read completes unless its tenant stays over quota
// (those reads count as throttled, not run failures).
func runLoad(cfg loadConfig) (*loadReport, error) {
	srv := New(cfg.Server)
	if err := srv.Start(); err != nil {
		return nil, err
	}
	defer srv.Close()
	evictionsBefore := snapCounter("ros_rosd_engine_evictions_total")

	client := rosclient.New(rosclient.Config{
		BaseURL:     "http://" + srv.Addr(),
		Seed:        1,
		MaxRetries:  loadMaxRetries,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  16 * time.Millisecond,
		// The server hints whole seconds; waiting that long per 429 would
		// dominate a load run, so the harness caps the honored wait and
		// leans on its tight retry budget instead.
		MaxRetryAfter: 25 * time.Millisecond,
	})

	type tenantBatch struct {
		tenant string
		batch  BatchRequest
	}
	batches := make(chan tenantBatch, cfg.Concurrency)
	var (
		mu        sync.Mutex
		latencies []float64
		perTenant = make(map[string]*tenantReport)
		report    = &loadReport{Outcomes: make(map[string]int)}
		firstErr  error
	)

	var wg sync.WaitGroup
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for tb := range batches {
				var res BatchResponse
				bStart := time.Now()
				err := client.Do(context.Background(), "/v1/read", tb.batch, &res)
				lat := float64(time.Since(bStart).Nanoseconds()) / 1e6

				mu.Lock()
				latencies = append(latencies, lat)
				tr := perTenant[tb.tenant]
				if tr == nil {
					tr = &tenantReport{Tenant: tb.tenant}
					perTenant[tb.tenant] = tr
				}
				tr.Reads += len(tb.batch.Reads)
				if err != nil {
					if errors.Is(err, roserr.ErrOverload) {
						// The whole batch stayed over quota past the retry
						// budget: refused work, not a harness failure.
						tr.Throttled += len(tb.batch.Reads)
						report.Errors += len(tb.batch.Reads)
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
					case r.Error != nil:
						report.Errors++
						if r.Error.Kind == "overload" {
							tr.Throttled++
						}
					case outcome != outcomeMisread:
						tr.OK++
					}
				}
				mu.Unlock()
			}
		}()
	}

	// Deal each tenant its share (tenant-0 gets FloodFactor shares) as
	// single-tenant batches, interleaved round-robin so arrival order mixes
	// tenants the way real traffic would.
	flood := max(cfg.FloodFactor, 1)
	perTenantBatches := make([][]tenantBatch, cfg.Tenants)
	seed := int64(1)
	shares := cfg.Tenants + flood - 1
	for ti := 0; ti < cfg.Tenants; ti++ {
		quota := cfg.Reads / shares
		if ti == 0 {
			quota = cfg.Reads * flood / shares
		}
		if ti == cfg.Tenants-1 {
			quota = cfg.Reads - report.Reads // remainder balances rounding
		}
		name := fmt.Sprintf("tenant-%d", ti)
		for done := 0; done < quota; {
			n := min(cfg.BatchSize, quota-done)
			b := BatchRequest{Reads: make([]ReadRequest, n)}
			for i := range b.Reads {
				b.Reads[i] = loadRead(cfg, name, seed)
				seed++
			}
			perTenantBatches[ti] = append(perTenantBatches[ti], tenantBatch{tenant: name, batch: b})
			done += n
			report.Reads += n
		}
	}
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

	report.Overloads = int(client.Stats().Throttles)
	if firstErr != nil {
		return report, firstErr
	}

	sort.Float64s(latencies)
	report.BatchP50MS = quantile(latencies, 0.50)
	report.BatchP99MS = quantile(latencies, 0.99)

	// Every tenant shares the run's wall time, so the goodput ratio is the
	// ratio of correctly decoded reads.
	minOK, maxOK := math.Inf(1), 0.0
	for _, tr := range perTenant {
		report.Tenants = append(report.Tenants, *tr)
		if flood > 1 && tr.Tenant == "tenant-0" {
			continue // the flooder does not vote on fairness
		}
		minOK = math.Min(minOK, float64(tr.OK))
		maxOK = math.Max(maxOK, float64(tr.OK))
	}
	sort.Slice(report.Tenants, func(i, j int) bool { return report.Tenants[i].Tenant < report.Tenants[j].Tenant })
	if maxOK > 0 && !math.IsInf(minOK, 1) {
		report.FairnessRatio = minOK / maxOK
	}
	report.Evictions = snapCounter("ros_rosd_engine_evictions_total") - evictionsBefore
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
func loadRead(cfg loadConfig, tenant string, seed int64) ReadRequest {
	conf := int(seed) % cfg.Configs
	step := 0.3 / math.Max(15, float64(cfg.Configs))
	return ReadRequest{
		Tenant:      tenant,
		Bits:        "1111",
		Standoff:    3 + step*float64(conf),
		WithClutter: conf%2 == 1,
		Commercial:  conf%4 >= 2,
		FrameBudget: loadFrameBudget,
		Workers:     1,
		Seed:        seed,
	}
}

// quantile reads q from an ascending latency slice (nearest-rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
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
