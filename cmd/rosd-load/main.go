// Command rosd-load load-tests the read service: many concurrent clients
// posting single-tenant batches of mixed-configuration reads through the
// self-healing rosclient, exercising the engine LRU, the per-tenant quota
// and fairness layers, and the admission gate together. By default it
// starts its own in-process rosd on an ephemeral port (which also lets it
// report the server-side queue-depth histogram); -url targets a running
// daemon instead.
//
// Usage:
//
//	rosd-load [-reads 1024] [-concurrency 32] [-batch 8] [-configs 8]
//	          [-tenants 4] [-flood 1] [-frames 96] [-engines 64]
//	          [-queue 256] [-tenant-rate 0] [-tenant-burst 0] [-hedge 0]
//	          [-url http://host:port] [-trend BENCH_trend.jsonl]
//
// -flood N makes tenant-0 send N times everyone else's share, and
// -tenant-rate arms the server's quotas (in-process runs), so the printout's
// per-tenant goodput and fairness ratio show isolation under abuse.
//
// -trend appends the run's record as one JSON line to the trend file,
// alongside rosbench's records, so successive commits can track service
// latency, per-tenant goodput and fairness under load.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"ros/internal/rosd"
)

// trendRecord is the -trend document: the same envelope rosbench writes,
// with the load report in place of the single-read timings.
type trendRecord struct {
	Time      string           `json:"time"`
	GoVersion string           `json:"go_version"`
	GOOS      string           `json:"goos"`
	GOARCH    string           `json:"goarch"`
	NumCPU    int              `json:"num_cpu"`
	RosdLoad  *rosd.LoadReport `json:"rosd_load"`
}

func main() {
	reads := flag.Int("reads", 1024, "total reads to drive")
	concurrency := flag.Int("concurrency", 32, "parallel client goroutines")
	batch := flag.Int("batch", 8, "reads per POST")
	configs := flag.Int("configs", 8, "distinct configurations to mix")
	tenants := flag.Int("tenants", 4, "distinct tenant labels to cycle")
	flood := flag.Int("flood", 1, "tenant-0 sends this many times everyone else's share")
	frames := flag.Int("frames", 96, "frame budget per read")
	engines := flag.Int("engines", 64, "engine LRU capacity (in-process server)")
	queue := flag.Int("queue", 256, "admission queue depth (in-process server)")
	tenantRate := flag.Float64("tenant-rate", 0, "per-tenant quota in reads/s (in-process server; 0 disables)")
	tenantBurst := flag.Float64("tenant-burst", 0, "per-tenant burst above the steady rate (in-process server)")
	hedge := flag.Duration("hedge", 0, "hedge batches slower than this (0 disables)")
	url := flag.String("url", "", "target a running rosd instead of starting one in-process")
	trendPath := flag.String("trend", "", "append the run record as one JSON line to this file")
	flag.Parse()

	report, err := rosd.RunLoad(rosd.LoadConfig{
		URL: *url,
		Server: rosd.Config{
			EngineCapacity: *engines,
			MaxQueueDepth:  *queue,
			TenantRate:     *tenantRate,
			TenantBurst:    *tenantBurst,
		},
		Reads:       *reads,
		Concurrency: *concurrency,
		BatchSize:   *batch,
		Configs:     *configs,
		Tenants:     *tenants,
		FloodFactor: *flood,
		FrameBudget: *frames,
		Hedge:       *hedge,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "rosd-load:", err)
		os.Exit(1)
	}

	fmt.Printf("rosd-load: %d reads in %d batches over %d clients in %.1f ms\n",
		report.Reads, report.Batches, report.Concurrency, report.WallMS)
	fmt.Printf("  batch latency p50 %.2f ms  p99 %.2f ms  max %.2f ms\n",
		report.BatchP50MS, report.BatchP99MS, report.BatchMaxMS)
	fmt.Printf("  queue depth p50 %.0f  p99 %.0f  overloads %d  retries %d  hedges %d\n",
		report.QueueDepthP50, report.QueueDepthP99, report.Overloads,
		report.Retries, report.Hedges)
	fmt.Printf("  engines resident %d  evictions %d  outcomes %v  per-read errors %d\n",
		report.EnginesResident, report.Evictions, report.Outcomes, report.Errors)
	for _, tr := range report.Tenants {
		fmt.Printf("  %-10s reads %5d  ok %5d  misread %5d  throttled %5d  goodput %7.1f rps  batch p50 %.2f ms  p99 %.2f ms\n",
			tr.Tenant, tr.Reads, tr.OK, tr.Misreads, tr.Throttled, tr.GoodputRPS, tr.BatchP50MS, tr.BatchP99MS)
	}
	if report.FairnessRatio > 0 {
		fmt.Printf("  fairness ratio (min/max in-quota goodput) %.3f\n", report.FairnessRatio)
	}

	if *trendPath != "" {
		rec := trendRecord{
			Time:      time.Now().UTC().Format(time.RFC3339),
			GoVersion: runtime.Version(),
			GOOS:      runtime.GOOS,
			GOARCH:    runtime.GOARCH,
			NumCPU:    runtime.NumCPU(),
			RosdLoad:  report,
		}
		f, err := os.OpenFile(*trendPath, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rosd-load:", err)
			os.Exit(1)
		}
		enc := json.NewEncoder(f)
		if err := enc.Encode(rec); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, "rosd-load:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "rosd-load:", err)
			os.Exit(1)
		}
		fmt.Printf("rosd-load: appended record to %s\n", *trendPath)
	}
}
