// Command rosd serves drive-by reads over HTTP: POST /v1/read takes a batch
// of read requests and answers each one independently, while the standard
// observability endpoints (/metrics, /metrics.json, /debug/flight,
// /debug/vars, /debug/pprof/) expose the process's state and /healthz and
// /readyz answer the orchestrator. Engines — one resource handle per radar
// configuration, holding transform plans, steering tables, scene memos and
// pooled buffers shared by every scene read through that radar — live in a
// capacity-bounded LRU, so resident memory tracks the radar configurations
// in use.
//
// SIGTERM or SIGINT starts a graceful drain: readiness flips to 503, new
// batches are refused, in-flight reads finish within the -drain budget, and
// the flight recorder plus a final metrics snapshot are flushed (to
// -drain-dump when set) before the process exits.
//
// Usage:
//
//	rosd [-addr localhost:8080] [-engines 64] [-queue 256] [-batch 64]
//	     [-workers 0] [-read-timeout 0] [-tenant-rate 0] [-tenant-burst 0]
//	     [-drain 10s] [-drain-dump DIR]
//
// See docs/ROSD.md for the API and tuning guidance.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ros/internal/rosd"
)

func main() {
	addr := flag.String("addr", "localhost:8080", "listen address")
	engines := flag.Int("engines", 64, "engine LRU capacity (distinct resident radar configurations)")
	queue := flag.Int("queue", 256, "admission limit: max in-flight reads before batches get 429")
	batch := flag.Int("batch", 64, "max reads per batch")
	workers := flag.Int("workers", 0, "executor pool size (0 = GOMAXPROCS)")
	readTimeout := flag.Duration("read-timeout", 0, "per-read deadline from admission (0 disables)")
	tenantRate := flag.Float64("tenant-rate", 0, "per-tenant quota in reads/s (0 disables quotas)")
	tenantBurst := flag.Float64("tenant-burst", 0, "per-tenant burst above the steady rate")
	drain := flag.Duration("drain", 10*time.Second, "graceful-drain budget on SIGTERM/SIGINT")
	drainDump := flag.String("drain-dump", "", "directory receiving flight.json and metrics.json on drain")
	flag.Parse()

	srv := rosd.New(rosd.Config{
		Addr:           *addr,
		EngineCapacity: *engines,
		MaxQueueDepth:  *queue,
		MaxBatch:       *batch,
		ExecWorkers:    *workers,
		ReadTimeout:    *readTimeout,
		TenantRate:     *tenantRate,
		TenantBurst:    *tenantBurst,
		DrainDumpDir:   *drainDump,
	})
	if err := srv.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "rosd:", err)
		os.Exit(1)
	}
	fmt.Printf("rosd: serving on http://%s (engines %d, queue %d, tenant-rate %g)\n",
		srv.Addr(), *engines, *queue, *tenantRate)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	fmt.Printf("rosd: %v — draining (budget %v)\n", s, *drain)
	if err := srv.Drain(*drain); err != nil {
		fmt.Fprintln(os.Stderr, "rosd: drain:", err)
		os.Exit(1)
	}
	fmt.Println("rosd: drained clean")
}
