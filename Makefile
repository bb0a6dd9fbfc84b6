# Developer entry points. CI runs `make ci`; the race detector is part of
# the gate because the per-frame radar loop runs on a worker pool and the
# obs registry/span substrate is exercised concurrently in its tests.

GO ?= go

# Hot-path micro-benchmarks compared by bench-compare and smoke-tested in CI.
BENCH_HOT := 'BenchmarkEndToEndRead$$|BenchmarkSpotlight$$|BenchmarkDBSCAN|BenchmarkAoASpectrum$$|BenchmarkSynthesize$$|BenchmarkRangeFFTBatched$$'
BENCH_COUNT ?= 5

# Fuzz targets smoked by fuzz-smoke; each runs for FUZZTIME.
FUZZ_TIME ?= 30s

# Synthesis-kernel micro-benchmarks compared by bench-kernel: tone lanes,
# batched Gaussian noise, fused window+FFT plans, the closed-form decode bin,
# the scene-response memo, and the point-cloud scan.
BENCH_KERNEL := 'BenchmarkBinSpectrum$$|BenchmarkToneFill256$$|BenchmarkAccumulateRotated256$$|BenchmarkGaussNorm$$|BenchmarkGaussFill2048$$|BenchmarkGaussAddNoise1024$$|BenchmarkPlanInverse256$$|BenchmarkSceneResponseMemo$$|BenchmarkSceneResponseDirect$$|BenchmarkPointCloudScan$$'

# Observability overhead budget (percent) enforced by obs-overhead.
OBS_OVERHEAD_PCT ?= 2

.PHONY: ci fmt vet build test race generate golden bench bench-kernel bench-trend bench-baseline bench-compare bench-smoke bench-names obs-overhead chaos rosd-chaos fuzz-smoke profile rosd-load rosd-load-smoke rosperf-test

ci: fmt vet build race

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Regenerate checked-in generated code: the DE-GA beam-shaping phase table
# for the paper's 8/16/32-module stacks (internal/beamshape/phases_gen.go,
# ~12 s). CI reruns it and fails when the checked-in table differs.
generate:
	$(GO) generate ./internal/beamshape

# Regenerate the checked-in golden digest of the reproduction
# (testdata/golden_reads.txt): a fixed seed x configuration grid of full
# reads recording detection, decoded bits, SNR, point count, tag centroid
# and detection-mode RSS. TestGoldenDigest compares against it on every
# `go test`; regenerate only for a deliberate behaviour change and explain
# the diff.
golden:
	$(GO) test -run '^TestGoldenDigest$$' -update-golden .

bench:
	$(GO) test -run xxx -bench . -benchmem .

# Micro-benchmarks of the synthesis front-end kernels.
bench-kernel:
	$(GO) test -run xxx -bench $(BENCH_KERNEL) -benchmem ./internal/dsp/ ./internal/radar/ ./internal/scene/

# Append one machine-readable record (per-experiment wall ms + canonical-read
# span timings) to the checked-in trend file. Run before/after perf PRs.
bench-trend:
	$(GO) run ./cmd/rosbench -json -trend BENCH_trend.jsonl

# Canonical read-service load profile: 1k+ concurrent mixed-configuration
# reads against an in-process rosd, appending batch-latency, queue-depth and
# per-tenant goodput/fairness quantiles to the checked-in trend file. The 96
# configurations (standoffs, clutter) span two radar front ends, so they
# share two engines and the default 64-engine LRU never evicts here;
# TestLoadHarness runs eviction under load through a capacity-1 LRU. The 4x
# flood against armed per-tenant quotas pins the isolation contract in the
# same run. Run alongside bench-trend in PRs that touch the service, the
# client, or the engine/cache layers.
rosd-load:
	$(GO) run ./cmd/rosd-load -reads 1024 -concurrency 32 -configs 96 \
		-tenants 4 -flood 4 -tenant-rate 2 -tenant-burst 200 -trend BENCH_trend.jsonl

# Vet and short-test the benchmark module. benchmark/ is its own module
# (ros/benchmark), so root `go test ./...` skips it; this catches an API
# change that breaks rosperf before the benchmark runs.
rosperf-test:
	cd benchmark && $(GO) vet ./... && $(GO) test -short ./...

# Reduced-scale load smoke for CI: same harness, no trend append.
rosd-load-smoke:
	$(GO) run ./cmd/rosd-load -reads 256 -concurrency 16

# Save the hot-path micro-benchmarks as the comparison baseline (run this on
# the commit you want to compare against, e.g. before a perf change).
bench-baseline:
	$(GO) test -run xxx -bench $(BENCH_HOT) -benchmem -count=$(BENCH_COUNT) ./... > bench-baseline.txt
	@echo "bench-compare baseline saved to bench-baseline.txt"

# Re-run the hot-path micro-benchmarks and compare against the saved
# baseline with benchstat when it is installed (golang.org/x/perf), falling
# back to printing both runs side by side. Both output files are untracked.
bench-compare:
	$(GO) test -run xxx -bench $(BENCH_HOT) -benchmem -count=$(BENCH_COUNT) ./... > bench-new.txt
	@if [ ! -f bench-baseline.txt ]; then \
		cp bench-new.txt bench-baseline.txt; \
		echo "bench-compare: no baseline found; saved this run as bench-baseline.txt"; \
	elif command -v benchstat >/dev/null 2>&1; then \
		benchstat bench-baseline.txt bench-new.txt; \
	else \
		echo "bench-compare: benchstat not installed; baseline vs new:"; \
		grep '^Benchmark' bench-baseline.txt; \
		echo "---"; \
		grep '^Benchmark' bench-new.txt; \
	fi

# One-iteration smoke run of the hot-path micro-benchmarks (CI runs this so a
# benchmark that panics or regresses to non-termination fails the build).
bench-smoke:
	$(GO) test -run xxx -bench $(BENCH_HOT) -benchtime=1x ./...

# Fail when a name in BENCH_HOT or BENCH_KERNEL matches no benchmark in the
# module, so deleting or renaming a benchmark cannot leave a stale regex
# that the bench targets silently skip. CI runs it before bench-smoke.
bench-names:
	@list=$$($(GO) test -list '^Benchmark' ./...) || exit 1; \
	status=0; \
	for re in $$(echo $(BENCH_HOT)'|'$(BENCH_KERNEL) | tr '|' ' '); do \
		if ! printf '%s\n' "$$list" | grep -qE "^($$re)"; then \
			echo "bench-names: $$re matches no benchmark"; status=1; \
		fi; \
	done; \
	exit $$status

# Observability overhead gate: run the instrumented end-to-end read against
# the flight-recorder-off baseline and fail when the minimum instrumented
# ns/op regresses more than OBS_OVERHEAD_PCT percent. Run on an idle machine;
# min-of-5 filters scheduler noise.
obs-overhead:
	$(GO) test -run xxx -bench 'BenchmarkEndToEndRead$$|BenchmarkEndToEndReadObsOff$$' -benchtime=10x -count=5 . > obs-overhead.txt
	@awk -v limit=$(OBS_OVERHEAD_PCT) ' \
		$$1 ~ /^BenchmarkEndToEndRead(-[0-9]+)?$$/       { if (on  == 0 || $$3 < on)  on  = $$3 } \
		$$1 ~ /^BenchmarkEndToEndReadObsOff(-[0-9]+)?$$/ { if (off == 0 || $$3 < off) off = $$3 } \
		END { \
			if (on == 0 || off == 0) { print "obs-overhead: benchmark output incomplete"; exit 1 } \
			pct = (on - off) * 100 / off; \
			printf "obs-overhead: instrumented %d ns/op vs obs-off %d ns/op (%+.2f%%, budget %s%%)\n", on, off, pct, limit; \
			if (pct > limit) { print "obs-overhead: over budget"; exit 1 } \
		}' obs-overhead.txt

# CPU and allocation profiles of the canonical end-to-end read, written to
# the untracked profiles/ directory for `go tool pprof`. CI uploads them as
# artifacts next to the flight/trace dumps so a perf regression comes with
# its own profile attached.
profile:
	mkdir -p profiles
	$(GO) test -run xxx -bench 'BenchmarkEndToEndRead$$' -benchtime=20x \
		-cpuprofile profiles/read-cpu.prof -memprofile profiles/read-mem.prof \
		-o profiles/ros.test .
	@echo "profile: wrote profiles/read-cpu.prof and profiles/read-mem.prof"
	@echo "profile: inspect with '$(GO) tool pprof profiles/ros.test profiles/read-cpu.prof'"

# Chaos suite on an idle machine: fault injection, cancellation promptness
# (the 2x-deadline bound holds without -race), typed-error taxonomy, and
# determinism across worker counts. CI runs the same tests under -race with
# the relaxed wall-clock bound.
chaos:
	$(GO) test -run TestChaos -v .

# Service-layer chaos under -race: the rosclient network-chaos harness
# (slow-loris, mid-body drops, malformed/oversized JSON, stalled reads) and
# the rosd survival suite (fairness under flood, deadline shedding, drain
# with zero dropped reads, goroutine-leak regression). Short mode keeps it
# inside CI budgets; run without flags locally for the full-scale profile.
rosd-chaos:
	$(GO) test -race -short -v ./internal/rosclient/
	$(GO) test -race -short -run 'TestFairness|TestDeadline|TestDrain|TestGoroutineLeak|TestParseHardening|TestHealthAndReadiness' -v ./internal/rosd/

# Fuzz each native target for FUZZ_TIME (Go runs one -fuzz target per
# invocation). The checked-in corpora under testdata/fuzz replay on every
# plain `go test`, so past findings are permanent regression tests.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz 'FuzzDecode$$' -fuzztime $(FUZZ_TIME) ./internal/coding/
	$(GO) test -run '^$$' -fuzz 'FuzzPercentile$$' -fuzztime $(FUZZ_TIME) ./internal/dsp/
	$(GO) test -run '^$$' -fuzz 'FuzzPlanRoundTrip$$' -fuzztime $(FUZZ_TIME) ./internal/dsp/
	$(GO) test -run '^$$' -fuzz 'FuzzResample$$' -fuzztime $(FUZZ_TIME) ./internal/dsp/
