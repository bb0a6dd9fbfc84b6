# Developer entry points. CI runs `make ci`; the race detector is part of
# the gate because the per-frame radar loop runs on a worker pool and the
# obs registry/span substrate is exercised concurrently in its tests.

GO ?= go

# Hot-path micro-benchmarks. bench-baseline and bench-compare build the test
# binary of every package holding one and run them through
# scripts/interleave.sh; bench-smoke runs each once, and bench-names fails
# when a name matches no benchmark. BENCH_COUNT is bench-compare's number of
# interleaved rounds (one run of each side per round).
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

.PHONY: ci fmt vet build test race generate golden bench bench-kernel bench-build bench-baseline bench-compare bench-smoke bench-names obs-overhead chaos rosd-chaos fuzz-smoke profile rosperf-test

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

# Vet and short-test the benchmark module. benchmark/ is its own module
# (ros/benchmark), so root `go test ./...` skips it; this catches an API
# change that breaks rosperf before the benchmark runs.
rosperf-test:
	cd benchmark && $(GO) vet ./... && $(GO) test -short ./...

# Build the test binary of every package holding a BENCH_HOT benchmark
# into bench-new/. The package list comes from `go test -list`, so it
# follows the benchmarks.
bench-build:
	@pkgs=$$($(GO) test -list $(BENCH_HOT) ./... | awk '/^Benchmark/ { hit = 1 } /^ok/ { if (hit) print $$2; hit = 0 }') || exit 1; \
	rm -rf bench-new; mkdir bench-new; \
	for pkg in $$pkgs; do \
		$(GO) test -c -o bench-new/$$(echo $$pkg | tr / _).test $$pkg || exit 1; \
	done

# Save this commit's hot-path test binaries as the comparison baseline (run
# on the commit you want to compare against, e.g. before a perf change).
bench-baseline: bench-build
	@rm -rf bench-baseline; mv bench-new bench-baseline
	@echo "bench-baseline: saved $$(ls bench-baseline | tr '\n' ' ')"

# Build the working tree's hot-path test binaries and run each package's
# BENCH_HOT benchmarks against its baseline binary for BENCH_COUNT
# interleaved rounds of 1 s per benchmark, printing median/quartile ns/op
# and the change-vs-baseline median delta. The raw runs land in
# bench-new/*.txt.
bench-compare: bench-build
	@if [ ! -d bench-baseline ]; then echo "bench-compare: no baseline; run make bench-baseline on the parent commit first"; exit 1; fi; \
	for base in bench-baseline/*.test; do \
		bin=bench-new/$${base#bench-baseline/}; \
		if [ ! -x $$bin ]; then echo "bench-compare: $$bin missing"; exit 1; fi; \
		echo "== $${bin#bench-new/} (A = baseline, B = change)"; \
		bash scripts/interleave.sh $(BENCH_COUNT) 1s $${bin%.test}.txt $$base $(BENCH_HOT) $$bin $(BENCH_HOT) || exit 1; \
	done

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

# Observability overhead gate: build the root test binary once, then run
# the flight-recorder-off baseline (side A) and the instrumented end-to-end
# read (side B) through scripts/interleave.sh as 800 rounds of one process
# each (3 timed reads after one warm-up read). Fails when the median
# instrumented ns/op exceeds the median obs-off ns/op by more than
# OBS_OVERHEAD_PCT percent. Per-process timings spread by about 12% on a
# shared 2-vCPU host, and 200 rounds still left the median difference
# spread over about +/-2%; 800 rounds (about 2 min) halve that, so equal
# code passes the 2% budget.
obs-overhead:
	$(GO) test -c -o obs-overhead.test .
	@sum=$$(bash scripts/interleave.sh 800 3x obs-overhead.txt \
		./obs-overhead.test '^BenchmarkEndToEndReadObsOff$$' \
		./obs-overhead.test '^BenchmarkEndToEndRead$$') || exit 1; \
	printf '%s\n' "$$sum"; \
	printf '%s\n' "$$sum" | awk -v limit=$(OBS_OVERHEAD_PCT) ' \
		$$1 == "A" { off = $$4; noff = $$3 } \
		$$1 == "B" { on = $$4; non = $$3 } \
		END { \
			if (non == 0 || non != noff) { print "obs-overhead: benchmark output incomplete"; exit 1 } \
			pct = (on - off) * 100 / off; \
			printf "obs-overhead: median of %d rounds: instrumented %d ns/op vs obs-off %d ns/op (%+.2f%%, budget %s%%)\n", non, on, off, pct, limit; \
			if (pct > limit) { print "obs-overhead: over budget"; exit 1 } \
		}'

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
