// Package benchmark is the repository's benchmark: four closed-loop
// workloads over the drive-by read path (the library read, the Sec 7 sweep,
// and the rosd service warm and churning), each reporting end-to-end
// metrics and, in a separate traced run, per-layer metrics. It measures
// every layer from outside: it times its own calls into public entry points
// and reads series the program already exports, and it checks every decoded
// answer against the bits the tag encodes.
package benchmark

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Workload is one set of inputs the benchmark runs. Units, Callers and
// Modules are fields so tests can run a workload at toy size.
type Workload struct {
	Name string
	// Units is the operations per round; Callers is the closed-loop callers
	// issuing them, each sending its next operation when the last returns.
	Units, Callers int
	// Modules is the stack size of the workload's beam-shaped tag (0 for
	// the unshaped tags of the rosd workloads).
	Modules int
	// open does the workload's set-up and returns its runner.
	open func(ctx context.Context, w Workload, env *env) (runner, error)
}

// env is what a runner shares with the run: the seed its inputs derive from
// and the recorder (nil with tracing off).
type env struct {
	seed int64
	rec  *recorder
}

// runner runs one workload's operations.
type runner interface {
	// unit runs operation u on caller lane; its inputs depend only on the
	// seed and u.
	unit(ctx context.Context, u int64, lane int) unitResult
	// layers adds the workload's own per-layer metrics after a traced run.
	layers(l layerSet, t *traceData)
	close()
}

// unitResult is what one operation did: a latency per timed operation, the
// reads it attempted, and how many of them failed (wrong bits, typed
// errors, refusals and transport failures alike).
type unitResult struct {
	lat          []float64
	reads, fails int
}

// Workloads returns the benchmark's workloads in run order.
func Workloads() []Workload {
	return []Workload{readCanonical(), sweepGrid(), rosdSteady(), rosdChurn()}
}

// Lookup returns the workload named name.
func Lookup(name string) (Workload, error) {
	for _, w := range Workloads() {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("benchmark: unknown workload %q", name)
}

// Options configures one run of a workload.
type Options struct {
	// Seed fixes every generated input.
	Seed int64
	// Seconds is the measuring budget: rounds repeat until it is spent,
	// with at least MinRounds rounds.
	Seconds float64
	// Trace selects the traced run, which reports per-layer metrics
	// instead of end-to-end ones.
	Trace bool
	// Start is when the process's main began; set-up time counts from it.
	Start time.Time
}

// MinRounds is the fewest rounds a run measures, so a traced run always
// has a traced and an untraced round to compare.
const MinRounds = 2

// Stat is one reported metric and the median and quartiles of the samples
// behind it: rounds, or set-ups for setup_s. Absent marks a per-layer
// metric whose layer is not on the workload's path or whose registry series
// is missing.
type Stat struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Absent bool    `json:"absent,omitempty"`
}

func newStat(unit string, value float64, samples []float64) Stat {
	q1, med, q3 := Quartiles(samples)
	return Stat{Value: value, Unit: unit, Median: med, Q1: q1, Q3: q3}
}

// Report is one workload run's outcome.
type Report struct {
	Workload  string          `json:"workload"`
	Seed      int64           `json:"seed"`
	Trace     bool            `json:"trace"`
	Rounds    int             `json:"rounds"`
	Correct   bool            `json:"correct"`
	Attempted int             `json:"attempted"`
	Failed    int             `json:"failed"`
	Metrics   map[string]Stat `json:"metrics"`
	// SetupSamples are the set-up times behind setup_s, in seconds.
	SetupSamples []float64 `json:"setup_samples,omitempty"`
	Spans        []Span    `json:"spans,omitempty"`
}

// FailRatio is the share of attempted reads that failed.
func (r *Report) FailRatio() float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// setBest reports the best of per-round values: the largest when higher is
// better, else the smallest. Interference from other tenants of a shared
// host only ever slows a round, and it arrives in spells of seconds to
// minutes that can cover most of a run; the best of many short rounds is
// the estimate of the program's own cost that repeats from run to run. On
// a 2-vCPU virtual machine, eight runs of read-canonical spread 5-9% this way
// where the median of 1.5-second rounds spread 28-34%.
func (r *Report) setBest(name string, rounds []float64, higher bool) {
	best := slices.Min(rounds)
	if higher {
		best = slices.Max(rounds)
	}
	r.Metrics[name] = newStat(EndToEndUnits[name], best, rounds)
}

// SetSetup records the set-up samples and their median as setup_s.
func (r *Report) SetSetup(samples []float64) {
	r.SetupSamples = samples
	r.Metrics[MSetup] = newStat(EndToEndUnits[MSetup], Median(samples), samples)
}

// SetupTime measures one set-up: from opt.Start (the process's main) to
// the end of the first successful operation.
func SetupTime(ctx context.Context, w Workload, opt Options) (float64, error) {
	d, setup, err := setUp(ctx, w, opt, &env{seed: opt.Seed}, &Report{})
	if err != nil {
		return 0, err
	}
	d.close()
	return setup, nil
}

// setUp opens the workload and runs operations until one succeeds (at most
// three), counting their reads in rep. It returns the runner and the
// seconds since opt.Start.
func setUp(ctx context.Context, w Workload, opt Options, e *env, rep *Report) (runner, float64, error) {
	if opt.Start.IsZero() {
		opt.Start = time.Now()
	}
	d, err := w.open(ctx, w, e)
	if err != nil {
		return nil, 0, fmt.Errorf("benchmark: %s: set-up: %w", w.Name, err)
	}
	// Warm-up operations count down from 0 so they never share inputs
	// with the rounds, which count up from 1.
	for u := int64(0); ; u-- {
		res := d.unit(ctx, u, 0)
		rep.Attempted += res.reads
		rep.Failed += res.fails
		if res.fails == 0 {
			return d, time.Since(opt.Start).Seconds(), nil
		}
		if u <= -2 || ctx.Err() != nil {
			d.close()
			return nil, 0, fmt.Errorf("benchmark: %s: warm-up failed %d times", w.Name, 1-u)
		}
	}
}

// round is what one round measured.
type round struct {
	wall, cpu     time.Duration
	lat           []float64
	reads, failed int
}

// throughput is the round's correct reads per second.
func (rd round) throughput() float64 {
	return float64(rd.reads-rd.failed) / rd.wall.Seconds()
}

// Run sets the workload up, runs one untimed warm-up operation, then
// measures rounds until the budget is spent. With tracing off the report
// holds every end-to-end metric, with this process's set-up as the only
// setup_s sample (callers add set-ups measured in fresh processes); traced,
// it holds every per-layer metric and the spans.
func Run(ctx context.Context, w Workload, opt Options) (*Report, error) {
	e := &env{seed: opt.Seed}
	if opt.Trace {
		e.rec = newRecorder()
	}
	rep := &Report{Workload: w.Name, Seed: opt.Seed, Trace: opt.Trace, Metrics: map[string]Stat{}}

	var shapedMS float64
	if opt.Trace && w.Modules > 0 {
		shapedMS = timeShaped(w.Modules)
	}
	d, setup, err := setUp(ctx, w, opt, e, rep)
	if err != nil {
		return nil, err
	}
	defer d.close()

	regBefore, rtBefore := snapRegistry(), readRuntime()
	stopRSS, rssOut := make(chan struct{}), make(chan []float64, 1)
	go func() { rssOut <- sampleResident(stopRSS) }()
	var rounds []round
	measureStart := time.Now()
	for r := 0; (r < MinRounds || time.Since(measureStart).Seconds() < opt.Seconds) && ctx.Err() == nil; r++ {
		if e.rec != nil {
			e.rec.on.Store(r%2 == 0)
		}
		rd := runRound(ctx, d, w, 1+int64(r)*int64(w.Units))
		rounds = append(rounds, rd)
		rep.Attempted += rd.reads
		rep.Failed += rd.failed
	}
	close(stopRSS)
	rss := <-rssOut
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("benchmark: %s: %w", w.Name, err)
	}
	if e.rec != nil {
		e.rec.on.Store(false)
	}
	regAfter, rtAfter := snapRegistry(), readRuntime()
	rep.Rounds = len(rounds)
	rep.Correct = rep.Failed == 0

	if !opt.Trace {
		var thr, p50, cpu []float64
		for _, rd := range rounds {
			thr = append(thr, rd.throughput())
			p50 = append(p50, Percentile(rd.lat, 0.5))
			cpu = append(cpu, float64(rd.cpu.Nanoseconds())/1e6/float64(rd.reads))
		}
		rep.setBest(MThroughput, thr, true)
		rep.setBest(MOpP50, p50, false)
		rep.setBest(MCPUPerRead, cpu, false)
		if len(rss) == 0 {
			return nil, fmt.Errorf("benchmark: %s: could not sample the resident set", w.Name)
		}
		// A high quantile of the whole measured phase's samples, not a
		// maximum: one garbage-collection spike would set a maximum.
		rep.Metrics[MRSS] = newStat(EndToEndUnits[MRSS], Percentile(rss, 0.9), rss)
		rep.SetSetup([]float64{setup})
		return rep, nil
	}

	t := &traceData{before: regBefore, after: regAfter, rtBefore: rtBefore, rtAfter: rtAfter}
	e.rec.mu.Lock()
	t.spans, t.samples = e.rec.spans, e.rec.samples
	e.rec.mu.Unlock()
	// Rounds alternate traced and untraced. Each traced round and the
	// untraced one after it run seconds apart, so host slowness mostly hits
	// both alike; the overhead is the median over such pairs of the ratio
	// of their median operation latencies, robust to the pairs a slow spell
	// starts or ends in.
	var ratios []float64
	for i, rd := range rounds {
		t.reads += rd.reads
		t.cpu += rd.cpu
		if i%2 == 1 {
			ratios = append(ratios, Median(rounds[i-1].lat)/Median(rd.lat))
		}
	}
	l := layerSet{}
	l.set("obs.trace_overhead_pct", (Median(ratios)-1)*100, len(ratios) > 0)
	l.set("beamshape.shaped_ms", shapedMS, w.Modules > 0)
	pipelineLayers(l, t)
	d.layers(l, t)
	rep.Spans = t.spans
	for name, unit := range PerLayerUnits {
		v, ok := l[name]
		if !ok || !v.ok {
			rep.Metrics[name] = Stat{Unit: unit, Absent: true}
			continue
		}
		rep.Metrics[name] = newStat(unit, v.v, []float64{v.v})
	}
	return rep, nil
}

// runRound runs w.Units operations, numbered from base, across w.Callers
// closed-loop callers, and measures the round's wall and process CPU time.
func runRound(ctx context.Context, d runner, w Workload, base int64) round {
	var (
		next atomic.Int64
		mu   sync.Mutex
		rd   round
		wg   sync.WaitGroup
	)
	cpu0, start := cpuTime(), time.Now()
	for lane := 0; lane < w.Callers; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for {
				k := next.Add(1) - 1
				if k >= int64(w.Units) || ctx.Err() != nil {
					return
				}
				res := d.unit(ctx, base+k, lane)
				mu.Lock()
				rd.lat = append(rd.lat, res.lat...)
				rd.reads += res.reads
				rd.failed += res.fails
				mu.Unlock()
			}
		}(lane)
	}
	wg.Wait()
	rd.wall, rd.cpu = time.Since(start), cpuTime()-cpu0
	return rd
}

// traceData is what a traced run hands the per-layer computations: the
// spans and samples kept over traced rounds, registry and runtime counters
// around all measured rounds, and the reads and process CPU time those
// rounds took.
type traceData struct {
	spans             []Span
	samples           map[string][]float64
	before, after     regSnap
	rtBefore, rtAfter runtimeCounters
	reads             int
	cpu               time.Duration
}
