// Command rosbench regenerates the RoS paper's evaluation tables and
// figures. Without arguments it runs every experiment in paper order; pass
// experiment ids (e.g. "fig15", "linkbudget") to run a subset, or -list to
// enumerate them. After the tables it reports the engine counters of a
// canonical drive-by read; -json instead emits the whole run (per-experiment
// wall times and the canonical read's span timings) as one JSON document on
// stdout. A failing experiment does not lose the run: its entry carries an
// "error" field and the remaining experiments still execute. Performance
// comparisons come from rosperf (benchmark/) and `make bench-compare`, not
// from these single-run timings.
//
// -serve starts the observability endpoints (Prometheus /metrics, the
// flight recorder at /debug/flight, expvar /debug/vars, /debug/pprof/) and a
// runtime-metrics poller for the duration of the run, so long sweeps can be
// profiled live; -log enables structured logging at the given level.
// -flight dumps the flight-recorder ring as JSON after the run, and -trace
// writes the canonical read's span tree as Chrome trace_event JSON loadable
// in Perfetto ("-" writes either to stdout).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"flag"

	"ros/internal/experiments"
	"ros/internal/obs"
	"ros/internal/obs/httpserve"
	"ros/internal/roserr"
	"ros/internal/sim"
)

// expTiming is one experiment's entry in the -json record. Error is set when
// the experiment panicked; its table is then absent but the run continues.
type expTiming struct {
	ID    string  `json:"id"`
	Ms    float64 `json:"ms"`
	Error string  `json:"error,omitempty"`
}

// readRecord reports the canonical drive-by read. The per-stage times are
// the flat view of the read's span tree (see internal/obs).
type readRecord struct {
	Detected     bool    `json:"detected"`
	SNRdB        float64 `json:"snr_db"`
	Frames       int     `json:"frames"`
	FFTCalls     int64   `json:"fft_calls"`
	Workers      int     `json:"workers"`
	SynthesizeMs float64 `json:"synthesize_ms"`
	RangeFFTMs   float64 `json:"range_fft_ms"`
	PointCloudMs float64 `json:"point_cloud_ms"`
	ClusterMs    float64 `json:"cluster_ms"`
	SpotlightMs  float64 `json:"spotlight_ms"`
	DecodeMs     float64 `json:"decode_ms"`
	WallMs       float64 `json:"wall_ms"`
}

// benchRecord is the top-level -json document.
type benchRecord struct {
	Time        string        `json:"time"`
	GoVersion   string        `json:"go_version"`
	GOOS        string        `json:"goos"`
	GOARCH      string        `json:"goarch"`
	NumCPU      int           `json:"num_cpu"`
	Experiments []expTiming   `json:"experiments"`
	Read        readRecord    `json:"read"`
	Spans       *obs.SpanView `json:"spans,omitempty"`
	Error       string        `json:"error,omitempty"`
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// canonicalRead runs the reference pass (beam-shaped "1111" tag, defaults,
// seed 1) twice — once to warm engine.Default()'s synthesis plan and scene
// memo and the frame pool, once for the record — and returns the second
// outcome.
func canonicalRead(ctx context.Context) (*sim.Outcome, error) {
	cfg := sim.DriveBy{BeamShaped: true, Seed: 1}
	if _, err := sim.RunContext(ctx, cfg); err != nil {
		return nil, err
	}
	return sim.RunContext(ctx, cfg)
}

func readToRecord(out *sim.Outcome) readRecord {
	s := out.Stats
	return readRecord{
		Detected:     out.Detected,
		SNRdB:        out.SNRdB,
		Frames:       s.Frames,
		FFTCalls:     s.FFTCalls,
		Workers:      s.Workers,
		SynthesizeMs: ms(s.SynthesizeNS),
		RangeFFTMs:   ms(s.RangeFFTNS),
		PointCloudMs: ms(s.PointCloudNS),
		ClusterMs:    ms(s.ClusterNS),
		SpotlightMs:  ms(s.SpotlightNS),
		DecodeMs:     ms(s.DecodeNS),
		WallMs:       ms(s.WallNS),
	}
}

// Experiment wall-time distribution, for the -serve endpoints.
var hExperiment = obs.Default.Histogram("ros_experiment_seconds",
	"wall time of one experiment generator", obs.LogBuckets(1e-3, 1e3, 2))

// runExperiment executes one generator, recovering a panic into the timing
// record so one bad experiment cannot lose the whole run.
func runExperiment(ctx context.Context, g experiments.Generator) (timing expTiming, table string) {
	timing.ID = g.ID
	start := time.Now()
	defer func() {
		elapsed := time.Since(start)
		timing.Ms = ms(elapsed.Nanoseconds())
		hExperiment.Observe(elapsed.Seconds())
		if r := recover(); r != nil {
			timing.Error = fmt.Sprint(r)
			// A cancelled sweep panics with the typed roserr.ErrReadCancelled
			// chain; keep that distinguishable in the record.
			if err, ok := r.(error); ok && errors.Is(err, roserr.ErrReadCancelled) {
				obs.Logger().Warn("rosbench: experiment cancelled", "id", g.ID)
			} else {
				obs.Logger().Error("rosbench: experiment failed",
					"id", g.ID, "err", timing.Error)
			}
		}
	}()
	return timing, g.Run(ctx).String()
}

// writeTo streams write into path, with "-" meaning stdout.
func writeTo(path string, write func(io.Writer) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	list := flag.Bool("list", false, "list experiment ids and exit")
	outPath := flag.String("o", "", "also write the tables to this file")
	jsonMode := flag.Bool("json", false, "emit a machine-readable benchmark record instead of tables")
	serveAddr := flag.String("serve", "", "serve /metrics, /debug/flight, /debug/vars and /debug/pprof on this address for the duration of the run (e.g. localhost:6060)")
	flightPath := flag.String("flight", "", "after the run, dump the flight recorder (recent reads, newest first) as JSON to this file (\"-\" for stdout)")
	tracePath := flag.String("trace", "", "write the canonical read's span tree as Chrome trace_event JSON to this file (\"-\" for stdout); load in Perfetto")
	logLevel := flag.String("log", "off", "structured log level: debug, info, warn, error or off")
	timeout := flag.Duration("timeout", 0, "overall deadline for the run; on expiry experiments stop at the next drive-by boundary (0 disables)")
	flag.Parse()

	// Ctrl-C / SIGTERM and -timeout cancel the shared context; every
	// experiment and the canonical read stop at the next frame or drive-by
	// boundary and the partial record is still emitted.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if level, off, ok := obs.ParseLevel(*logLevel); !ok {
		fmt.Fprintf(os.Stderr, "rosbench: unknown -log level %q\n", *logLevel)
		os.Exit(2)
	} else if !off {
		obs.SetLogger(obs.NewTextLogger(os.Stderr, level))
	}

	if *list {
		for _, g := range experiments.Registry() {
			fmt.Println(g.ID)
		}
		return
	}

	// An explicit -flight asks for forensics on this run: record every read
	// instead of the default 1-in-N background sample, so clean runs still
	// leave a non-empty dump.
	if *flightPath != "" {
		obs.DefaultFlight.SetSampleEvery(1)
	}

	if *serveAddr != "" {
		srv, err := httpserve.Start(*serveAddr, obs.Default)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rosbench:", err)
			os.Exit(1)
		}
		defer srv.Close()
		// Poll the Go runtime (heap, GC pauses, scheduler latency) into the
		// served gauges while the run lasts.
		rt := obs.StartRuntime(obs.Default, time.Second)
		defer rt.Stop()
		fmt.Fprintf(os.Stderr, "rosbench: observability on http://%s/ (metrics, flight, expvar, pprof)\n", srv.Addr())
	}

	gens := experiments.Registry()
	if args := flag.Args(); len(args) > 0 {
		gens = gens[:0]
		for _, id := range args {
			g := experiments.ByID(id)
			if g == nil {
				fmt.Fprintf(os.Stderr, "rosbench: unknown experiment %q (use -list)\n", id)
				os.Exit(1)
			}
			gens = append(gens, *g)
		}
	}

	var sink *os.File
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rosbench:", err)
			os.Exit(1)
		}
		sink = f
	}

	failures := 0
	var timings []expTiming
	for _, g := range gens {
		if ctx.Err() != nil {
			// Deadline hit or interrupted: stop launching experiments but
			// still emit the record for the ones that ran.
			fmt.Fprintf(os.Stderr, "rosbench: cancelled before %s: %v\n", g.ID, context.Cause(ctx))
			failures++
			break
		}
		timing, table := runExperiment(ctx, g)
		timings = append(timings, timing)
		if timing.Error != "" {
			failures++
			fmt.Fprintf(os.Stderr, "rosbench: experiment %s failed: %s\n", g.ID, timing.Error)
			continue
		}
		if !*jsonMode {
			fmt.Println(table)
			fmt.Printf("(%s regenerated in %v)\n\n", g.ID,
				(time.Duration(timing.Ms * 1e6)).Round(time.Millisecond))
		}
		if sink != nil {
			if _, err := fmt.Fprintln(sink, table); err != nil {
				fmt.Fprintln(os.Stderr, "rosbench: writing -o file:", err)
				os.Exit(1)
			}
		}
	}
	if sink != nil {
		// An ignored Close on a written file can silently lose buffered
		// tables; surface it.
		if err := sink.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "rosbench: closing -o file:", err)
			os.Exit(1)
		}
	}

	rec := benchRecord{
		Time:        time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		Experiments: timings,
	}
	read, err := canonicalRead(ctx)
	if err != nil {
		// Still emit the partial record: losing the whole run over one
		// failure is exactly what -json used to do wrong.
		failures++
		rec.Error = fmt.Sprintf("canonical read: %v", err)
		fmt.Fprintln(os.Stderr, "rosbench:", rec.Error)
	} else {
		rec.Read = readToRecord(read)
		if read.Span != nil {
			v := read.Span.View()
			rec.Spans = &v
		}
	}

	if *tracePath != "" {
		if read == nil || read.Span == nil {
			fmt.Fprintln(os.Stderr, "rosbench: -trace: no canonical read span to export")
			failures++
		} else if err := writeTo(*tracePath, read.Span.WriteTraceEvents); err != nil {
			fmt.Fprintln(os.Stderr, "rosbench: -trace:", err)
			os.Exit(1)
		}
	}
	if *flightPath != "" {
		if err := writeTo(*flightPath, obs.DefaultFlight.WriteJSON); err != nil {
			fmt.Fprintln(os.Stderr, "rosbench: -flight:", err)
			os.Exit(1)
		}
	}

	if *jsonMode {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", " ")
		if err := enc.Encode(rec); err != nil {
			fmt.Fprintln(os.Stderr, "rosbench:", err)
			os.Exit(1)
		}
	} else if read != nil {
		s := read.Stats
		fmt.Printf("canonical read: %d frames, %d FFTs, %d workers, wall %v\n",
			s.Frames, s.FFTCalls, s.Workers, time.Duration(s.WallNS).Round(time.Millisecond))
		fmt.Printf("  stages (worker-summed): synth %v | range FFT %v | cloud %v | cluster %v | spotlight %v | decode %v\n",
			time.Duration(s.SynthesizeNS).Round(time.Millisecond),
			time.Duration(s.RangeFFTNS).Round(time.Millisecond),
			time.Duration(s.PointCloudNS).Round(time.Millisecond),
			time.Duration(s.ClusterNS).Round(time.Millisecond),
			time.Duration(s.SpotlightNS).Round(time.Millisecond),
			time.Duration(s.DecodeNS).Round(time.Millisecond))
	}

	if failures > 0 {
		os.Exit(1)
	}
}
