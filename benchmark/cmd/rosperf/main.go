// Command rosperf runs the repository's benchmark: four closed-loop
// workloads over the drive-by read path, each in a fresh process so set-up
// time and memory are its own. It prints every metric by name with its
// unit, checks every decoded answer, and writes the results as JSON.
//
// Usage:
//
//	rosperf [-seed n] [-seconds s] [-trace 0|1] [-out dir]
//	rosperf -workload name [-seed n] [-seconds s] [-trace 0|1]
//	rosperf compare [-manifest file] parent.json... -- change.json...
//
// Without -workload it runs every workload and writes out/results.json
// (end-to-end metrics) or, with -trace 1, out/layers.json (per-layer
// metrics) and out/trace.json (Chrome trace_event spans). With -workload it
// runs that workload alone, writes the same files for it, and ends its
// output with one JSON line: correct, attempted, failed and metrics. compare
// judges paired runs of two commits by the bounds in BENCHMARK.json.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ros/benchmark"
)

// A workload's setup_s is the median of its measuring process's own set-up
// and of set-ups in fresh processes that only set up: at least setupMin in
// all, and up to setupMax while they have taken under setupBudget, so the
// 7-second beam-shaping set-up is sampled three times and a set-up of tens
// of milliseconds, whose run-to-run spread is the widest, nine.
const (
	setupMin    = 3
	setupMax    = 9
	setupBudget = 5 * time.Second
)

// overhead bounds everything in a one-workload run beyond its measuring
// budget: set-ups, the last round, and writing results.
const overhead = 150 * time.Second

func main() {
	start := time.Now()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, start, os.Args[1:], os.Stdout)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, start time.Time, args []string, stdout io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compare(args[1:], stdout)
	}
	fs := flag.NewFlagSet("rosperf", flag.ContinueOnError)
	workload := fs.String("workload", "", "run only this workload (default: every workload, each in a fresh process)")
	seed := fs.Int64("seed", 1, "seed every generated input derives from")
	seconds := fs.Float64("seconds", 20, "measuring budget per workload in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced run, which reports per-layer metrics")
	out := fs.String("out", "out", "directory the result files are written to")
	report := fs.String("report", "", "write the workload's report to this file instead of the result files")
	setupOnly := fs.Bool("setup-only", false, "measure one set-up of -workload and print it in seconds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds < 0 {
		fmt.Fprintln(os.Stderr, "rosperf: usage: rosperf [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-out dir]")
		return 2
	}
	opt := benchmark.Options{Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Start: start}
	if *workload == "" {
		return runAll(ctx, opt, *out, stdout)
	}
	w, err := benchmark.Lookup(*workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rosperf:", err)
		return 2
	}
	ctx, cancel := context.WithTimeout(ctx, time.Duration(*seconds*float64(time.Second))+overhead)
	defer cancel()
	if *setupOnly {
		s, err := benchmark.SetupTime(ctx, w, opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rosperf:", err)
			return 1
		}
		fmt.Fprintln(stdout, strconv.FormatFloat(s, 'g', -1, 64))
		return 0
	}
	rep, err := runOne(ctx, w, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rosperf:", err)
		return 1
	}
	printReport(stdout, rep)
	if *report != "" {
		if err := writeJSON(*report, rep); err != nil {
			fmt.Fprintln(os.Stderr, "rosperf:", err)
			return 1
		}
		return 0
	}
	if err := writeResults(stdout, *out, opt, []*benchmark.Report{rep}); err != nil {
		fmt.Fprintln(os.Stderr, "rosperf:", err)
		return 1
	}
	if err := printLine(stdout, rep); err != nil {
		fmt.Fprintln(os.Stderr, "rosperf:", err)
		return 1
	}
	return 0
}

// runOne measures one workload in this process. Untraced, it then measures
// more set-ups in fresh processes and reports the median of all.
func runOne(ctx context.Context, w benchmark.Workload, opt benchmark.Options) (*benchmark.Report, error) {
	rep, err := benchmark.Run(ctx, w, opt)
	if err != nil || opt.Trace {
		return rep, err
	}
	samples := append([]float64(nil), rep.SetupSamples...)
	spent := samples[0]
	for len(samples) < setupMin || (len(samples) < setupMax && spent < setupBudget.Seconds()) {
		var buf bytes.Buffer
		if err := self(ctx, &buf, "-setup-only", "-workload", w.Name, "-seed", strconv.FormatInt(opt.Seed, 10)); err != nil {
			return nil, err
		}
		s, err := strconv.ParseFloat(strings.TrimSpace(buf.String()), 64)
		if err != nil {
			return nil, fmt.Errorf("set-up child printed %q: %w", buf.String(), err)
		}
		samples = append(samples, s)
		spent += s
	}
	rep.SetSetup(samples)
	return rep, nil
}

// runAll runs every workload in its own process and writes their results
// together. It fails when any read of any workload failed.
func runAll(ctx context.Context, opt benchmark.Options, out string, stdout io.Writer) int {
	if err := os.MkdirAll(out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "rosperf:", err)
		return 1
	}
	var reps []*benchmark.Report
	for _, w := range benchmark.Workloads() {
		path := filepath.Join(out, w.Name+".report.json")
		err := self(ctx, stdout, "-workload", w.Name,
			"-seed", strconv.FormatInt(opt.Seed, 10),
			"-seconds", strconv.FormatFloat(opt.Seconds, 'g', -1, 64),
			"-trace", map[bool]string{false: "0", true: "1"}[opt.Trace],
			"-report", path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rosperf:", err)
			return 1
		}
		rep, err := readReport(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rosperf:", err)
			return 1
		}
		reps = append(reps, rep)
	}
	if err := writeResults(stdout, out, opt, reps); err != nil {
		fmt.Fprintln(os.Stderr, "rosperf:", err)
		return 1
	}
	for _, rep := range reps {
		if !rep.Correct {
			fmt.Fprintf(stdout, "%s: %d of %d reads failed\n", rep.Workload, rep.Failed, rep.Attempted)
			return 1
		}
	}
	return 0
}

// self runs this binary with args in a fresh process and waits for it.
func self(ctx context.Context, stdout io.Writer, args ...string) error {
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locate own binary: %w", err)
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stdout, cmd.Stderr = stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s: %w", strings.Join(args, " "), err)
	}
	return nil
}

func readReport(path string) (*benchmark.Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep benchmark.Report
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("decode %s: %w", path, err)
	}
	return &rep, os.Remove(path)
}

// writeResults writes results.json, or layers.json and trace.json for a
// traced run, into dir.
func writeResults(stdout io.Writer, dir string, opt benchmark.Options, reps []*benchmark.Report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	res := &benchmark.Results{Seed: opt.Seed, Seconds: opt.Seconds, Trace: opt.Trace, Reports: reps}
	name := "results.json"
	if opt.Trace {
		var buf bytes.Buffer
		if err := benchmark.WriteChromeTrace(&buf, reps); err != nil {
			return err
		}
		path := filepath.Join(dir, "trace.json")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "wrote", path)
		stripped := make([]*benchmark.Report, len(reps))
		for i, rep := range reps {
			r := *rep
			r.Spans = nil
			stripped[i] = &r
		}
		res.Reports = stripped
		name = "layers.json"
	}
	path := filepath.Join(dir, name)
	if err := writeJSON(path, res); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "wrote", path)
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printReport prints every metric of a report by name with its unit.
func printReport(w io.Writer, rep *benchmark.Report) {
	kind := "end-to-end"
	if rep.Trace {
		kind = "per-layer"
	}
	fmt.Fprintf(w, "%s (%s, seed %d): %d rounds, %d reads, %d failed, fail_ratio %g\n",
		rep.Workload, kind, rep.Seed, rep.Rounds, rep.Attempted, rep.Failed, rep.FailRatio())
	names := make([]string, 0, len(rep.Metrics))
	for name := range rep.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		st := rep.Metrics[name]
		switch {
		case st.Absent:
			fmt.Fprintf(w, "  %-32s %14s %s\n", name, "absent", st.Unit)
		case st.Q1 == st.Q3:
			fmt.Fprintf(w, "  %-32s %14.4f %s\n", name, st.Value, st.Unit)
		default:
			fmt.Fprintf(w, "  %-32s %14.4f %-8s [median %.4f, q1 %.4f, q3 %.4f]\n",
				name, st.Value, st.Unit, st.Median, st.Q1, st.Q3)
		}
	}
}

// printLine prints the one-line JSON result: absent per-layer metrics read
// as 0 there.
func printLine(w io.Writer, rep *benchmark.Report) error {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, map[string]metric{}}
	for name, st := range rep.Metrics {
		line.Metrics[name] = metric{Value: st.Value, Unit: st.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// compare judges change runs against parent runs, pairing them by position.
// It exits 1 when any metric got worse.
func compare(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("rosperf compare", flag.ContinueOnError)
	manifest := fs.String("manifest", "../BENCHMARK.json", "BENCHMARK.json holding the metric bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	parentPaths, changePaths, ok := splitArgs(fs.Args())
	if !ok {
		fmt.Fprintln(os.Stderr, "rosperf: usage: rosperf compare [-manifest file] parent.json... -- change.json...")
		return 2
	}
	m, err := benchmark.LoadManifest(*manifest)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rosperf:", err)
		return 1
	}
	load := func(paths []string) ([]*benchmark.Results, error) {
		var out []*benchmark.Results
		for _, p := range paths {
			r, err := benchmark.LoadResults(p)
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
		return out, nil
	}
	parent, err1 := load(parentPaths)
	change, err2 := load(changePaths)
	if err := errors.Join(err1, err2); err != nil {
		fmt.Fprintln(os.Stderr, "rosperf:", err)
		return 1
	}
	bw := bufio.NewWriter(stdout)
	fmt.Fprintf(bw, "%-15s %-16s %-8s %26s %26s %6s  %s\n", "workload", "metric", "unit",
		"parent median [q1, q3]", "change median [q1, q3]", "wins", "verdict")
	code := 0
	for _, r := range benchmark.Compare(m, parent, change) {
		if r.Verdict == benchmark.Worse {
			code = 1
		}
		fmt.Fprintf(bw, "%-15s %-16s %-8s %26s %26s %6s  %s\n", r.Workload, r.Spec.Name, r.Spec.Unit,
			summary(r.Parent), summary(r.Change), fmt.Sprintf("%d/%d", r.Wins, r.Pairs), r.Verdict)
	}
	if err := bw.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "rosperf:", err)
		return 1
	}
	return code
}

// splitArgs splits "a b -- c d" into both sides, each non-empty.
func splitArgs(args []string) (parent, change []string, ok bool) {
	for i, a := range args {
		if a == "--" {
			parent, change = args[:i], args[i+1:]
			return parent, change, len(parent) > 0 && len(change) > 0
		}
	}
	return nil, nil, false
}

func summary(xs []float64) string {
	q1, med, q3 := benchmark.Quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", med, q1, q3)
}
