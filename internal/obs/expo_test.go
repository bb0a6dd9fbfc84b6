package obs

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden exposition files")

// goldenRegistry builds a deterministic registry state: fixed values, fixed
// observation order, so both expositions are byte-stable. It covers scalars,
// labeled vectors, and the non-finite histogram diversion.
func goldenRegistry() *Registry {
	r := NewRegistry()
	r.Counter("ros_frames_synthesized_total", "radar frames synthesized").Add(560)
	r.Counter("ros_fft_calls_total", "fast-time FFTs run").Add(2240)
	r.Gauge("ros_workers", "resolved worker count").Set(8)
	h := r.Histogram("ros_read_wall_seconds", "end-to-end wall time of one pass",
		LogBuckets(0.01, 1, 1))
	for _, v := range []float64{0.005, 0.03, 0.04, 0.25, 2, math.NaN(), math.Inf(1)} {
		h.Observe(v)
	}
	oc := r.CounterVec("ros_reads_by_outcome_total", "reads by outcome and worker bucket",
		"outcome", "workers")
	oc.With("ok", "4").Add(12)
	oc.With("partial", "4").Add(2)
	oc.With("ok", "1").Add(3)
	sg := r.GaugeVecCapacity("ros_cache_entries", "memo cache entries", 0, "cache")
	sg.With("plans").Set(3)
	sh := r.HistogramVec("ros_stage_seconds", "per-stage pass time", []float64{0.01, 0.1}, 0, "stage")
	sh.With("synthesize").Observe(0.02)
	sh.With("synthesize").Observe(0.2)
	sh.With("decode").Observe(0.004)
	return r
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test ./internal/obs -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s mismatch:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestPrometheusGolden(t *testing.T) {
	var b bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	// Spot-check the format invariants independent of the golden bytes.
	for _, want := range []string{
		"# TYPE ros_frames_synthesized_total counter",
		"ros_frames_synthesized_total 560",
		"# TYPE ros_read_wall_seconds histogram",
		`ros_read_wall_seconds_bucket{le="+Inf"} 5`,
		"ros_read_wall_seconds_count 5",
		"ros_read_wall_seconds_nonfinite_total 2",
		`ros_reads_by_outcome_total{outcome="ok",workers="4"} 12`,
		`ros_cache_entries{cache="plans"} 3`,
		`ros_stage_seconds_bucket{stage="synthesize",le="0.1"} 1`,
		`ros_stage_seconds_count{stage="decode"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	checkGolden(t, "metrics.prom", b.Bytes())
}

func TestJSONGolden(t *testing.T) {
	var b bytes.Buffer
	if err := goldenRegistry().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "metrics.json", b.Bytes())
}
