package benchmark

import (
	"encoding/json"
	"fmt"
	"os"
)

// Manifest is the repository's BENCHMARK.json: how the benchmark is run,
// which workloads it has, and the metrics it reports with their bounds.
type Manifest struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []NamedWhy   `json:"workloads"`
	EndToEnd   []MetricSpec `json:"end_to_end"`
	PerLayer   []MetricSpec `json:"per_layer"`
}

// NamedWhy is one declared workload and the reason it exists.
type NamedWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// MetricSpec declares one metric. Bound is the share of the parent's median
// by which an end-to-end metric may worsen before a change counts as a
// regression; per-layer metrics have none.
type MetricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// LoadManifest reads and decodes a BENCHMARK.json file, rejecting unknown
// keys so a typo cannot silently drop a bound.
func LoadManifest(path string) (*Manifest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("benchmark: open manifest: %w", err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var m Manifest
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("benchmark: decode %s: %w", path, err)
	}
	return &m, nil
}

// Spec returns the end-to-end metric named name.
func (m *Manifest) Spec(name string) (MetricSpec, bool) {
	for _, s := range m.EndToEnd {
		if s.Name == name {
			return s, true
		}
	}
	return MetricSpec{}, false
}

// End-to-end metric names: what a user of the library or the service sees.
// An operation is one read on read-canonical, one grid-point pass on
// sweep-grid, and one 4-read batch as its client sees it on rosd-*.
const (
	MSetup      = "setup_s"
	MThroughput = "throughput_rps"
	MOpP50      = "op_p50_ms"
	MCPUPerRead = "cpu_ms_per_read"
	MRSS        = "rss_p90_mb"
)

// EndToEndUnits lists every end-to-end metric with its unit; a run with
// tracing off reports exactly these.
var EndToEndUnits = map[string]string{
	MSetup:      "s",
	MThroughput: "reads/s",
	MOpP50:      "ms",
	MCPUPerRead: "ms",
	MRSS:        "MB",
}

// PerLayerUnits lists every per-layer metric with its unit; a traced run
// reports exactly these, with 0 (flagged absent in layers.json) where a
// layer is not on the workload's path or its registry series is missing.
var PerLayerUnits = map[string]string{
	"rosclient.call_ms_p50":          "ms",
	"rosclient.transport_ms_p50":     "ms",
	"rosclient.retries":              "count",
	"rosd.handler_ms_p50":            "ms",
	"rosd.handler_ms_p90":            "ms",
	"rosd.read_service_ms_p50":       "ms",
	"rosd.nonservice_ms_p50":         "ms",
	"rosd.queue_depth_p90":           "reads",
	"rosd.overloads":                 "count",
	"rosd.engine_hit_ratio":          "ratio",
	"rosd.engine_evictions_per_read": "1/read",
	"engine.cache_entries":           "count",
	"sim.read_ms_p50":                "ms",
	"sim.prep_ms":                    "ms",
	"sim.decode_ms":                  "ms",
	"detect.synthesize_ms":           "ms",
	"detect.range_fft_ms":            "ms",
	"detect.point_cloud_ms":          "ms",
	"detect.cluster_ms":              "ms",
	"detect.spotlight_ms":            "ms",
	"detect.frames_per_read":         "frames/read",
	"detect.fft_calls_per_read":      "calls/read",
	"radar.scan_incremental_ratio":   "ratio",
	"scene.response_entries":         "count",
	"beamshape.shaped_ms":            "ms",
	"sweep.efficiency":               "ratio",
	"runtime.alloc_mb_per_read":      "MB/read",
	"runtime.gc_cpu_share":           "ratio",
	"obs.trace_overhead_pct":         "%",
}
