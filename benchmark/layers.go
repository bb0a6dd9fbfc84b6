package benchmark

import (
	"math"
	"runtime/metrics"

	"ros/internal/obs"
	"ros/internal/scene"
)

// regSnap is a point-in-time copy of the program's metrics registry with
// lookups by series name. The benchmark only reads series the program
// already exports; a missing series reads as absent, never as an error,
// because later changes may retire a legacy family.
type regSnap struct{ s obs.Snapshot }

func snapRegistry() regSnap { return regSnap{obs.Default.Snapshot()} }

// counter sums every series of the counter family name.
func (r regSnap) counter(name string) (float64, bool) {
	sum, ok := 0.0, false
	for _, c := range r.s.Counters {
		if c.Name == name {
			sum += float64(c.Value)
			ok = true
		}
	}
	return sum, ok
}

// gauge sums the series of the gauge family name whose labels include every
// pair in match.
func (r regSnap) gauge(name string, match map[string]string) (float64, bool) {
	sum, ok := 0.0, false
	for _, g := range r.s.Gauges {
		if g.Name == name && hasLabels(g.Labels, match) {
			sum += g.Value
			ok = true
		}
	}
	return sum, ok
}

// hist returns the histogram series name with exactly the given labels.
func (r regSnap) hist(name string, labels map[string]string) *obs.HistogramSnap {
	for i := range r.s.Histograms {
		h := &r.s.Histograms[i]
		if h.Name == name && len(h.Labels) == len(labels) && hasLabels(h.Labels, labels) {
			return h
		}
	}
	return nil
}

func hasLabels(have, want map[string]string) bool {
	for k, v := range want {
		if have[k] != v {
			return false
		}
	}
	return true
}

// counterDelta is the growth of a counter family between two snapshots.
func counterDelta(before, after regSnap, name string) (float64, bool) {
	a, ok := after.counter(name)
	if !ok {
		return 0, false
	}
	b, _ := before.counter(name)
	return a - b, true
}

// histDelta returns the observation count and sum a histogram gained
// between two snapshots.
func histDelta(before, after regSnap, name string, labels map[string]string) (count, sum float64, ok bool) {
	a := after.hist(name, labels)
	if a == nil {
		return 0, 0, false
	}
	count, sum = float64(a.Count), a.Sum
	if b := before.hist(name, labels); b != nil {
		count -= float64(b.Count)
		sum -= b.Sum
	}
	return count, sum, true
}

// histDeltaQuantile estimates quantile q of the observations a histogram
// gained between two snapshots, interpolating linearly inside the bucket the
// quantile falls in (the convention of Prometheus's histogram_quantile).
func histDeltaQuantile(before, after regSnap, name string, q float64) (float64, bool) {
	a := after.hist(name, nil)
	if a == nil {
		return 0, false
	}
	b := before.hist(name, nil)
	cum := func(i int) float64 {
		c := float64(a.Buckets[i].Count)
		if b != nil && i < len(b.Buckets) {
			c -= float64(b.Buckets[i].Count)
		}
		return c
	}
	n := len(a.Buckets)
	total := cum(n - 1)
	if total == 0 {
		return 0, true
	}
	rank := q * total
	lo, prev := 0.0, 0.0
	for i := 0; i < n; i++ {
		c, le := cum(i), a.Buckets[i].LE
		if c >= rank {
			if math.IsInf(le, 1) {
				return lo, true
			}
			if c == prev {
				return le, true
			}
			return lo + (le-lo)*(rank-prev)/(c-prev), true
		}
		lo, prev = le, c
	}
	return lo, true
}

// runtimeCounters reads the Go runtime's cumulative allocation and
// garbage-collection CPU accounting (the latter advances at the end of each
// collection cycle).
type runtimeCounters struct {
	allocBytes, gcCPU float64
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return runtimeCounters{val(s[0].Value), val(s[1].Value)}
}

// layerValue is one per-layer result; ok is false when the layer is not on
// the workload's path or its source series does not exist.
type layerValue struct {
	v  float64
	ok bool
}

type layerSet map[string]layerValue

func (l layerSet) set(name string, v float64, ok bool) {
	if ok && (math.IsNaN(v) || math.IsInf(v, 0)) {
		ok = false
	}
	l[name] = layerValue{v, ok}
}

// ratio sets name to num/den when both exist and den is positive.
func (l layerSet) ratio(name string, num float64, numOK bool, den float64, denOK bool) {
	l.set(name, num/den, numOK && denOK && den > 0)
}

// setPercentile sets name to the q-quantile of xs, absent without samples.
func setPercentile(l layerSet, name string, xs []float64, q float64) {
	l.set(name, Percentile(xs, q), len(xs) > 0)
}

// pipelineLayers fills the metrics every workload shares, from registry
// growth over the measured rounds: the simulator's per-stage times, its
// work counts, the scan and cache families, and the runtime's allocation
// and GC share.
func pipelineLayers(l layerSet, t *traceData) {
	before, after := t.before, t.after
	passes, passesOK := counterDelta(before, after, "ros_reads_total")
	stageSum := 0.0
	for _, st := range []struct{ metric, stage string }{
		{"detect.synthesize_ms", "synthesize"},
		{"detect.range_fft_ms", "range_fft"},
		{"detect.point_cloud_ms", "point_cloud"},
		{"detect.cluster_ms", "cluster"},
		{"detect.spotlight_ms", "spotlight"},
		{"sim.decode_ms", "decode"},
	} {
		_, sum, ok := histDelta(before, after, "ros_stage_seconds", map[string]string{"stage": st.stage})
		l.ratio(st.metric, sum*1e3, ok, passes, passesOK)
		stageSum += sum
	}
	// Pass set-up is the wall time no stage accounts for; the stage sums
	// are worker-summed, so this holds at Workers: 1, which every workload
	// uses.
	_, wall, wallOK := histDelta(before, after, "ros_read_wall_seconds", nil)
	l.ratio("sim.prep_ms", (wall-stageSum)*1e3, wallOK, passes, passesOK)

	frames, ok := counterDelta(before, after, "ros_frames_synthesized_total")
	l.ratio("detect.frames_per_read", frames, ok, passes, passesOK)
	ffts, ok := counterDelta(before, after, "ros_fft_calls_total")
	l.ratio("detect.fft_calls_per_read", ffts, ok, passes, passesOK)

	inc, incOK := counterDelta(before, after, "ros_radar_scan_incremental_total")
	full, fullOK := counterDelta(before, after, "ros_radar_scan_full_total")
	l.ratio("radar.scan_incremental_ratio", inc, incOK, inc+full, fullOK)

	legacy, legacyOK := after.gauge("ros_scene_response_entries", nil)
	owned, ownedOK := after.gauge("ros_engine_cache_entries", map[string]string{"cache": scene.CacheResponses})
	l.set("scene.response_entries", legacy+owned, legacyOK || ownedOK)
	entries, _ := after.gauge("ros_engine_cache_entries", nil)
	l.set("engine.cache_entries", entries, true)

	l.ratio("runtime.alloc_mb_per_read", (t.rtAfter.allocBytes-t.rtBefore.allocBytes)/1e6, true, float64(t.reads), true)
	l.ratio("runtime.gc_cpu_share", t.rtAfter.gcCPU-t.rtBefore.gcCPU, true, t.cpu.Seconds(), true)
}
