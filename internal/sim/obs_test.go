package sim

import (
	"bytes"
	"context"
	"log/slog"
	"strings"
	"testing"

	"ros/internal/detect"
	"ros/internal/engine"
	"ros/internal/obs"
	"ros/internal/scene"
)

// TestRunSpanTree checks that a pass produces the documented trace shape and
// that the Stats view is exactly the flattened span tree.
func TestRunSpanTree(t *testing.T) {
	out, err := RunContext(context.Background(), DriveBy{BeamShaped: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	root := out.Span
	if root == nil || root.View().Name != SpanRead {
		t.Fatalf("missing %q root span", SpanRead)
	}
	det := root.Child(detect.SpanRun)
	if det == nil {
		t.Fatalf("root has no %q child", detect.SpanRun)
	}
	for _, stage := range []string{
		detect.SpanSynthesize, detect.SpanRangeFFT, detect.SpanPointCloud,
		detect.SpanCluster, detect.SpanSpotlight,
	} {
		if det.Child(stage) == nil {
			t.Errorf("detect span missing stage %q", stage)
		}
	}
	if out.Detected && root.Child(SpanDecode) == nil {
		t.Error("detected pass has no decode span")
	}
	if got := StatsFromSpan(root); got != out.Stats {
		t.Errorf("Stats diverged from span view:\n got %+v\nwant %+v", got, out.Stats)
	}
	if out.Stats.Frames == 0 || out.Stats.SynthesizeNS <= 0 || out.Stats.WallNS <= 0 {
		t.Errorf("span-derived stats look empty: %+v", out.Stats)
	}
	if det.IntAttr("fft_size") == 0 {
		t.Error("detect span has no fft_size attribute")
	}
}

// TestDefaultEngineOwnsCaches: a pass without an explicit Engine memoizes
// into engine.Default(), which reports under
// ros_engine_cache_entries{engine="default"}; no per-package cache gauge
// exists any more.
func TestDefaultEngineOwnsCaches(t *testing.T) {
	if _, err := RunContext(context.Background(), DriveBy{StackModules: 8, FrameBudget: 64, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	resident := map[string]float64{}
	for _, g := range obs.Default.Snapshot().Gauges {
		switch {
		case g.Name == "ros_engine_cache_entries" && g.Labels["engine"] == "default":
			resident[g.Labels["cache"]] = g.Value
		case strings.HasPrefix(g.Name, "ros_dsp_"),
			strings.HasPrefix(g.Name, "ros_radar_") && strings.HasSuffix(g.Name, "_entries"),
			g.Name == "ros_scene_response_entries":
			t.Errorf("per-package cache gauge %s is registered", g.Name)
		}
	}
	// The engine owns exactly three caches; a fourth label means a
	// sub-cache crept back in.
	want := []string{engine.CacheSynthPlans, engine.CacheSpectrumPlans, scene.CacheResponses}
	for _, cache := range want {
		if resident[cache] < 1 {
			t.Errorf(`ros_engine_cache_entries{cache=%q,engine="default"} = %v after a pass, want >= 1`,
				cache, resident[cache])
		}
	}
	if len(resident) != len(want) {
		t.Errorf("default engine reports caches %v, want exactly %v", resident, want)
	}
}

// TestRunLogsUndecodable checks the previously-silent path: logging can be
// redirected per test and captures pipeline context.
func TestObsLoggerSwap(t *testing.T) {
	var buf bytes.Buffer
	prev := obs.SetLogger(slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug})))
	defer obs.SetLogger(prev)
	if _, err := RunContext(context.Background(), DriveBy{BeamShaped: true, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("detect: run complete")) {
		t.Errorf("expected pipeline debug log, got:\n%s", buf.String())
	}
}
