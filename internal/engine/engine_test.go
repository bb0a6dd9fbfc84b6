package engine

import (
	"sync"
	"testing"

	"ros/internal/coding"
	"ros/internal/dsp"
	"ros/internal/geom"
	"ros/internal/obs"
	"ros/internal/radar"
	"ros/internal/scene"
	"ros/internal/stack"
)

// residentCaches returns the engine's ros_engine_cache_entries values by
// cache label, as the default registry exposes them.
func residentCaches(e *Engine) map[string]float64 {
	out := map[string]float64{}
	for _, g := range obs.Default.Snapshot().Gauges {
		if g.Name == "ros_engine_cache_entries" && g.Labels["engine"] == e.ID() {
			out[g.Labels["cache"]] = g.Value
		}
	}
	return out
}

// TestSynthPlanConcurrentConstruction pins the losing-racer contract of
// SynthPlan: many goroutines requesting the same configuration at once all
// get the same plan pointer, and the cache holds exactly one entry.
func TestSynthPlanConcurrentConstruction(t *testing.T) {
	e := New("")
	defer e.Close()
	cfg := radar.TI1443()

	const goroutines = 32
	var (
		start sync.WaitGroup
		done  sync.WaitGroup
		gate  = make(chan struct{})
		plans [goroutines]*radar.SynthPlan
	)
	start.Add(goroutines)
	done.Add(goroutines)
	for i := 0; i < goroutines; i++ {
		go func(i int) {
			defer done.Done()
			start.Done()
			<-gate
			plans[i] = e.SynthPlan(cfg)
		}(i)
	}
	start.Wait()
	close(gate)
	done.Wait()

	for i := 1; i < goroutines; i++ {
		if plans[i] != plans[0] {
			t.Fatalf("goroutine %d got a different plan pointer", i)
		}
	}
	if got := residentCaches(e)[CacheSynthPlans]; got != 1 {
		t.Fatalf("synth plan gauge = %v after one racing config, want 1", got)
	}

	// The surviving plan must work: synthesize one frame through it.
	f := plans[0].Synthesize(nil, nil)
	if f.NumRx != cfg.NumRx || f.Samples != cfg.Samples {
		t.Fatalf("frame shape %dx%d from the raced plan, want %dx%d",
			f.NumRx, f.Samples, cfg.NumRx, cfg.Samples)
	}
	radar.ReleaseFrame(f)
}

// TestSynthPlanPerConfig: equal configs share one plan, distinct configs
// get distinct plans, and the gauge counts one entry per config.
func TestSynthPlanPerConfig(t *testing.T) {
	e := New("")
	defer e.Close()
	c := radar.TI1443()
	if e.SynthPlan(c) != e.SynthPlan(c) {
		t.Error("identical configs yielded distinct plans")
	}
	c2 := c
	c2.Samples = 512
	if e.SynthPlan(c) == e.SynthPlan(c2) {
		t.Error("distinct configs shared a plan")
	}
	if got := residentCaches(e)[CacheSynthPlans]; got != 2 {
		t.Errorf("synth plan gauge = %v after two configs, want 2", got)
	}
}

// testScene returns a one-tag scene memoizing its responses in e.
func testScene(t *testing.T, e *Engine) *scene.Scene {
	t.Helper()
	bits, err := coding.ParseBits("1011")
	if err != nil {
		t.Fatal(err)
	}
	layout, err := coding.NewLayout(bits, coding.DefaultDelta())
	if err != nil {
		t.Fatal(err)
	}
	tag, err := scene.NewTag(layout, stack.NewUniform(8), geom.Vec3{})
	if err != nil {
		t.Fatal(err)
	}
	return &scene.Scene{Tags: []*scene.Tag{tag}, Responses: e.Responses}
}

// TestCloseClearsCaches pins the retention contract: first use registers
// entries in every cache gauge, Close zeroes them and retires their label sets,
// and a plan rebuilt after Close — like an unshared NewSynthPlan — makes
// the pre-Close frame and point cloud bit for bit (entries are pure
// memoization, never state).
func TestCloseClearsCaches(t *testing.T) {
	e := New("")
	c := radar.TI1443()
	sc := testScene(t, e)
	scat := sc.Scatterers(geom.Vec3{X: 0.3, Y: 4}, geom.Vec3{X: 10}, scene.ModeDetect, c.FrontEnd, c.CenterFrequency, nil)
	if len(scat) == 0 {
		t.Fatal("test scene has no scatterers")
	}

	// synth returns one noisy frame of the scene and its point cloud.
	synth := func(p *radar.SynthPlan) ([]complex128, []radar.Detection) {
		f := p.Synthesize(scat, dsp.AcquireGauss(7))
		defer radar.ReleaseFrame(f)
		rp := p.RangeProfile(f)
		defer radar.ReleaseProfile(rp)
		return append([]complex128(nil), f.Data...), p.PointCloudScan(rp)
	}
	p := e.SynthPlan(c)
	beforeFrame, beforeCloud := synth(p)
	if len(beforeCloud) == 0 {
		t.Fatal("test frame yields an empty point cloud")
	}
	if e.SpectrumPlan(8192) != e.SpectrumPlan(8192) {
		t.Fatal("one transform size yielded distinct spectrum plans")
	}

	caches := residentCaches(e)
	if len(caches) != 3 || caches[CacheSynthPlans] != 1 || caches[CacheSpectrumPlans] != 1 ||
		caches[scene.CacheResponses] < 1 {
		t.Fatalf("engine caches before Close = %v, want one synth plan, one spectrum plan and >= 1 scene response", caches)
	}
	gauges := map[string]*obs.Gauge{}
	for cache := range caches {
		gauges[cache] = cacheEntries.With(cache, e.ID())
	}

	e.Close()
	for cache, g := range gauges {
		if v := g.Value(); v != 0 {
			t.Errorf("%s gauge = %v after Close, want 0", cache, v)
		}
	}
	if left := residentCaches(e); len(left) != 0 {
		t.Errorf("label sets left after Close: %v", left)
	}

	rebuilt := e.SynthPlan(c)
	if rebuilt == p {
		t.Fatal("synthesis plan survived Close")
	}
	for name, p2 := range map[string]*radar.SynthPlan{"rebuilt": rebuilt, "fresh": c.NewSynthPlan()} {
		frame, cloud := synth(p2)
		for i := range frame {
			if frame[i] != beforeFrame[i] {
				t.Fatalf("%s plan: sample %d changed: %v -> %v", name, i, beforeFrame[i], frame[i])
			}
		}
		if len(cloud) != len(beforeCloud) {
			t.Fatalf("%s plan: point cloud size changed: %d -> %d", name, len(beforeCloud), len(cloud))
		}
		for i := range cloud {
			if cloud[i] != beforeCloud[i] {
				t.Fatalf("%s plan: point %d changed: %+v -> %+v", name, i, beforeCloud[i], cloud[i])
			}
		}
	}
}
