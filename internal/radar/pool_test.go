package radar

import (
	"testing"

	"ros/internal/dsp"
)

// TestFramePoolReusesAcrossShapes pins the capacity-based reuse contract: a
// pooled buffer big enough for the request is resliced rather than dropped,
// so interleaving two configurations recycles one high-water-mark buffer.
// The pre-fix exact-shape check dropped the buffer on every shape flip,
// costing a fresh allocation per frame.
func TestFramePoolReusesAcrossShapes(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	// Warm the pool to the high-water mark so the measured loop only ever
	// needs reuse.
	framePool.Put(acquireBuf(8, 512, true))

	allocs := testing.AllocsPerRun(100, func() {
		big := acquireBuf(8, 512, false)
		framePool.Put(big)
		small := acquireBuf(4, 256, true)
		framePool.Put(small)
	})
	// A GC between runs may flush the pool and force one reallocation;
	// anything beyond that means the shape flip stopped reusing.
	if allocs > 1 {
		t.Fatalf("interleaved two-shape acquire/release averaged %.1f allocs/run, want ~0", allocs)
	}
}

// TestFramePoolSharedAcrossPlans pins the one-pool contract on the sweep
// case: two plans of one shape, the ideal converter and a 12-bit one, run
// synthesize -> range profile -> release in turns. Each plan's frame reuses
// the buffers the other released and the tone and scan lanes are stack
// scratch, so the steady state allocates nothing per frame.
func TestFramePoolSharedAcrossPlans(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	ideal := TI1443()
	quantized := ideal
	quantized.ADCBits = 12
	plans := []*SynthPlan{ideal.NewSynthPlan(), quantized.NewSynthPlan()}
	scat := []Scatterer{
		{Range: 5, Azimuth: 0.1, Amplitude: 3e-5},
		{Range: 9.5, Azimuth: -0.3, Amplitude: 1.2e-5},
	}
	g := dsp.AcquireGauss(7)
	turn := func() {
		for _, p := range plans {
			f := p.Synthesize(scat, g)
			rp := p.RangeProfile(f)
			ReleaseFrame(f)
			p.PointCloudScan(rp)
			ReleaseProfile(rp)
		}
	}
	turn() // size the Gauss stream's lanes and fill the pool
	if allocs := testing.AllocsPerRun(100, turn); allocs != 0 {
		t.Fatalf("two-plan synthesize/transform/release turn averaged %v allocs, want 0", allocs)
	}
}

// TestFramePoolReshape checks that a reused buffer is correctly resliced:
// the channel views must tile the flat buffer for the new shape, and a zero
// request must actually clear the visible samples.
func TestFramePoolReshape(t *testing.T) {
	big := acquireBuf(6, 128, false)
	for i := range big.flat {
		big.flat[i] = complex(1, 1) // dirty the buffer
	}
	framePool.Put(big)

	b := acquireBuf(3, 64, true)
	if len(b.flat) != 3*64 {
		t.Fatalf("flat length = %d, want %d", len(b.flat), 3*64)
	}
	if len(b.views) != 3 {
		t.Fatalf("views = %d channels, want 3", len(b.views))
	}
	for k, v := range b.views {
		if len(v) != 64 {
			t.Fatalf("channel %d has %d samples, want 64", k, len(v))
		}
		if &v[0] != &b.flat[k*64] {
			t.Fatalf("channel %d view does not tile the flat buffer", k)
		}
	}
	for i, v := range b.flat {
		if v != 0 {
			t.Fatalf("zeroed buffer has %v at %d", v, i)
		}
	}
	framePool.Put(b)

	// Hand-built frames and profiles own no pooled buffer: releasing them
	// must not put a nil buffer into the pool for the next acquire to trip
	// over.
	ReleaseFrame(TI1443().NewFrame())
	ReleaseProfile(RangeProfile{})
	for i := 0; i < 4; i++ {
		framePool.Put(acquireBuf(2, 32, true))
	}
}
