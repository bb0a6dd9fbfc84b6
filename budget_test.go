package ros

import (
	"runtime"
	"runtime/debug"
	"testing"

	"ros/internal/obs"
)

// Exact budgets of the canonical read (the 32-module "1111" tag at 3 m,
// seed 1, one frame-loop worker: rosperf's read-canonical and every rosd
// read), set from measurement. A change that lowers a count lowers its
// bound here; a raised bound is a regression to report, not a setting to
// retune. docs/PERF.md records where each value came from.
const (
	// budgetFrames: 280 detection-mode frames, and no decode-mode frame
	// on the ideal converter (its bins come from BinSpectrum).
	budgetFrames = 280
	// budgetFFTCalls: one range transform per channel of each frame.
	budgetFFTCalls = 1120
	// budgetAllocs and budgetBytes bound one read's heap allocations
	// with the collector off, after a warm-up read has filled the pools.
	budgetAllocs = 2130
	budgetBytes  = 380 << 10
)

// TestCanonicalReadBudgets pins the work counts of the canonical read, which
// are exact on any host, where wall time is not. The frame and FFT counts
// hold everywhere. The allocation half runs with the collector off for this
// process, so sync.Pool keeps its items, on one P, so the measured read
// finds them in the per-P pools the warm-up filled, and with the flight
// recorder off, whose captures depend on wall time. It skips under the
// race detector, where pools drop items at random.
func TestCanonicalReadBudgets(t *testing.T) {
	tag, err := NewTag("1111")
	if err != nil {
		t.Fatal(err)
	}
	r := NewReader()
	opts := ReadOptions{Standoff: 3, Seed: 1, Workers: 1}
	defer obs.DefaultFlight.SetEnabled(obs.DefaultFlight.SetEnabled(false))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rd, err := r.Read(tag, opts) // also the warm-up read
	if err != nil {
		t.Fatal(err)
	}
	if !rd.Detected || rd.Bits != "1111" {
		t.Fatalf("canonical read: detected %v, bits %q", rd.Detected, rd.Bits)
	}
	if rd.Stats.Frames != budgetFrames || rd.Stats.FFTCalls != budgetFFTCalls {
		t.Fatalf("canonical read: %d frames and %d FFT calls, want %d and %d",
			rd.Stats.Frames, rd.Stats.FFTCalls, budgetFrames, budgetFFTCalls)
	}
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := r.Read(tag, opts); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	allocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	t.Logf("canonical read: %d allocations, %d bytes", allocs, bytes)
	if allocs > budgetAllocs || bytes > budgetBytes {
		t.Fatalf("canonical read: %d allocations and %d bytes, budget %d and %d",
			allocs, bytes, budgetAllocs, budgetBytes)
	}
}
