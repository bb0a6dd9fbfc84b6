package ros

// Determinism regression tests for the parallel radar engine: a read's
// outcome must depend only on ReadOptions.Seed — never on the worker count
// or GOMAXPROCS — because every frame draws its noise from a private
// sub-stream derived from (seed, frame index), and the parallel spotlight
// passes (object classification and decode-mode RCS sampling) draw no
// randomness and collect results in index order.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"ros/internal/obs"
)

// readCaptureOpts runs one read with the given options and returns the
// reading plus the saved capture bytes (the raw per-frame samples backing
// the decode).
func readCaptureOpts(t *testing.T, r *Reader, opts ReadOptions) (*Reading, []byte) {
	t.Helper()
	tag, err := NewTag("1011")
	if err != nil {
		t.Fatal(err)
	}
	reading, err := r.Read(tag, opts)
	if err != nil {
		t.Fatal(err)
	}
	return reading, captureBytes(t, reading)
}

// captureBytes saves a detected reading's capture and returns its bytes.
func captureBytes(t *testing.T, reading *Reading) []byte {
	t.Helper()
	if !reading.Detected {
		t.Fatal("tag not detected")
	}
	path := filepath.Join(t.TempDir(), "capture.json")
	if err := reading.SaveCapture(path, "determinism"); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// readFullScan is r.ReadContext with the incremental point-cloud scan
// disabled: every per-frame scan walks all range bins, the reference the
// incremental scan is pinned against.
func readFullScan(ctx context.Context, r *Reader, tag *Tag, opts ReadOptions) (*Reading, error) {
	cfg := r.driveBy(tag, opts)
	cfg.DisableIncrementalScan = true
	return r.run(ctx, tag, cfg)
}

// readCapture runs one seeded read and returns the reading plus the saved
// capture bytes.
func readCapture(t *testing.T, workers int) (*Reading, []byte) {
	t.Helper()
	return readCaptureOpts(t, NewReader(), ReadOptions{Seed: 42, Workers: workers})
}

func TestReadIdenticalAcrossWorkerCounts(t *testing.T) {
	// Worker counts per the spotlight-parallelism acceptance criteria:
	// 1 (the base), 4, and GOMAXPROCS, plus an oversubscribed 8.
	base, baseCapture := readCapture(t, 1)
	for _, workers := range []int{2, 4, runtime.GOMAXPROCS(0), 8} {
		got, capture := readCapture(t, workers)
		if got.Bits != base.Bits || got.SNRdB != base.SNRdB ||
			got.RSSLossDB != base.RSSLossDB || got.MedianRSSdBm != base.MedianRSSdBm {
			t.Errorf("workers=%d: outcome diverged: bits %q vs %q, SNR %v vs %v",
				workers, got.Bits, base.Bits, got.SNRdB, base.SNRdB)
		}
		if string(capture) != string(baseCapture) {
			t.Errorf("workers=%d: capture samples not byte-identical", workers)
		}
	}
}

func TestReadIdenticalAcrossGOMAXPROCS(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	base, baseCapture := readCapture(t, 0)
	runtime.GOMAXPROCS(max(prev, runtime.NumCPU()))
	defer runtime.GOMAXPROCS(prev)
	got, capture := readCapture(t, 0)
	if got.Bits != base.Bits || got.SNRdB != base.SNRdB {
		t.Errorf("GOMAXPROCS changed the outcome: bits %q vs %q, SNR %v vs %v",
			got.Bits, base.Bits, got.SNRdB, base.SNRdB)
	}
	if string(capture) != string(baseCapture) {
		t.Error("GOMAXPROCS changed the capture samples")
	}
}

func TestReadStatsPopulated(t *testing.T) {
	reading, _ := readCapture(t, 2)
	s := reading.Stats
	if s.Frames == 0 || s.FFTCalls == 0 {
		t.Errorf("work counters empty: %+v", s)
	}
	if s.Workers != 2 {
		t.Errorf("workers = %d, want 2", s.Workers)
	}
	if s.Synthesize <= 0 || s.RangeFFT <= 0 || s.Wall <= 0 {
		t.Errorf("stage times not recorded: %+v", s)
	}
}

// TestReadIdenticalAcrossMemoState pins the Engine caches'
// value-neutrality: a cold-Engine read, a warm repeat on the same Engine, and
// a read after Close are all byte-identical.
func TestReadIdenticalAcrossMemoState(t *testing.T) {
	e := NewEngine()
	r := NewReader(WithEngine(e))
	opts := ReadOptions{Seed: 42, Workers: 2}
	base, cold := readCaptureOpts(t, r, opts)
	if e.h.Responses.Len() == 0 {
		t.Error("canonical read left the scene response memo empty — memo never engaged")
	}
	_, warm := readCaptureOpts(t, r, opts)
	if string(warm) != string(cold) {
		t.Error("memo-warm read differs from memo-cold read")
	}
	e.Close()
	rebuilt, raw := readCaptureOpts(t, r, opts)
	if string(raw) != string(cold) {
		t.Error("read after Close differs from the original cold read")
	}
	if rebuilt.Bits != base.Bits || rebuilt.SNRdB != base.SNRdB {
		t.Errorf("read after Close diverged: %q/%v vs %q/%v",
			rebuilt.Bits, rebuilt.SNRdB, base.Bits, base.SNRdB)
	}
}

// TestReadIdenticalWithIncrementalScanDisabled is the incremental scan's
// exactness contract at the API surface: disabling it changes nothing in
// the read, at any worker count, while the default path demonstrably takes
// the restricted scan.
func TestReadIdenticalWithIncrementalScanDisabled(t *testing.T) {
	r := NewReader()
	incCounter := obs.Default.Counter("ros_radar_scan_incremental_total", "")
	for _, workers := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			opts := ReadOptions{Seed: 42, Workers: workers}
			before := incCounter.Value()
			inc, incCap := readCaptureOpts(t, r, opts)
			if incCounter.Value() == before {
				t.Error("default read never took the incremental scan path")
			}
			tag, err := NewTag("1011")
			if err != nil {
				t.Fatal(err)
			}
			full, err := readFullScan(context.Background(), r, tag, opts)
			if err != nil {
				t.Fatal(err)
			}
			fullCap := captureBytes(t, full)
			if inc.Bits != full.Bits || inc.SNRdB != full.SNRdB ||
				inc.RSSLossDB != full.RSSLossDB || inc.MedianRSSdBm != full.MedianRSSdBm {
				t.Errorf("incremental scan changed the outcome: %q/%v vs %q/%v",
					inc.Bits, inc.SNRdB, full.Bits, full.SNRdB)
			}
			if string(incCap) != string(fullCap) {
				t.Error("incremental scan changed the capture samples")
			}
		})
	}
}

// TestReadIdenticalUnderFullTelemetry is the observability-neutrality
// contract: with the flight recorder capturing every read and the runtime
// poller sampling at a tight interval, reads must stay byte-identical across
// worker counts — the telemetry layer draws no randomness and never feeds
// back into the simulation.
func TestReadIdenticalUnderFullTelemetry(t *testing.T) {
	prevEvery := obs.DefaultFlight.SetSampleEvery(1) // record every read
	defer obs.DefaultFlight.SetSampleEvery(prevEvery)
	rt := obs.StartRuntime(obs.Default, time.Millisecond)
	defer rt.Stop()

	base, baseCapture := readCapture(t, 1)
	if base.FlightSeq < 0 {
		t.Fatal("sample-every 1 but the read was not flight-recorded")
	}
	for _, workers := range []int{2, 4, 8} {
		got, capture := readCapture(t, workers)
		if got.Bits != base.Bits || got.SNRdB != base.SNRdB ||
			got.RSSLossDB != base.RSSLossDB || got.MedianRSSdBm != base.MedianRSSdBm {
			t.Errorf("workers=%d under telemetry: outcome diverged: bits %q vs %q, SNR %v vs %v",
				workers, got.Bits, base.Bits, got.SNRdB, base.SNRdB)
		}
		if string(capture) != string(baseCapture) {
			t.Errorf("workers=%d under telemetry: capture samples not byte-identical", workers)
		}
		if got.FlightSeq < 0 {
			t.Errorf("workers=%d: read not flight-recorded at sample-every 1", workers)
		}
		// The flight entry itself agrees on everything deterministic.
		a := obs.DefaultFlight.Find(42)
		if a == nil {
			t.Fatalf("workers=%d: seed 42 missing from the flight ring", workers)
		}
		if a.Outcome != "ok" || a.FramesDropped != 0 || len(a.FaultKinds) != 0 {
			t.Errorf("workers=%d: clean read recorded as %+v", workers, a)
		}
	}
}
