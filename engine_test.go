package ros

// Lifecycle tests for the Engine resource handle: explicit cache ownership
// must change where memoized state lives and when it dies — never what a
// read returns.

import (
	"fmt"
	"sync"
	"testing"

	"ros/internal/engine"
	"ros/internal/obs"
)

// engineGaugeEntries counts the resident ros_engine_cache_entries labelsets
// in the default registry, optionally restricted to one engine id.
func engineGaugeEntries(engineID string) int {
	snap := obs.Default.Snapshot()
	n := 0
	for _, g := range snap.Gauges {
		if g.Name != "ros_engine_cache_entries" {
			continue
		}
		if engineID != "" && g.Labels["engine"] != engineID {
			continue
		}
		n++
	}
	return n
}

// TestEngineReadByteIdentical: a read through an explicit Engine is
// byte-identical to the default-cache read at every worker count — same
// decoded bits, same SNR, same raw capture bytes.
func TestEngineReadByteIdentical(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			opts := ReadOptions{Seed: 42, Workers: workers}
			base, baseCapture := readCaptureOpts(t, NewReader(), opts)

			e := NewEngine()
			defer e.Close()
			withEngine, engineCapture := readCaptureOpts(t, NewReader(WithEngine(e)), opts)

			if string(engineCapture) != string(baseCapture) {
				t.Error("engine-backed capture differs from default-cache capture")
			}
			if withEngine.Bits != base.Bits || withEngine.SNRdB != base.SNRdB ||
				withEngine.MedianRSSdBm != base.MedianRSSdBm {
				t.Errorf("engine outcome diverged: %q/%v/%v vs %q/%v/%v",
					withEngine.Bits, withEngine.SNRdB, withEngine.MedianRSSdBm,
					base.Bits, base.SNRdB, base.MedianRSSdBm)
			}
		})
	}
}

// TestEngineCloseDropsGauges: an engine's caches report per-engine metric
// entries while it lives, and Close retires every one of them.
func TestEngineCloseDropsGauges(t *testing.T) {
	before := engineGaugeEntries("")
	e := NewEngine()
	r := NewReader(WithEngine(e))
	tag, err := NewTag("1011")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(tag, ReadOptions{Seed: 7, Workers: 2}); err != nil {
		t.Fatal(err)
	}
	during := engineGaugeEntries("")
	if during <= before {
		t.Fatalf("engine read registered no per-engine gauge entries (%d before, %d during)",
			before, during)
	}
	e.Close()
	if !e.Closed() {
		t.Fatal("Closed() false after Close")
	}
	after := engineGaugeEntries("")
	if after != before {
		t.Fatalf("engine gauge entries not retired by Close: %d before, %d after",
			before, after)
	}
	e.Close() // idempotent
}

// TestEngineCloseDuringReads: Close while reads against the engine are in
// flight must not corrupt them — in-flight reads complete with the right
// bits, and reads started after Close still work (cold caches).
func TestEngineCloseDuringReads(t *testing.T) {
	tag, err := NewTag("1011")
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine()
	r := NewReader(WithEngine(e))

	const readers = 4
	var wg sync.WaitGroup
	errs := make([]error, readers)
	bits := make([]string, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reading, err := r.Read(tag, ReadOptions{Seed: int64(40 + i), Workers: 2})
			if err != nil {
				errs[i] = err
				return
			}
			bits[i] = reading.Bits
		}(i)
	}
	// Close concurrently with the in-flight reads.
	e.Close()
	wg.Wait()
	for i := 0; i < readers; i++ {
		if errs[i] != nil {
			t.Fatalf("read %d failed across Close: %v", i, errs[i])
		}
		if bits[i] != "1011" {
			t.Fatalf("read %d decoded %q across Close, want 1011", i, bits[i])
		}
	}

	// A read after Close repopulates cold caches and still decodes.
	reading, err := r.Read(tag, ReadOptions{Seed: 42, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if reading.Bits != "1011" {
		t.Fatalf("post-Close read decoded %q, want 1011", reading.Bits)
	}
}

// TestEngineSharedAcrossReaders: two readers on one engine share its caches
// and still read byte-identically to independent readers.
func TestEngineSharedAcrossReaders(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	opts := ReadOptions{Seed: 42, Workers: 2}
	_, first := readCaptureOpts(t, NewReader(WithEngine(e)), opts)
	_, second := readCaptureOpts(t, NewReader(WithEngine(e)), opts)
	if string(first) != string(second) {
		t.Error("two readers sharing an engine produced different captures")
	}
}

// TestEngineSpectrumPlanOncePerSize: the decoder's spectrum plan is built
// once per transform size on an Engine — two canonical reads leave one
// spectrum_plan entry — and Close retires it.
func TestEngineSpectrumPlanOncePerSize(t *testing.T) {
	e := NewEngine()
	spectrumPlans := func() (float64, bool) {
		for _, g := range obs.Default.Snapshot().Gauges {
			if g.Name == "ros_engine_cache_entries" && g.Labels["engine"] == e.h.ID() &&
				g.Labels["cache"] == engine.CacheSpectrumPlans {
				return g.Value, true
			}
		}
		return 0, false
	}
	r := NewReader(WithEngine(e))
	for _, seed := range []int64{7, 8} {
		if reading, _ := readCaptureOpts(t, r, ReadOptions{Seed: seed, Workers: 2}); reading.Bits != "1011" {
			t.Fatalf("seed %d decoded %q, want 1011", seed, reading.Bits)
		}
	}
	if v, ok := spectrumPlans(); !ok || v != 1 {
		t.Fatalf("spectrum_plan entries after two reads = %v (registered %v), want 1", v, ok)
	}
	e.Close()
	if v, ok := spectrumPlans(); ok {
		t.Fatalf("spectrum_plan label set survived Close (value %v)", v)
	}
}
