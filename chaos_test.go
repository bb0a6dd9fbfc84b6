package ros

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ros/internal/fault"
	"ros/internal/obs"
	"ros/internal/rosd"
)

// TestChaosDecodeUnderFrameLoss is the graceful-degradation contract: with
// deterministic fault injection dropping and corrupting up to 20% of frames,
// the read still detects the tag and decodes the right bits at every worker
// count — the decoder reads an aggregate of azimuth samples, so partial
// frame loss costs SNR, not correctness.
func TestChaosDecodeUnderFrameLoss(t *testing.T) {
	tag, err := NewTag("1011")
	if err != nil {
		t.Fatal(err)
	}
	r := NewReader()
	for _, rate := range []float64{0.05, 0.10, 0.20} {
		for _, workers := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("rate=%.2f/workers=%d", rate, workers), func(t *testing.T) {
				reading, err := r.ReadContext(context.Background(), tag, ReadOptions{
					Seed:    7,
					Workers: workers,
					Fault:   &FaultOptions{Seed: 7, FrameDropRate: rate / 2, CorruptRate: rate / 2},
				})
				if err != nil {
					t.Fatalf("read failed under %.0f%% fault rate: %v", rate*100, err)
				}
				if reading.Partial {
					t.Fatal("read marked partial below the loss budget")
				}
				if !reading.Detected {
					t.Fatalf("tag not detected under %.0f%% fault rate", rate*100)
				}
				if reading.Bits != "1011" {
					t.Fatalf("decoded %q under %.0f%% fault rate, want 1011", reading.Bits, rate*100)
				}
				if rate > 0 && reading.Stats.FramesDropped == 0 && reading.Stats.SamplesScrubbed == 0 {
					t.Fatal("fault injection enabled but no drops or scrubs counted")
				}
			})
		}
	}
}

// TestChaosTypedErrorBeyondBudget: when injected loss exceeds MaxFrameLoss,
// the read must fail with the typed ErrFrameCorrupt — not a decode error,
// not a panic, not a silent wrong answer.
func TestChaosTypedErrorBeyondBudget(t *testing.T) {
	tag, err := NewTag("1011")
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewReader().ReadContext(context.Background(), tag, ReadOptions{
		Seed:  7,
		Fault: &FaultOptions{Seed: 7, FrameDropRate: 0.9},
	})
	if err == nil {
		t.Fatal("read succeeded with 90% frame loss against the default 50% budget")
	}
	if !errors.Is(err, ErrFrameCorrupt) {
		t.Fatalf("excess loss not typed ErrFrameCorrupt: %v", err)
	}
}

// TestChaosWorkerPanicRecovery: injected worker panics must surface as a
// typed error carrying the panic, never crash the process.
func TestChaosWorkerPanicRecovery(t *testing.T) {
	tag, err := NewTag("1011")
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewReader().ReadContext(context.Background(), tag, ReadOptions{
		Seed:    7,
		Workers: 4,
		Fault:   &FaultOptions{Seed: 7, PanicRate: 1},
	})
	if err == nil {
		t.Fatal("read succeeded with every frame worker panicking")
	}
	if !errors.Is(err, ErrWorkerPanic) && !errors.Is(err, ErrFrameCorrupt) {
		t.Fatalf("worker panic not typed: %v", err)
	}
}

// TestChaosDeadlinePromptness: a read with a 5ms deadline must return within
// 2x the deadline with a typed partial result. The frame loop checks the
// context at every frame boundary, so expiry can stall at most one frame.
func TestChaosDeadlinePromptness(t *testing.T) {
	tag, err := NewTag("1011")
	if err != nil {
		t.Fatal(err)
	}
	const deadline = 5 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	reading, err := NewReader().ReadContext(ctx, tag, ReadOptions{Seed: 7})
	elapsed := time.Since(start)
	if err == nil {
		t.Skip("read finished inside a 5ms deadline; machine too fast to test expiry")
	}
	if !errors.Is(err, ErrReadCancelled) {
		t.Fatalf("expired read not typed ErrReadCancelled: %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired read does not match context.DeadlineExceeded: %v", err)
	}
	if reading == nil || !reading.Partial {
		t.Fatalf("expired read did not return a partial Reading: %+v", reading)
	}
	// Generous 10x bound under -race and loaded CI; the enforced contract
	// (ISSUE) is 2x, checked on an idle machine by the chaos make target.
	limit := 2 * deadline
	if testing.Short() || raceEnabled {
		limit = 10 * deadline
	}
	if elapsed > limit {
		t.Fatalf("5ms-deadline read took %v, want <= %v", elapsed, limit)
	}
}

// TestChaosExplicitCancel: cancelling mid-read must surface both the typed
// sentinel and context.Canceled in one chain.
func TestChaosExplicitCancel(t *testing.T) {
	tag, err := NewTag("1011")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	reading, err := NewReader().ReadContext(ctx, tag, ReadOptions{Seed: 7})
	if err == nil {
		t.Skip("read finished before the 2ms cancel landed")
	}
	if !errors.Is(err, ErrReadCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled read error chain incomplete: %v", err)
	}
	if reading == nil || !reading.Partial {
		t.Fatal("cancelled read did not return a partial Reading")
	}
}

// TestChaosDeterminism: with injection on, equal seeds must reproduce the
// same decode, drop count, and scrub count at every worker count — fault
// decisions are a pure function of (seed, frame index).
func TestChaosDeterminism(t *testing.T) {
	tag, err := NewTag("1011")
	if err != nil {
		t.Fatal(err)
	}
	r := NewReader()
	type fingerprint struct {
		bits              string
		snr               float64
		dropped, scrubbed int
		detected, partial bool
	}
	var want fingerprint
	for i, workers := range []int{1, 2, 4, 8} {
		reading, err := r.ReadContext(context.Background(), tag, ReadOptions{
			Seed:    11,
			Workers: workers,
			Fault:   &FaultOptions{Seed: 11, FrameDropRate: 0.08, CorruptRate: 0.05},
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := fingerprint{
			bits:     reading.Bits,
			snr:      reading.SNRdB,
			dropped:  reading.Stats.FramesDropped,
			scrubbed: reading.Stats.SamplesScrubbed,
			detected: reading.Detected,
			partial:  reading.Partial,
		}
		if i == 0 {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("workers=%d diverged: %+v vs %+v", workers, got, want)
		}
	}
}

// TestChaosIncrementalScanMatchesFullScan: with 20% of frames dropped or
// corrupted, the incremental point-cloud scan must still match the full-scan
// pipeline byte for byte at every worker count — fault transients are
// exactly the regime where stale hints would bite if the coverage check ever
// let one through.
func TestChaosIncrementalScanMatchesFullScan(t *testing.T) {
	tag, err := NewTag("1011")
	if err != nil {
		t.Fatal(err)
	}
	r := NewReader()
	for _, workers := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			opts := ReadOptions{
				Seed:    29,
				Workers: workers,
				Fault:   &FaultOptions{Seed: 29, FrameDropRate: 0.10, CorruptRate: 0.10},
			}
			inc, err := r.ReadContext(context.Background(), tag, opts)
			if err != nil {
				t.Fatalf("incremental read: %v", err)
			}
			full, err := readFullScan(context.Background(), r, tag, opts)
			if err != nil {
				t.Fatalf("full-scan read: %v", err)
			}
			if inc.Detected != full.Detected || inc.Bits != full.Bits ||
				inc.SNRdB != full.SNRdB || inc.RSSLossDB != full.RSSLossDB ||
				inc.MedianRSSdBm != full.MedianRSSdBm ||
				inc.Stats.FramesDropped != full.Stats.FramesDropped ||
				inc.Stats.SamplesScrubbed != full.Stats.SamplesScrubbed {
				t.Fatalf("incremental scan diverged under faults:\n inc: %q snr=%v rss=%v dropped=%d\nfull: %q snr=%v rss=%v dropped=%d",
					inc.Bits, inc.SNRdB, inc.MedianRSSdBm, inc.Stats.FramesDropped,
					full.Bits, full.SNRdB, full.MedianRSSdBm, full.Stats.FramesDropped)
			}
			if !inc.Detected || inc.Bits != "1011" {
				t.Fatalf("decode failed through 20%% loss: detected=%v bits=%q", inc.Detected, inc.Bits)
			}
		})
	}
}

// TestChaosScanResetsAfterFaults: every frame that passes through sample
// corruption must restart the incremental scan from a Reset state — counted
// as full scans, one per tainted frame at minimum. Burst faults are used
// because burst frames are always finite, hence always kept and scanned.
func TestChaosScanResetsAfterFaults(t *testing.T) {
	tag, err := NewTag("1011")
	if err != nil {
		t.Fatal(err)
	}
	faultCfg := fault.Config{Seed: 31, BurstRate: 0.15}
	fullCounter := obs.Default.Counter("ros_radar_scan_full_total", "")
	before := fullCounter.Value()
	reading, err := NewReader().Read(tag, ReadOptions{
		Seed:    31,
		Fault:   &FaultOptions{Seed: faultCfg.Seed, BurstRate: faultCfg.BurstRate},
		Workers: 1, // one worker = one scan state: full scans are cold start + refreshes + resets
	})
	if err != nil {
		t.Fatal(err)
	}
	delta := fullCounter.Value() - before
	inj, err := fault.New(faultCfg)
	if err != nil {
		t.Fatal(err)
	}
	kinds := inj.Kinds(reading.Stats.Frames / 2)
	if kinds.Burst == 0 {
		t.Fatal("schedule injected no bursts; raise the rate")
	}
	if delta < int64(kinds.Burst) {
		t.Errorf("only %d full scans over a read with %d burst-tainted frames — faults rode on stale hints", delta, kinds.Burst)
	}
}

// TestChaosFlightRecorder is the forensics contract: every read with
// injected faults must be findable in the flight-recorder ring, carrying the
// injected fault kinds and degradation counters that match the injector's
// deterministic schedule exactly.
func TestChaosFlightRecorder(t *testing.T) {
	tag, err := NewTag("1011")
	if err != nil {
		t.Fatal(err)
	}
	r := NewReader()
	// Silence the background sample so only the policy's always-record rules
	// fire; restore for the rest of the suite.
	prev := obs.DefaultFlight.SetSampleEvery(1 << 30)
	defer obs.DefaultFlight.SetSampleEvery(prev)
	cases := []struct {
		name string
		cfg  fault.Config
		kind string
	}{
		{"drop", fault.Config{Seed: 21, FrameDropRate: 0.15}, "drop"},
		{"corrupt", fault.Config{Seed: 22, CorruptRate: 0.15}, "corrupt"},
		{"burst", fault.Config{Seed: 23, BurstRate: 0.15}, "burst"},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seed := int64(91000 + i)
			reading, err := r.Read(tag, ReadOptions{
				Seed: seed,
				Fault: &FaultOptions{
					Seed:          tc.cfg.Seed,
					FrameDropRate: tc.cfg.FrameDropRate,
					CorruptRate:   tc.cfg.CorruptRate,
					BurstRate:     tc.cfg.BurstRate,
				},
			})
			if err != nil {
				t.Fatalf("read failed: %v", err)
			}
			entry := obs.DefaultFlight.Find(seed)
			if entry == nil {
				t.Fatalf("read with injected %s faults not in the flight ring", tc.kind)
			}
			if reading.FlightSeq != entry.Seq {
				t.Errorf("Reading.FlightSeq = %d, ring entry seq = %d", reading.FlightSeq, entry.Seq)
			}
			if entry.Why != obs.FlightWhyFault {
				t.Errorf("why = %q, want %q", entry.Why, obs.FlightWhyFault)
			}
			// The entry's fault kinds must reproduce the injector's schedule.
			inj, err := fault.New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			poses := reading.Stats.Frames / 2
			kinds := inj.Kinds(poses)
			if kinds.Total() == 0 {
				t.Fatalf("schedule injected nothing over %d poses; raise the rate", poses)
			}
			wantKinds := kinds.Labels()
			if fmt.Sprint(entry.FaultKinds) != fmt.Sprint(wantKinds) {
				t.Errorf("entry fault kinds = %v, want %v", entry.FaultKinds, wantKinds)
			}
			// Degradation counters agree with both the Reading and, for pure
			// frame drops, the schedule itself.
			if entry.FramesDropped != reading.Stats.FramesDropped ||
				entry.SamplesScrubbed != reading.Stats.SamplesScrubbed {
				t.Errorf("entry counters (dropped %d, scrubbed %d) disagree with Reading (%d, %d)",
					entry.FramesDropped, entry.SamplesScrubbed,
					reading.Stats.FramesDropped, reading.Stats.SamplesScrubbed)
			}
			if tc.kind == "drop" && entry.FramesDropped != kinds.Drop {
				t.Errorf("entry dropped %d frames, schedule drops %d", entry.FramesDropped, kinds.Drop)
			}
			if entry.Seed != seed || entry.Workers < 1 || entry.WallMs <= 0 {
				t.Errorf("entry identity incomplete: %+v", entry)
			}
			if entry.ConfigFP == "" {
				t.Error("recorded entry has no config fingerprint")
			}
			if entry.Spans == nil || entry.Spans.Name != "read" {
				t.Errorf("recorded entry has no read span tree: %+v", entry.Spans)
			}
		})
	}
}

// TestChaosFlightRecordsBudgetFailure: a read that fails past the loss
// budget must land in the ring as an error entry carrying the error string.
func TestChaosFlightRecordsBudgetFailure(t *testing.T) {
	tag, err := NewTag("1011")
	if err != nil {
		t.Fatal(err)
	}
	const seed = 91990
	reading, err := NewReader().Read(tag, ReadOptions{
		Seed:  seed,
		Fault: &FaultOptions{Seed: 7, FrameDropRate: 0.9},
	})
	if err == nil {
		t.Fatal("read succeeded with 90% frame loss")
	}
	if reading == nil || reading.FlightSeq < 0 {
		t.Fatalf("failed read not offered to the flight recorder: %+v", reading)
	}
	entry := obs.DefaultFlight.Find(seed)
	if entry == nil {
		t.Fatal("failed read not in the flight ring")
	}
	if entry.Why != obs.FlightWhyError {
		t.Errorf("why = %q, want %q", entry.Why, obs.FlightWhyError)
	}
	if entry.Outcome != "partial" {
		t.Errorf("outcome = %q, want partial", entry.Outcome)
	}
	if entry.Err == "" || !strings.Contains(entry.Err, "frames lost") {
		t.Errorf("entry error %q does not carry the frame-loss cause", entry.Err)
	}
}

// TestChaosRosdBatchFaultIsolation extends the graceful-degradation contract
// to the read service: inside one batched /v1/read, a request whose injected
// faults exceed the loss budget fails alone, with a typed JSON error, while
// every other request in the batch — including a moderately-faulted one —
// completes normally. One tenant's chaos never fails the batch.
func TestChaosRosdBatchFaultIsolation(t *testing.T) {
	srv := rosd.New(rosd.Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	batch := rosd.BatchRequest{Reads: []rosd.ReadRequest{
		{Tenant: "clean", Bits: "1111", FrameBudget: 96, Workers: 1, Seed: 1},
		{Tenant: "doomed", Bits: "1111", FrameBudget: 96, Workers: 1, Seed: 2,
			Fault: &rosd.FaultRequest{Seed: 7, DropRate: 0.9}},
		{Tenant: "panicky", Bits: "1111", FrameBudget: 96, Workers: 1, Seed: 3,
			Fault: &rosd.FaultRequest{Seed: 7, PanicRate: 1.0}},
		{Tenant: "degraded", Bits: "1111", FrameBudget: 96, Workers: 1, Seed: 4,
			Fault: &rosd.FaultRequest{Seed: 7, DropRate: 0.05, CorruptRate: 0.05}},
	}}
	body, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/read", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("faulted batch answered %d, want 200 with per-request errors", resp.StatusCode)
	}
	var out rosd.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 4 {
		t.Fatalf("%d results for 4 reads", len(out.Results))
	}

	if r := out.Results[0]; r.Error != nil || !r.Detected || r.Bits != "1111" {
		t.Errorf("clean read = %+v, want decoded 1111 without error", r)
	}
	if r := out.Results[1]; r.Error == nil || r.Error.Kind != "frame_corrupt" {
		t.Errorf("90%%-drop read = %+v, want typed frame_corrupt error", r)
	} else if !r.Partial {
		t.Error("budget-failed read not marked partial")
	}
	if r := out.Results[2]; r.Error == nil || r.Error.Kind != "frame_corrupt" {
		t.Errorf("all-panic read = %+v, want typed frame_corrupt error", r)
	}
	if r := out.Results[3]; r.Error != nil || !r.Detected || r.FramesDropped == 0 {
		t.Errorf("moderately-faulted read = %+v, want degraded success", r)
	}
}

// TestChaosRosdFaultDeterminism: the service path adds no randomness — the
// same faulted request answers identically on repeat (engine-warm) batches.
func TestChaosRosdFaultDeterminism(t *testing.T) {
	srv := rosd.New(rosd.Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := rosd.BatchRequest{Reads: []rosd.ReadRequest{
		{Bits: "1111", FrameBudget: 96, Workers: 1, Seed: 11,
			Fault: &rosd.FaultRequest{Seed: 5, DropRate: 0.1, CorruptRate: 0.1}},
	}}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var prev *rosd.ReadResult
	for i := 0; i < 3; i++ {
		resp, err := ts.Client().Post(ts.URL+"/v1/read", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var out rosd.BatchResponse
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		r := out.Results[0]
		if r.Error != nil {
			t.Fatalf("batch %d errored: %+v", i, r.Error)
		}
		if prev != nil {
			if r.Bits != prev.Bits || r.SNRdB != prev.SNRdB ||
				r.FramesDropped != prev.FramesDropped || r.Samples != prev.Samples {
				t.Fatalf("batch %d diverged from batch 0: %+v vs %+v", i, r, *prev)
			}
		} else {
			prev = &r
		}
	}
	if prev.FramesDropped == 0 {
		t.Fatal("fault injection never engaged through the service path")
	}
}
