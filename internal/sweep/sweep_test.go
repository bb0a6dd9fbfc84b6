package sweep

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ros/internal/roserr"
)

func TestRunPreservesOrder(t *testing.T) {
	out, _, err := RunCtx(context.Background(), 100, 8, func(_ context.Context, i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestRunActuallyConcurrent(t *testing.T) {
	// Each task waits (bounded) until it observes a second in-flight task,
	// which can only happen if the pool really runs them concurrently.
	var peak, cur atomic.Int32
	_, _, err := RunCtx(context.Background(), 16, 8, func(_ context.Context, i int) (int, error) {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		for spin := 0; spin < 1_000_000 && cur.Load() < 2 && peak.Load() < 2; spin++ {
			runtime.Gosched()
		}
		cur.Add(-1)
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak.Load() < 2 {
		t.Errorf("peak concurrency = %d, want >= 2", peak.Load())
	}
}

func TestRunReportsError(t *testing.T) {
	wantErr := errors.New("boom")
	out, _, err := RunCtx(context.Background(), 10, 4, func(_ context.Context, i int) (int, error) {
		if i == 7 {
			return 0, wantErr
		}
		return i, nil
	})
	if !errors.Is(err, wantErr) {
		t.Errorf("err = %v", err)
	}
	// Other points still computed.
	if out[3] != 3 {
		t.Errorf("out[3] = %d", out[3])
	}
}

func TestRunEdgeCases(t *testing.T) {
	if _, _, err := RunCtx(context.Background(), -1, 2, func(context.Context, int) (int, error) { return 0, nil }); err == nil {
		t.Error("negative n accepted")
	}
	if _, _, err := RunCtx[int](context.Background(), 3, 2, nil); err == nil {
		t.Error("nil fn accepted")
	}
	out, _, err := RunCtx(context.Background(), 0, 2, func(context.Context, int) (int, error) { return 0, nil })
	if err != nil || len(out) != 0 {
		t.Errorf("empty run: %v, %v", out, err)
	}
	// Default worker count.
	out, _, err = RunCtx(context.Background(), 5, 0, func(_ context.Context, i int) (int, error) { return i, nil })
	if err != nil || len(out) != 5 {
		t.Errorf("default workers: %v, %v", out, err)
	}
}

func TestMap(t *testing.T) {
	in := []string{"a", "bb", "ccc"}
	out, _, err := MapCtx(context.Background(), in, 2, func(_ context.Context, s string) (int, error) { return len(s), nil })
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(out) != "[1 2 3]" {
		t.Errorf("out = %v", out)
	}
}

func TestRunRecoversPanic(t *testing.T) {
	out, _, err := RunCtx(context.Background(), 10, 4, func(_ context.Context, i int) (int, error) {
		if i == 5 {
			panic("kaboom")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("panic in point 5 not reported")
	}
	if !strings.Contains(err.Error(), "point 5") || !strings.Contains(err.Error(), "kaboom") {
		t.Errorf("err = %v, want point index and panic value", err)
	}
	// The panicking worker keeps draining: the other points still ran.
	if out[9] != 9 {
		t.Errorf("out[9] = %d, want 9 (pool died with the panic)", out[9])
	}
}

func TestSubSeedStreamsAreStable(t *testing.T) {
	// Distinct indices give distinct seeds, and the derivation is pure.
	seen := map[int64]bool{}
	for i := 0; i < 1000; i++ {
		s := SubSeed(42, i)
		if seen[s] {
			t.Fatalf("SubSeed(42, %d) collides", i)
		}
		seen[s] = true
		if s != SubSeed(42, i) {
			t.Fatalf("SubSeed(42, %d) not deterministic", i)
		}
	}
	if SubSeed(1, 0) == SubSeed(2, 0) {
		t.Error("different base seeds map to the same stream")
	}
}

func TestNewRandReproduces(t *testing.T) {
	a, b := NewRand(7, 3), NewRand(7, 3)
	for i := 0; i < 100; i++ {
		if a.NormFloat64() != b.NormFloat64() {
			t.Fatal("equal (seed, index) streams diverge")
		}
	}
	if NewRand(7, 3).NormFloat64() == NewRand(7, 4).NormFloat64() {
		t.Error("adjacent frame streams start identically")
	}
}

func TestRunCtxCancellationPartial(t *testing.T) {
	// Cancel after the first few points: RunCtx must return promptly with
	// the completed prefix marked done and a typed cancellation error.
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	out, done, err := RunCtx(ctx, 1000, 2, func(ctx context.Context, i int) (int, error) {
		if ran.Add(1) == 10 {
			cancel()
		}
		return i * 2, nil
	})
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if !errors.Is(err, roserr.ErrReadCancelled) {
		t.Errorf("err = %v, want ErrReadCancelled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled in chain", err)
	}
	completed := 0
	for i, d := range done {
		if d {
			completed++
			if out[i] != i*2 {
				t.Errorf("done point %d holds %d, want %d", i, out[i], i*2)
			}
		}
	}
	if completed == 0 || completed >= 1000 {
		t.Errorf("completed = %d, want a strict prefix subset", completed)
	}
}

func TestRunCtxDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err := RunCtx(ctx, 100000, 4, func(ctx context.Context, i int) (int, error) {
		time.Sleep(50 * time.Microsecond)
		return i, nil
	})
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Errorf("cancelled run took %v", elapsed)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want DeadlineExceeded", err)
	}
}

func TestPanicErrorCarriesStack(t *testing.T) {
	_, _, err := RunCtx(context.Background(), 3, 2, func(ctx context.Context, i int) (int, error) {
		if i == 1 {
			panic("with stack")
		}
		return i, nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a *PanicError", err)
	}
	if pe.Index != 1 || pe.Value != "with stack" {
		t.Errorf("PanicError = %+v", pe)
	}
	if !strings.Contains(string(pe.Stack), "sweep_test.go") {
		t.Errorf("stack does not point at the panicking fn:\n%s", pe.Stack)
	}
	if !errors.Is(err, roserr.ErrWorkerPanic) {
		t.Error("panic error does not match roserr.ErrWorkerPanic")
	}
}

func TestPanicErrorUnwrapsErrorValue(t *testing.T) {
	sentinel := errors.New("typed panic")
	_, _, err := RunCtx(context.Background(), 1, 1, func(ctx context.Context, i int) (int, error) {
		panic(sentinel)
	})
	if !errors.Is(err, sentinel) {
		t.Errorf("err = %v, want wrapped sentinel", err)
	}
}

func TestPointErrors(t *testing.T) {
	boom := errors.New("boom")
	_, _, err := RunCtx(context.Background(), 10, 3, func(ctx context.Context, i int) (int, error) {
		switch i {
		case 2:
			return 0, boom
		case 7:
			panic("pow")
		}
		return i, nil
	})
	pes := PointErrors(err)
	if len(pes) != 2 {
		t.Fatalf("PointErrors = %v, want 2 entries", pes)
	}
	idx := map[int]bool{}
	for _, pe := range pes {
		idx[pe.Index] = true
	}
	if !idx[2] || !idx[7] {
		t.Errorf("failed indices = %v, want {2, 7}", idx)
	}
	if PointErrors(nil) != nil {
		t.Error("PointErrors(nil) != nil")
	}
}

// spinPoint is the cost of one point in the promptness tests on an idle
// core: a busy loop that never blocks, so nothing in the point function
// gives the scheduler a chance to fire timers or run other goroutines on the
// worker's P. The loop counts work, not wall time, so a loaded host
// stretches the point time and the bounds measured in it.
const spinPoint = 50 * time.Microsecond

var spinSink atomic.Uint64

func spinLoop(n int) {
	x := uint64(1)
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	spinSink.Add(x)
}

// spinIters is the loop count of one spinPoint, calibrated once per process
// from the fastest of a few probes.
var spinIters = sync.OnceValue(func() int {
	const probe = 1 << 16
	best := time.Duration(math.MaxInt64)
	for k := 0; k < 5; k++ {
		start := time.Now()
		spinLoop(probe)
		best = min(best, time.Since(start))
	}
	return int(probe * float64(spinPoint) / float64(best))
})

func spin() { spinLoop(spinIters()) }

// spinPointTime is the wall time per point of a full batch of spin points
// at the given worker count, measured in this process so that host load
// and the race detector stretch the promptness bounds along with the pool.
func spinPointTime(t *testing.T, workers int) time.Duration {
	const n = 200
	start := time.Now()
	if _, _, err := RunCtx(context.Background(), n, workers, func(context.Context, int) (int, error) {
		spin()
		return 0, nil
	}); err != nil {
		t.Fatal(err)
	}
	return time.Since(start) / n
}

// cutter makes the context of one promptness batch; its cancel func only
// releases resources.
type cutter func() (context.Context, context.CancelFunc)

func deadlineIn(d time.Duration) cutter {
	return func() (context.Context, context.CancelFunc) {
		return context.WithTimeout(context.Background(), d)
	}
}

func cancelIn(d time.Duration) cutter {
	return func() (context.Context, context.CancelFunc) {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(d)
			cancel()
		}()
		return ctx, cancel
	}
}

// lateBy runs a batch of spin points under a context that cut ends after d
// and returns how long past d the batch returned, plus the share of a core
// each worker got: the spin work of the points done over the batch's wall
// time × the workers that can run at once. It checks the error chain against
// want and that every done point holds its result. With yield set, every
// point also yields after its spin: the control, whose lateness is the
// host's own timer and wake-up latency, which no pool can beat.
func lateBy(t *testing.T, cut cutter, d time.Duration, workers int, yield bool, want error) (late time.Duration, share float64) {
	ctx, cancel := cut()
	defer cancel()
	start := time.Now()
	out, done, err := RunCtx(ctx, 4000, workers, func(_ context.Context, i int) (int, error) {
		spin()
		if yield {
			runtime.Gosched()
		}
		return i + 1, nil
	})
	elapsed := time.Since(start)
	if !errors.Is(err, roserr.ErrReadCancelled) || !errors.Is(err, want) {
		t.Fatalf("err = %v, want ErrReadCancelled and %v", err, want)
	}
	completed := 0
	for i, ok := range done {
		if ok {
			completed++
			if out[i] != i+1 {
				t.Fatalf("done point %d holds %d, want %d", i, out[i], i+1)
			}
		}
	}
	cores := min(workers, runtime.GOMAXPROCS(0))
	return elapsed - d, float64(completed) * float64(spinPoint) / (float64(elapsed) * float64(cores))
}

// promptly measures a batch of spin points cut after d against a control
// batch run just before it, and passes when the batch returns within the
// control's lateness plus allowPoints point-times. A descheduled attempt is
// retried up to five times, while a pool that stops noticing the context
// misses on every attempt. An attempt on a host too busy to judge the pool
// is not counted: one whose workers got under minShare of a core each (a
// spinning worker then loses whole OS time slices), or whose control alone
// is later than the bound allows. With no attempt counted, the test skips.
func promptly(t *testing.T, cut cutter, d time.Duration, workers, allowPoints int, want error) {
	const minShare = 0.8
	var misses []string
	judged := 0
	for a := 0; a < 5; a++ {
		pt := spinPointTime(t, workers)
		control, _ := lateBy(t, cut, d, workers, true, want)
		over, share := lateBy(t, cut, d, workers, false, want)
		allow := time.Duration(allowPoints) * pt
		if share < minShare || control > allow {
			continue
		}
		judged++
		if over <= control+allow {
			return
		}
		misses = append(misses, fmt.Sprintf("%v past the cut (%.1f point-times of %v; control %v, core share %.2f, %d allowed)",
			over, float64(over)/float64(pt), pt, control, share, allowPoints))
	}
	if judged == 0 {
		t.Skip("host too busy in every attempt to bound promptness")
	}
	t.Fatalf("every judged attempt missed: %s", strings.Join(misses, "; "))
}

// TestRunCtxDeadlinePromptWithoutYield: points that never yield must not
// hold a deadline off. Workers read the clock before each point, so a 5 ms
// deadline stops the batch within one point per worker plus the return,
// bounded in point-times like TestChaosDeadlinePromptness bounds frames.
func TestRunCtxDeadlinePromptWithoutYield(t *testing.T) {
	const (
		deadline = 5 * time.Millisecond
		// returnPoints covers waking on the expired context and returning.
		returnPoints = 10
	)
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			promptly(t, deadlineIn(deadline), deadline, workers, workers+returnPoints, context.DeadlineExceeded)
		})
	}
}

// TestRunCtxCancelPromptWithoutYield: a cancel issued from a goroutine that
// sleeps 3 ms needs a P to fire its timer and run it. Workers yield after
// about half a millisecond of points, so the cancel lands within about a
// millisecond plus a few points even when every P is spinning.
func TestRunCtxCancelPromptWithoutYield(t *testing.T) {
	const (
		sleep = 3 * time.Millisecond
		// slackPoints is about a millisecond of points on an idle core:
		// the yield interval plus the point that overruns it.
		slackPoints = 20
		// returnPoints covers the in-flight points and the return.
		returnPoints = 4
	)
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			promptly(t, cancelIn(sleep), sleep, workers, slackPoints+workers+returnPoints, context.Canceled)
		})
	}
}
