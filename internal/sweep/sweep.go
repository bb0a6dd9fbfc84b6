// Package sweep runs independent simulation points concurrently: the
// evaluation figures are parameter sweeps over drive-by runs that share
// nothing, so a small worker pool cuts the wall-clock of cmd/rosbench and
// the benchmark suite by the core count. The same pool drives the per-frame
// radar synthesis loop of package detect, whose determinism rests on the
// per-point seed streams of SubSeed.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"ros/internal/obs"
	"ros/internal/roserr"
)

// Pool metrics: points evaluated, points that failed, and recovered worker
// panics, on the Default registry (incremented per batch, not per point).
var (
	mPoints = obs.Default.Counter("ros_sweep_points_total",
		"work items evaluated on the sweep pool")
	mPointErrors = obs.Default.Counter("ros_sweep_point_errors_total",
		"work items that returned an error or panicked")
	mPanics = obs.Default.Counter("ros_sweep_panics_total",
		"worker panics recovered on the sweep pool")
	mCancelled = obs.Default.Counter("ros_sweep_cancelled_total",
		"sweep batches cut short by context cancellation")
	mBatches = obs.Default.CounterVec("ros_sweep_batches_total",
		"sweep batches run, by outcome", "outcome")
)

// yieldInterval bounds how long a worker runs points without yielding its
// P, so timers and goroutines waiting on other Ps' run queues (a cancel
// issued from a sleeping goroutine, say) are not held up behind a batch of
// points that never block. Yielding after every point instead costs most
// of what claiming points without a channel saves.
const yieldInterval = 500 * time.Microsecond

// PanicError is a recovered worker panic, tagged with the point index and
// carrying the stack trace captured at recovery time. It matches both
// roserr.ErrWorkerPanic and — when the panic value was itself an error —
// that underlying error via errors.Is/As.
type PanicError struct {
	// Index is the work-item index whose fn panicked.
	Index int
	// Value is the recovered panic value.
	Value any
	// Stack is the worker goroutine's stack at recovery.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sweep: point %d panicked: %v", e.Index, e.Value)
}

// Unwrap exposes roserr.ErrWorkerPanic plus, when the panic value was an
// error, the value itself (so an injected typed panic stays matchable).
func (e *PanicError) Unwrap() []error {
	if err, ok := e.Value.(error); ok {
		return []error{roserr.ErrWorkerPanic, err}
	}
	return []error{roserr.ErrWorkerPanic}
}

// PointError tags a failed point with its index, so callers that tolerate
// partial batches (the degradation path of package detect) can walk the
// joined error and map failures back to work items.
type PointError struct {
	// Index is the failed work-item index.
	Index int
	// Err is the point's error (a *PanicError for recovered panics).
	Err error
}

func (e *PointError) Error() string { return fmt.Sprintf("point %d: %v", e.Index, e.Err) }

// Unwrap returns the underlying point error.
func (e *PointError) Unwrap() error { return e.Err }

// PointErrors walks an error returned by RunCtx and collects every
// *PointError in it (nil and non-sweep errors yield nil).
func PointErrors(err error) []*PointError {
	var out []*PointError
	var walk func(error)
	walk = func(err error) {
		if err == nil {
			return
		}
		if pe, ok := err.(*PointError); ok {
			out = append(out, pe)
			return
		}
		switch u := err.(type) {
		case interface{ Unwrap() []error }:
			for _, e := range u.Unwrap() {
				walk(e)
			}
		case interface{ Unwrap() error }:
			walk(u.Unwrap())
		}
	}
	walk(err)
	return out
}

// RunCtx evaluates fn for every index 0..n-1 on a worker pool, returning the
// results in order plus a done mask marking which points completed. Each of
// the `workers` goroutines claims the next index from one shared counter
// until none is left; a worker count of 0 uses GOMAXPROCS.
//
// Cancellation is cooperative: when ctx is cancelled, or its deadline has
// passed on the clock each worker reads before every point, no worker starts
// another point, in-flight points finish (fn may also watch ctx to return
// early), and RunCtx returns the completed prefix with an error wrapping
// both roserr.ErrReadCancelled and the context cause — so
// errors.Is(err, context.DeadlineExceeded) identifies an expired deadline.
// Completed points are exactly as they would have been in a full run, so
// deterministic workloads stay deterministic under partial completion.
//
// A point error cancels nothing: every failed point is logged with its index
// and the failures are returned joined as *PointError values (errors.Is
// still matches each cause, PointErrors recovers the indices). A panic in fn
// is recovered into a *PanicError carrying the stack trace, so one bad point
// cannot take down the whole process from an anonymous goroutine.
func RunCtx[T any](ctx context.Context, n, workers int, fn func(ctx context.Context, i int) (T, error)) (results []T, done []bool, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if n < 0 {
		return nil, nil, fmt.Errorf("sweep: %w: negative point count %d", roserr.ErrConfig, n)
	}
	if fn == nil {
		return nil, nil, fmt.Errorf("sweep: %w: nil point function", roserr.ErrConfig)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	out := make([]T, n)
	errs := make([]error, n)
	done = make([]bool, n)
	if n == 0 {
		return out, done, nil
	}

	point := func(i int) (result T, err error) {
		defer func() {
			if r := recover(); r != nil {
				mPanics.Inc()
				err = &PanicError{Index: i, Value: r, Stack: debug.Stack()}
				obs.Logger().Error("sweep: worker panic recovered",
					"point", i, "of", n, "panic", r,
					"stack", string(err.(*PanicError).Stack))
			}
		}()
		return fn(ctx, i)
	}

	deadline, hasDeadline := ctx.Deadline()
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			yielded := time.Now()
			for {
				// A point claimed after cancellation is skipped, not run: the
				// caller sees it as not-done rather than paying for it.
				i := int(next.Add(1) - 1)
				if i >= n || ctx.Err() != nil {
					return
				}
				// A point that never yields can keep the deadline's timer
				// from firing, so the clock is read here; waiting on Done
				// lets the timer set the cause the caller reports.
				now := time.Now()
				if hasDeadline && !now.Before(deadline) {
					<-ctx.Done()
					return
				}
				if now.Sub(yielded) >= yieldInterval {
					runtime.Gosched()
					yielded = time.Now()
				}
				out[i], errs[i] = point(i)
				done[i] = true
			}
		}()
	}
	wg.Wait()

	completed := 0
	for _, d := range done {
		if d {
			completed++
		}
	}
	mPoints.Add(int64(completed))

	var failed []error
	for i, perr := range errs {
		if perr != nil {
			obs.Logger().Error("sweep: point failed", "point", i, "of", n, "err", perr)
			failed = append(failed, &PointError{Index: i, Err: perr})
		}
	}
	if len(failed) > 0 {
		mPointErrors.Add(int64(len(failed)))
	}
	if cause := context.Cause(ctx); cause != nil {
		mCancelled.Inc()
		cancelErr := fmt.Errorf("sweep: cancelled after %d/%d points: %w: %w",
			completed, n, roserr.ErrReadCancelled, cause)
		failed = append(failed, cancelErr)
		mBatches.With("cancelled").Inc()
	} else if len(failed) > 0 {
		mBatches.With("errors").Inc()
	} else {
		mBatches.With("ok").Inc()
	}
	if len(failed) > 0 {
		return out, done, errors.Join(failed...)
	}
	return out, done, nil
}

// MapCtx evaluates fn over the inputs concurrently, preserving order, with
// cooperative cancellation; see RunCtx.
func MapCtx[In, Out any](ctx context.Context, inputs []In, workers int, fn func(ctx context.Context, in In) (Out, error)) ([]Out, []bool, error) {
	return RunCtx(ctx, len(inputs), workers, func(ctx context.Context, i int) (Out, error) {
		return fn(ctx, inputs[i])
	})
}

// SubSeed derives a deterministic per-point RNG seed from a base seed and a
// point index by mixing both through a SplitMix64 finalizer. Work items that
// each seed their own rand.Rand with SubSeed(seed, i) produce results that
// depend only on (seed, i) — never on worker count or scheduling — which is
// what makes the parallel frame loop of package detect byte-reproducible at
// any parallelism.
func SubSeed(seed int64, index int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*(uint64(index)+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// splitmix is a SplitMix64 rand.Source64. The stdlib's default source seeds
// a 607-word feedback table on every NewSource — measurably expensive when
// every frame of a pass opens its own stream — while SplitMix64 seeds in
// one word and passes the usual statistical batteries, which is plenty for
// thermal-noise draws.
type splitmix struct{ state uint64 }

func (s *splitmix) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmix) Int63() int64    { return int64(s.Uint64() >> 1) }
func (s *splitmix) Seed(seed int64) { s.state = uint64(seed) }

// NewRand returns the deterministic RNG stream for one work item: a
// rand.Rand over a SplitMix64 source seeded with SubSeed(seed, index).
func NewRand(seed int64, index int) *rand.Rand {
	return rand.New(&splitmix{state: uint64(SubSeed(seed, index))})
}
