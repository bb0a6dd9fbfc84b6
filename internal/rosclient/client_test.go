package rosclient

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"ros/internal/roserr"
)

// TestBackoffScheduleGolden pins the seeded retry schedule byte-for-byte:
// the jittered delays are a pure function of the seed, so a drift here means
// the backoff math (or the SplitMix64 stream) changed.
func TestBackoffScheduleGolden(t *testing.T) {
	c := New(Config{BaseURL: "http://unused", Seed: 42,
		BaseBackoff: 10 * time.Millisecond, MaxBackoff: 2 * time.Second})
	want := []time.Duration{
		8707824,
		13432919,
		27739485,
		70215554,
		143675520,
		259143358,
	}
	for i, w := range want {
		got := c.jitteredBackoff(i)
		if got != w {
			t.Errorf("delay[%d] = %v, want %v", i, got, w)
		}
		env := backoffDelay(10*time.Millisecond, 2*time.Second, i)
		if got < env/2 || got >= env {
			t.Errorf("delay[%d] = %v outside jitter envelope [%v, %v)", i, got, env/2, env)
		}
	}
	// Same seed, same schedule.
	c2 := New(Config{BaseURL: "http://unused", Seed: 42,
		BaseBackoff: 10 * time.Millisecond, MaxBackoff: 2 * time.Second})
	for i := range want {
		if got := c2.jitteredBackoff(i); got != want[i] {
			t.Fatalf("replay delay[%d] = %v, want %v", i, got, want[i])
		}
	}
}

func TestBackoffDelayEnvelope(t *testing.T) {
	base, max := 10*time.Millisecond, 2*time.Second
	want := []time.Duration{
		10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond,
		80 * time.Millisecond, 160 * time.Millisecond, 320 * time.Millisecond,
		640 * time.Millisecond, 1280 * time.Millisecond, 2 * time.Second,
		2 * time.Second,
	}
	for i, w := range want {
		if got := backoffDelay(base, max, i); got != w {
			t.Errorf("backoffDelay(%d) = %v, want %v", i, got, w)
		}
	}
}

func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		name, value string
		want        time.Duration
	}{
		{"absent", "", 0},
		{"seconds", "3", 3 * time.Second},
		{"zero-seconds", "0", 0},
		{"negative-seconds", "-5", 0},
		{"http-date", now.Add(5 * time.Second).Format(http.TimeFormat), 5 * time.Second},
		{"http-date-past", now.Add(-time.Minute).Format(http.TimeFormat), 0},
		{"garbage", "soon", 0},
	}
	for _, tc := range cases {
		h := http.Header{}
		if tc.value != "" {
			h.Set("Retry-After", tc.value)
		}
		if got := parseRetryAfter(h, now); got != tc.want {
			t.Errorf("%s: parseRetryAfter(%q) = %v, want %v", tc.name, tc.value, got, tc.want)
		}
	}
}

func TestBreakerTransitions(t *testing.T) {
	now := time.Unix(1000, 0)
	b := &breaker{threshold: 3, cooldown: time.Second}

	// Closed counts consecutive failures; the threshold'th opens it.
	if b.failure(now) || b.failure(now) {
		t.Fatal("breaker opened before threshold")
	}
	if !b.failure(now) {
		t.Fatal("threshold'th failure did not open the breaker")
	}
	if err := b.allow(now.Add(500 * time.Millisecond)); !errors.Is(err, roserr.ErrCircuitOpen) {
		t.Fatalf("open breaker allowed a call inside cooldown: %v", err)
	}

	// Cooldown elapsed: half-open, exactly one probe at a time.
	probeAt := now.Add(time.Second)
	if err := b.allow(probeAt); err != nil {
		t.Fatalf("half-open refused the probe: %v", err)
	}
	if err := b.allow(probeAt); !errors.Is(err, roserr.ErrCircuitOpen) {
		t.Fatalf("half-open let a second call race the probe: %v", err)
	}

	// Failed probe re-opens for another full cooldown.
	if !b.failure(probeAt) {
		t.Fatal("failed probe did not re-open the breaker")
	}
	if err := b.allow(probeAt.Add(999 * time.Millisecond)); !errors.Is(err, roserr.ErrCircuitOpen) {
		t.Fatalf("re-opened breaker allowed a call inside cooldown: %v", err)
	}

	// Successful probe closes; interleaved success resets the failure count.
	if err := b.allow(probeAt.Add(time.Second)); err != nil {
		t.Fatalf("second probe refused: %v", err)
	}
	b.success()
	if b.state != breakerClosed {
		t.Fatalf("state after successful probe = %v, want closed", b.state)
	}
	b.failure(now)
	b.failure(now)
	b.success()
	if b.failure(now) {
		t.Fatal("success did not reset the consecutive-failure count")
	}
}

// TestRetryAfterHonored checks that a server 429 with Retry-After stretches
// the wait beyond the backoff schedule (and is capped by MaxRetryAfter).
func TestRetryAfterHonored(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			w.Header().Set("Retry-After", "2")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":{"kind":"overload","message":"busy"}}`))
			return
		}
		w.Write([]byte(`{}`))
	}))
	defer ts.Close()

	c := New(Config{BaseURL: ts.URL, Seed: 7, MaxRetries: 3,
		BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond,
		MaxRetryAfter: 90 * time.Millisecond})
	var slept []time.Duration
	c.sleep = func(ctx context.Context, d time.Duration) error {
		slept = append(slept, d)
		return nil
	}
	var out struct{}
	retries, throttles := mRetries.Value(), mThrottledResp.Value()
	if err := c.Do(context.Background(), "/v1/read", map[string]any{}, &out); err != nil {
		t.Fatalf("Do: %v", err)
	}
	if len(slept) != 1 {
		t.Fatalf("slept %d times, want 1 (delays: %v)", len(slept), slept)
	}
	// Retry-After said 2s; MaxRetryAfter caps it at 90ms, still far above
	// the <=4ms backoff envelope.
	if slept[0] != 90*time.Millisecond {
		t.Fatalf("waited %v, want the 90ms MaxRetryAfter cap", slept[0])
	}
	if r, th := mRetries.Value()-retries, mThrottledResp.Value()-throttles; r != 1 || th != 1 {
		t.Fatalf("%d retries / %d throttles, want 1 / 1", r, th)
	}
}

// TestTerminal4xx checks the roserr taxonomy survives the HTTP round trip and
// is not retried.
func TestTerminal4xx(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		w.Write([]byte(`{"error":{"kind":"config","message":"bad grid"}}`))
	}))
	defer ts.Close()

	c := New(Config{BaseURL: ts.URL, MaxRetries: 5})
	c.sleep = func(ctx context.Context, d time.Duration) error { return nil }
	err := c.Do(context.Background(), "/v1/read", map[string]any{}, nil)
	if !errors.Is(err, roserr.ErrConfig) {
		t.Fatalf("err = %v, want roserr.ErrConfig", err)
	}
	if n := hits.Load(); n != 1 {
		t.Fatalf("server hit %d times, want 1 (terminal errors must not retry)", n)
	}
}

// TestBreakerFastFail drives the breaker open through a real client and
// checks calls then fail locally, without network traffic, until cooldown.
func TestBreakerFastFail(t *testing.T) {
	var hits atomic.Int64
	fail := atomic.Bool{}
	fail.Store(true)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		if fail.Load() {
			w.WriteHeader(http.StatusInternalServerError)
			w.Write([]byte(`{"error":{"kind":"internal","message":"boom"}}`))
			return
		}
		w.Write([]byte(`{}`))
	}))
	defer ts.Close()

	c := New(Config{BaseURL: ts.URL, Seed: 3, MaxRetries: 2,
		BaseBackoff: time.Microsecond, MaxBackoff: time.Microsecond,
		BreakerThreshold: 3, BreakerCooldown: time.Hour})
	c.sleep = func(ctx context.Context, d time.Duration) error { return nil }
	now := time.Unix(5000, 0)
	c.now = func() time.Time { return now }

	// 3 attempts (1 + 2 retries) all 5xx: breaker opens at the threshold.
	opens := mBreakerOpens.Value()
	if err := c.Do(context.Background(), "/v1/read", map[string]any{}, nil); !errors.Is(err, ErrTransport) {
		t.Fatalf("err = %v, want ErrTransport for a 5xx", err)
	}
	if n := hits.Load(); n != 3 {
		t.Fatalf("server hit %d times, want 3", n)
	}
	if got := mBreakerOpens.Value() - opens; got != 1 {
		t.Fatalf("%d breaker opens, want 1", got)
	}

	// Open breaker: the next call fails fast, zero network traffic.
	err := c.Do(context.Background(), "/v1/read", map[string]any{}, nil)
	if !errors.Is(err, roserr.ErrCircuitOpen) {
		t.Fatalf("err = %v, want roserr.ErrCircuitOpen", err)
	}
	if n := hits.Load(); n != 3 {
		t.Fatalf("open breaker still sent traffic (hits=%d)", n)
	}

	// Cooldown elapses, server healed: the single half-open probe closes it.
	fail.Store(false)
	now = now.Add(2 * time.Hour)
	if err := c.Do(context.Background(), "/v1/read", map[string]any{}, nil); err != nil {
		t.Fatalf("probe after cooldown: %v", err)
	}
	if err := c.Do(context.Background(), "/v1/read", map[string]any{}, nil); err != nil {
		t.Fatalf("call after breaker closed: %v", err)
	}
}
