// Package rosclient is the self-healing HTTP client of the read service:
// the retry/backoff/circuit-breaker layer every tool that talks to rosd
// should sit behind, instead of hand-rolling its own overload handling.
//
// Failure handling is layered. Transient refusals — 429 overload (tenant
// quota or queue depth) and 503 draining — are retried with seeded-jitter
// exponential backoff, honoring the server's Retry-After header in both its
// delay-seconds and HTTP-date forms. Hard failures — transport errors,
// unknown 5xx, malformed or oversized response bodies — also retry, but
// additionally count toward a per-endpoint circuit breaker: past the
// threshold of consecutive failures the breaker opens and calls fail fast
// with roserr.ErrCircuitOpen (no network traffic) until a cooldown elapses,
// then a single half-open probe decides between closing and re-opening.
// Typed 4xx errors (the roserr taxonomy rendered by the service) are
// terminal and surface as the matching sentinel, so errors.Is works across
// the HTTP boundary.
//
// Response bodies are read through a hard size limit, so a misbehaving
// server cannot balloon client memory. The retry schedule is a pure
// function of the configured seed (SplitMix64 jitter), pinned by test.
package rosclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"ros/internal/obs"
	"ros/internal/roserr"
)

// Client metrics. Package-level because the obs registry panics on duplicate
// registration and tests build many clients per process.
var (
	mAttempts = obs.Default.Counter("ros_rosclient_attempts_total",
		"HTTP attempts sent (including retries).")
	mRetries = obs.Default.Counter("ros_rosclient_retries_total",
		"Attempts that were retries of a failed call.")
	mThrottledResp = obs.Default.Counter("ros_rosclient_throttled_total",
		"Backpressure responses observed (429 overload, 503 draining).")
	mBreakerOpens = obs.Default.Counter("ros_rosclient_breaker_opens_total",
		"Circuit-breaker open transitions.")
	mFastFails = obs.Default.Counter("ros_rosclient_breaker_fastfail_total",
		"Calls refused locally by an open circuit breaker.")
)

// Client-side failure sentinels (server-side kinds live in roserr).
var (
	// ErrTransport marks a network-level failure: dial refused, connection
	// dropped mid-body, attempt timeout. Retryable; counts toward the
	// circuit breaker.
	ErrTransport = errors.New("rosclient: transport failure")
	// ErrBadResponse marks a response the client refused to trust: body
	// over MaxResponseBytes, or JSON that does not decode. Retryable;
	// counts toward the circuit breaker.
	ErrBadResponse = errors.New("rosclient: malformed response")
)

// Config parameterizes a Client. The zero value of every field keeps the
// default noted on it.
type Config struct {
	// BaseURL is the service root, e.g. "http://localhost:8080" (required).
	BaseURL string
	// HTTPClient overrides the transport (default &http.Client{}).
	HTTPClient *http.Client
	// MaxRetries bounds retries after the first attempt (default 8).
	MaxRetries int
	// BaseBackoff/MaxBackoff shape the exponential schedule: delay i is
	// min(MaxBackoff, BaseBackoff<<i) scaled into [0.5, 1.0) by seeded
	// jitter. Defaults 10ms / 2s.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// MaxRetryAfter caps how long a server Retry-After is honored
	// (default 5s) so a hostile header cannot park the client.
	MaxRetryAfter time.Duration
	// AttemptTimeout bounds each attempt (default 30s); a stalled read is
	// cut and counted as a transport failure while the caller's context
	// stays live for the retry.
	AttemptTimeout time.Duration
	// Seed drives the jitter stream; equal seeds give identical retry
	// schedules (default 1).
	Seed uint64
	// BreakerThreshold is the consecutive hard failures per endpoint that
	// open its circuit (default 5).
	BreakerThreshold int
	// BreakerCooldown is how long an open circuit fails fast before the
	// half-open probe (default 1s).
	BreakerCooldown time.Duration
	// MaxResponseBytes bounds response bodies (default 8 MiB); larger
	// bodies yield ErrBadResponse without buffering the excess.
	MaxResponseBytes int64
}

func (c Config) withDefaults() Config {
	if c.HTTPClient == nil {
		c.HTTPClient = &http.Client{}
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 8
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 10 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 2 * time.Second
	}
	if c.MaxRetryAfter <= 0 {
		c.MaxRetryAfter = 5 * time.Second
	}
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = 30 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = time.Second
	}
	if c.MaxResponseBytes <= 0 {
		c.MaxResponseBytes = 8 << 20
	}
	return c
}

// Client is a self-healing JSON-over-HTTP client. Safe for concurrent use.
type Client struct {
	cfg  Config
	http *http.Client

	mu       sync.Mutex
	rng      uint64
	breakers map[string]*breaker

	// Test seams: wall clock and context-aware sleep.
	now   func() time.Time
	sleep func(ctx context.Context, d time.Duration) error
}

// New builds a Client.
func New(cfg Config) *Client {
	cfg = cfg.withDefaults()
	return &Client{
		cfg:      cfg,
		http:     cfg.HTTPClient,
		rng:      cfg.Seed,
		breakers: make(map[string]*breaker),
		now:      time.Now,
		sleep:    sleepCtx,
	}
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Do POSTs in as JSON to path and decodes the 200 response into out (skipped
// when out is nil), retrying transient failures and failing fast behind an
// open breaker. The returned error wraps the matching roserr sentinel (or
// ErrTransport/ErrBadResponse), so callers branch with errors.Is.
func (c *Client) Do(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("rosclient: encode request: %w", err)
	}
	var lastErr error
	var retryAfter time.Duration
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			delay := c.jitteredBackoff(attempt - 1)
			if retryAfter > 0 {
				if retryAfter > c.cfg.MaxRetryAfter {
					retryAfter = c.cfg.MaxRetryAfter
				}
				if retryAfter > delay {
					delay = retryAfter
				}
			}
			mRetries.Inc()
			if err := c.sleep(ctx, delay); err != nil {
				return fmt.Errorf("rosclient: retry wait: %w: last error: %w", err, lastErr)
			}
		}
		payload, ra, err := c.attempt(ctx, path, body)
		if err == nil {
			if out == nil {
				return nil
			}
			if err := json.Unmarshal(payload, out); err != nil {
				// A 200 that does not decode is a malformed response;
				// classify it like one (it already escaped the breaker
				// accounting inside attempt, so count it here).
				lastErr = fmt.Errorf("%w: decoding 200 body: %v", ErrBadResponse, err)
				c.reportBreaker(path, lastErr)
				if attempt >= c.cfg.MaxRetries {
					return lastErr
				}
				retryAfter = 0
				continue
			}
			return nil
		}
		lastErr = err
		retryAfter = ra
		if !retryable(err) || attempt >= c.cfg.MaxRetries {
			return lastErr
		}
	}
}

// retryable classifies an attempt error: backpressure and hard failures
// retry, taxonomy 4xx and caller-context errors do not.
func retryable(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	return errors.Is(err, roserr.ErrOverload) ||
		errors.Is(err, roserr.ErrDraining) ||
		errors.Is(err, roserr.ErrCircuitOpen) ||
		errors.Is(err, ErrTransport) ||
		errors.Is(err, ErrBadResponse)
}

// jitteredBackoff returns the attempt'th delay of the seeded schedule.
func (c *Client) jitteredBackoff(attempt int) time.Duration {
	c.mu.Lock()
	c.rng = splitmix64(c.rng)
	u := c.rng
	c.mu.Unlock()
	d := backoffDelay(c.cfg.BaseBackoff, c.cfg.MaxBackoff, attempt)
	return time.Duration(float64(d) * jitter(u))
}

func (c *Client) breakerFor(path string) *breaker {
	c.mu.Lock()
	defer c.mu.Unlock()
	b, ok := c.breakers[path]
	if !ok {
		b = &breaker{threshold: c.cfg.BreakerThreshold, cooldown: c.cfg.BreakerCooldown}
		c.breakers[path] = b
	}
	return b
}

// breakerCounts reports whether an error is a hard failure the breaker
// tracks: transport and malformed-response errors, not backpressure (the
// server is alive and shedding deliberately) and not taxonomy 4xx (the
// request's own fault).
func breakerCounts(err error) bool {
	return errors.Is(err, ErrTransport) || errors.Is(err, ErrBadResponse)
}

// reportBreaker feeds one call outcome into the endpoint's breaker.
func (c *Client) reportBreaker(path string, err error) {
	b := c.breakerFor(path)
	c.mu.Lock()
	defer c.mu.Unlock()
	if err == nil {
		b.success()
		return
	}
	if !breakerCounts(err) {
		return
	}
	if b.failure(c.now()) {
		mBreakerOpens.Inc()
		obs.Logger().Warn("rosclient: circuit opened", "path", path, "err", err)
	}
}

// attempt performs one request behind the endpoint's circuit breaker.
func (c *Client) attempt(ctx context.Context, path string, body []byte) ([]byte, time.Duration, error) {
	b := c.breakerFor(path)
	c.mu.Lock()
	allowErr := b.allow(c.now())
	c.mu.Unlock()
	if allowErr != nil {
		mFastFails.Inc()
		return nil, 0, allowErr
	}
	payload, retryAfter, err := c.once(ctx, path, body)
	c.reportBreaker(path, err)
	return payload, retryAfter, err
}

// once sends one request and classifies the response.
func (c *Client) once(ctx context.Context, path string, body []byte) ([]byte, time.Duration, error) {
	mAttempts.Inc()
	actx := ctx
	if c.cfg.AttemptTimeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, c.cfg.AttemptTimeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(actx, http.MethodPost, c.cfg.BaseURL+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, fmt.Errorf("rosclient: build request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			// The caller's context died, not the attempt's; terminal.
			return nil, 0, fmt.Errorf("rosclient: %w", ctx.Err())
		}
		return nil, 0, fmt.Errorf("%w: %v", ErrTransport, err)
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(io.LimitReader(resp.Body, c.cfg.MaxResponseBytes+1))
	if err != nil {
		if ctx.Err() != nil {
			return nil, 0, fmt.Errorf("rosclient: %w", ctx.Err())
		}
		return nil, 0, fmt.Errorf("%w: reading body: %v", ErrTransport, err)
	}
	if int64(len(payload)) > c.cfg.MaxResponseBytes {
		return nil, 0, fmt.Errorf("%w: body exceeds %d bytes", ErrBadResponse, c.cfg.MaxResponseBytes)
	}
	if resp.StatusCode == http.StatusOK {
		return payload, 0, nil
	}
	return nil, parseRetryAfter(resp.Header, c.now()), c.statusError(resp.StatusCode, payload)
}

// statusError turns a non-200 response into a typed error: the service's
// error body maps back onto the roserr taxonomy when present, and the HTTP
// class decides retryability otherwise.
func (c *Client) statusError(status int, payload []byte) error {
	var body struct {
		Error *struct {
			Kind    string `json:"kind"`
			Message string `json:"message"`
		} `json:"error"`
	}
	kind, message := "", ""
	if err := json.Unmarshal(payload, &body); err == nil && body.Error != nil {
		kind, message = body.Error.Kind, body.Error.Message
	}
	if message == "" {
		message = fmt.Sprintf("http %d", status)
	}
	if sentinel := roserr.ForKind(kind); sentinel != nil {
		if errors.Is(sentinel, roserr.ErrOverload) || errors.Is(sentinel, roserr.ErrDraining) {
			mThrottledResp.Inc()
		}
		return fmt.Errorf("rosclient: %s (http %d): %w", message, status, sentinel)
	}
	switch {
	case status == http.StatusTooManyRequests:
		mThrottledResp.Inc()
		return fmt.Errorf("rosclient: %s: %w", message, roserr.ErrOverload)
	case status == http.StatusServiceUnavailable:
		mThrottledResp.Inc()
		return fmt.Errorf("rosclient: %s: %w", message, roserr.ErrDraining)
	case status >= 500:
		return fmt.Errorf("%w: %s (http %d)", ErrTransport, message, status)
	}
	return fmt.Errorf("rosclient: %s (http %d)", message, status)
}
