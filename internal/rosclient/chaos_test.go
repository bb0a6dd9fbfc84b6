package rosclient

// Network chaos harness: servers that misbehave at the transport and body
// layers — slow-loris trickle writes, mid-body connection drops, malformed
// and oversized JSON, stalled reads — proving the client degrades to typed
// errors with bounded memory and no leaked goroutines.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// chaosClient builds a client tuned for fast failure so chaos tests stay
// inside -short budgets.
func chaosClient(baseURL string, retries int) *Client {
	c := New(Config{
		BaseURL:          baseURL,
		Seed:             11,
		MaxRetries:       retries,
		BaseBackoff:      time.Millisecond,
		MaxBackoff:       2 * time.Millisecond,
		AttemptTimeout:   150 * time.Millisecond,
		BreakerThreshold: 1000, // keep the breaker out of these tests' way
		MaxResponseBytes: 1 << 16,
	})
	return c
}

func TestChaosMidBodyDrop(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Promise a long body, deliver a fragment, kill the connection.
		conn, buf, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Errorf("hijack: %v", err)
			return
		}
		buf.WriteString("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 65536\r\n\r\n{\"resul")
		buf.Flush()
		conn.Close()
	}))
	defer ts.Close()

	c := chaosClient(ts.URL, 1)
	c.sleep = func(ctx context.Context, d time.Duration) error { return nil }
	var out map[string]any
	attempts := mAttempts.Value()
	err := c.Do(context.Background(), "/v1/read", map[string]any{}, &out)
	if !errors.Is(err, ErrTransport) {
		t.Fatalf("err = %v, want ErrTransport for a mid-body drop", err)
	}
	if got := mAttempts.Value() - attempts; got != 2 {
		t.Fatalf("%d attempts, want 2 (drop is retryable)", got)
	}
}

func TestChaosMalformedJSON(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("{\"results\": [{\"rss_dbm\": }"))
	}))
	defer ts.Close()

	c := chaosClient(ts.URL, 1)
	c.sleep = func(ctx context.Context, d time.Duration) error { return nil }
	var out map[string]any
	err := c.Do(context.Background(), "/v1/read", map[string]any{}, &out)
	if !errors.Is(err, ErrBadResponse) {
		t.Fatalf("err = %v, want ErrBadResponse for undecodable 200", err)
	}
}

func TestChaosOversizedBody(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// 4 MiB of padding against the client's 64 KiB cap.
		w.Write([]byte(`{"pad":"`))
		chunk := strings.Repeat("x", 1<<16)
		for i := 0; i < 64; i++ {
			if _, err := fmt.Fprint(w, chunk); err != nil {
				return // client cut us off — exactly the point
			}
		}
		w.Write([]byte(`"}`))
	}))
	defer ts.Close()

	c := chaosClient(ts.URL, 1)
	c.sleep = func(ctx context.Context, d time.Duration) error { return nil }

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var out map[string]any
	err := c.Do(context.Background(), "/v1/read", map[string]any{}, &out)
	if !errors.Is(err, ErrBadResponse) {
		t.Fatalf("err = %v, want ErrBadResponse for oversized body", err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	// The client must buffer at most MaxResponseBytes+1 per attempt, never
	// the advertised 4 MiB. Allow generous slack for runtime noise.
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 2<<20 {
		t.Fatalf("heap grew %d bytes across an oversized response; body limit not enforced", grew)
	}
}

func TestChaosStalledRead(t *testing.T) {
	// The server must be released explicitly: Go's http server does not
	// cancel a request's context while its body sits unread, so handlers
	// parked on ctx alone would wedge ts.Close.
	done := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Accept the request and never answer.
		<-done
	}))
	defer ts.Close()
	defer close(done)

	c := chaosClient(ts.URL, 1)
	c.sleep = func(ctx context.Context, d time.Duration) error { return nil }
	start := time.Now()
	err := c.Do(context.Background(), "/v1/read", map[string]any{}, nil)
	if !errors.Is(err, ErrTransport) {
		t.Fatalf("err = %v, want ErrTransport for a stalled read", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("stalled read held the caller %v; AttemptTimeout not applied", elapsed)
	}
}

func TestChaosSlowLoris(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Trickle one byte at a time, far slower than any sane server.
		fl, _ := w.(http.Flusher)
		w.Write([]byte("{"))
		if fl != nil {
			fl.Flush()
		}
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-r.Context().Done():
				return
			case <-tick.C:
				if _, err := w.Write([]byte(" ")); err != nil {
					return
				}
				if fl != nil {
					fl.Flush()
				}
			}
		}
	}))
	defer ts.Close()

	c := chaosClient(ts.URL, 0)
	err := c.Do(context.Background(), "/v1/read", map[string]any{}, nil)
	if !errors.Is(err, ErrTransport) {
		t.Fatalf("err = %v, want ErrTransport for a slow-loris body", err)
	}
}

// TestChaosCallerContext checks that the caller's own deadline is terminal —
// the client must not retry past it or mask it as a transport failure.
func TestChaosCallerContext(t *testing.T) {
	done := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-done
	}))
	defer ts.Close()
	defer close(done)

	c := New(Config{BaseURL: ts.URL, MaxRetries: 8, AttemptTimeout: time.Hour})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	retries := mRetries.Value()
	err := c.Do(ctx, "/v1/read", map[string]any{}, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if got := mRetries.Value() - retries; got != 0 {
		t.Fatalf("%d retries after the caller's deadline, want 0", got)
	}
}

// TestChaosNoGoroutineLeak hammers every chaos mode concurrently, then checks
// the goroutine count settles back to its pre-burst baseline.
func TestChaosNoGoroutineLeak(t *testing.T) {
	drop := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, buf, err := w.(http.Hijacker).Hijack()
		if err != nil {
			return
		}
		buf.WriteString("HTTP/1.1 200 OK\r\nContent-Length: 4096\r\n\r\n{\"x")
		buf.Flush()
		conn.Close()
	}))
	done := make(chan struct{})
	stall := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-done
	}))
	garbage := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("]]not json[["))
	}))

	baseline := runtime.NumGoroutine()

	var wg sync.WaitGroup
	for _, url := range []string{drop.URL, stall.URL, garbage.URL} {
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func(u string) {
				defer wg.Done()
				c := chaosClient(u, 2)
				c.sleep = func(ctx context.Context, d time.Duration) error { return nil }
				var out map[string]any
				_ = c.Do(context.Background(), "/v1/read", map[string]any{}, &out)
			}(url)
		}
	}
	wg.Wait()
	close(done)
	drop.Close()
	stall.Close()
	garbage.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+3 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.NumGoroutine()
			sz := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: baseline %d, now %d\n%s", baseline, n, buf[:sz])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
