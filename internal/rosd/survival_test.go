package rosd

// Survival-layer tests: tenant fairness under flood, deadline shedding,
// readiness brownout, graceful drain with zero dropped reads, parse
// hardening, and a goroutine-leak regression guard.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestFairnessUnderFlood is the isolation contract: one tenant floods at 4x
// everyone else's share against a tight quota, and the in-quota tenants must
// keep their full goodput while the flooder eats the throttles.
func TestFairnessUnderFlood(t *testing.T) {
	reads, burst := 224, 40.0
	if testing.Short() {
		reads, burst = 112, 20.0
	}
	report, err := runLoad(loadConfig{
		Server: Config{
			MaxQueueDepth: 512,
			TenantRate:    1, // refill is negligible over the run; burst is the quota
			TenantBurst:   burst,
		},
		Reads:       reads,
		Concurrency: 16,
		BatchSize:   4,
		Configs:     4,
		Tenants:     4,
		FloodFactor: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range report.Outcomes {
		total += n
	}
	if total != report.Reads {
		t.Fatalf("outcomes account for %d of %d reads", total, report.Reads)
	}
	if len(report.Tenants) != 4 {
		t.Fatalf("tenant reports = %d, want 4", len(report.Tenants))
	}
	for _, tr := range report.Tenants {
		if tr.Tenant == "tenant-0" {
			if tr.Throttled == 0 {
				t.Fatalf("flood tenant was never throttled: %+v", tr)
			}
			continue
		}
		if tr.Throttled != 0 {
			t.Fatalf("in-quota %s throttled %d reads; quota leaked across tenants", tr.Tenant, tr.Throttled)
		}
		if tr.OK < tr.Reads*9/10 {
			t.Fatalf("in-quota %s decoded %d of %d reads; flood stole its goodput", tr.Tenant, tr.OK, tr.Reads)
		}
	}
	if report.FairnessRatio < 0.5 {
		t.Fatalf("fairness ratio %.3f among in-quota tenants, want >= 0.5", report.FairnessRatio)
	}
	if report.Overloads == 0 {
		t.Fatal("a 4x flood against a tight quota produced no 429s")
	}
}

// TestDeadlineShed: reads carrying a tiny deadline_ms through a one-worker
// executor degrade to typed cancelled results — the ones still queued at
// expiry are shed without burning the worker on doomed work.
func TestDeadlineShed(t *testing.T) {
	srv := New(Config{ExecWorkers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	shedBefore := mDeadlineShed.Value()
	reads := make([]ReadRequest, 4)
	for i := range reads {
		reads[i] = fastRead(int64(i + 1))
		reads[i].DeadlineMS = 1
	}
	status, out := postReads(t, ts, reads)
	if status != http.StatusOK {
		t.Fatalf("status = %d, want 200 (deadlines degrade per read, not per batch)", status)
	}
	if len(out.Results) != len(reads) {
		t.Fatalf("got %d results for %d reads", len(out.Results), len(reads))
	}
	cancelled := 0
	for i, r := range out.Results {
		if r.Error != nil {
			if r.Error.Kind != "cancelled" {
				t.Fatalf("read %d error kind = %q, want cancelled", i, r.Error.Kind)
			}
			cancelled++
		}
	}
	if cancelled < 2 {
		t.Fatalf("%d of %d 1ms-deadline reads cancelled behind a single worker, want >= 2", cancelled, len(reads))
	}
	if mDeadlineShed.Value() == shedBefore {
		t.Fatal("no read was shed while queued; doomed reads burned the worker")
	}
}

// TestHealthAndReadiness: liveness always answers; readiness flips on the
// shed threshold and on draining.
func TestHealthAndReadiness(t *testing.T) {
	srv := New(Config{MaxQueueDepth: 3}) // shed depth 90%: 2
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(path string) (int, string) {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, buf.String()
	}

	if status, _ := get("/healthz"); status != http.StatusOK {
		t.Fatalf("/healthz = %d, want 200", status)
	}
	if status, body := get("/readyz"); status != http.StatusOK || !strings.Contains(body, `"ready": true`) {
		t.Fatalf("/readyz = %d %q, want 200 ready", status, body)
	}

	// Inflight at the shed threshold: brownout.
	srv.admit.Lock()
	srv.inflight = 2
	srv.admit.Unlock()
	if status, body := get("/readyz"); status != http.StatusServiceUnavailable || !strings.Contains(body, `"ready": false`) {
		t.Fatalf("/readyz at shed depth = %d %q, want 503 not-ready", status, body)
	}
	if status, _ := get("/healthz"); status != http.StatusOK {
		t.Fatal("/healthz went down with load; liveness must not brown out")
	}
	srv.admit.Lock()
	srv.inflight = 0
	srv.admit.Unlock()
	if status, _ := get("/readyz"); status != http.StatusOK {
		t.Fatal("/readyz did not recover once inflight fell below the shed depth")
	}

	// Draining: readiness down for good.
	srv.draining.Store(true)
	if status, body := get("/readyz"); status != http.StatusServiceUnavailable || !strings.Contains(body, `"draining": true`) {
		t.Fatalf("/readyz while draining = %d %q, want 503 draining", status, body)
	}
}

// TestParseHardening: the request decoder refuses oversized bodies with 413
// and unknown fields or trailing data with typed 400s.
func TestParseHardening(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(body string) (int, string) {
		resp, err := ts.Client().Post(ts.URL+"/v1/read", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, buf.String()
	}

	big := fmt.Sprintf(`{"reads":[{"bits":"1111","fog":%q}]}`, strings.Repeat("x", maxBodyBytes))
	if status, body := post(big); status != http.StatusRequestEntityTooLarge || !strings.Contains(body, "config") {
		t.Fatalf("oversized body = %d %q, want 413 with typed config error", status, body)
	}
	if status, body := post(`{"reads":[{"bits":"1111","bogus":1}]}`); status != http.StatusBadRequest || !strings.Contains(body, "bogus") {
		t.Fatalf("unknown field = %d %q, want 400 naming the field", status, body)
	}
	if status, _ := post(`{"reads":[{"bits":"1111"}]} trailing`); status != http.StatusBadRequest {
		t.Fatalf("trailing data = %d, want 400", status)
	}
	// A batch that fits still serves.
	if status, _ := post(`{"reads":[{"bits":"1111","frame_budget":96,"workers":1,"seed":1}]}`); status != http.StatusOK {
		t.Fatalf("in-limit batch = %d, want 200", status)
	}
}

// TestDrainUnderLoad: SIGTERM semantics under live traffic. Every batch the
// server admitted must come back complete (zero dropped in-flight reads),
// batches arriving after the drain starts get 503, and the telemetry dump
// lands in DrainDumpDir.
func TestDrainUnderLoad(t *testing.T) {
	dumpDir := t.TempDir()
	srv := New(Config{Addr: "127.0.0.1:0", DrainDumpDir: dumpDir})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	url := "http://" + srv.Addr()

	const clients = 8
	const batchSize = 3
	type tally struct {
		complete, refused, failed int
		incomplete                int
	}
	var (
		mu      sync.Mutex
		sum     tally
		stop    = make(chan struct{})
		wg      sync.WaitGroup
		httpCli = &http.Client{}
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			seed := int64(c * 1000)
			for {
				select {
				case <-stop:
					return
				default:
				}
				reads := make([]ReadRequest, batchSize)
				for i := range reads {
					seed++
					reads[i] = fastRead(seed)
				}
				body, _ := json.Marshal(BatchRequest{Reads: reads})
				resp, err := httpCli.Post(url+"/v1/read", "application/json", bytes.NewReader(body))
				mu.Lock()
				if err != nil {
					// Connection refused after shutdown completed: the
					// request was never admitted, nothing was dropped.
					sum.refused++
					mu.Unlock()
					return
				}
				var out BatchResponse
				decErr := json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				switch {
				case resp.StatusCode == http.StatusServiceUnavailable:
					sum.refused++
					mu.Unlock()
					return // draining — a well-behaved client backs off
				case resp.StatusCode != http.StatusOK:
					sum.failed++
				case decErr != nil || len(out.Results) != batchSize:
					sum.incomplete++
				default:
					sum.complete++
				}
				mu.Unlock()
			}
		}(c)
	}

	// Let traffic establish, then drain mid-flight.
	time.Sleep(50 * time.Millisecond)
	if err := srv.Drain(30 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	close(stop)
	wg.Wait()

	if sum.complete == 0 {
		t.Fatal("no batch completed before the drain; the test saw no in-flight work")
	}
	if sum.incomplete != 0 {
		t.Fatalf("%d admitted batches came back incomplete; drain dropped in-flight reads", sum.incomplete)
	}
	if sum.failed != 0 {
		t.Fatalf("%d batches failed with unexpected statuses during drain", sum.failed)
	}

	// Post-drain: admissions refused, telemetry flushed.
	if _, err := httpCli.Get(url + "/healthz"); err == nil {
		t.Fatal("server still accepting connections after drain")
	}
	for _, name := range []string{"flight.json", "metrics.json"} {
		fi, err := os.Stat(filepath.Join(dumpDir, name))
		if err != nil {
			t.Fatalf("drain dump missing %s: %v", name, err)
		}
		if fi.Size() == 0 {
			t.Fatalf("drain dump %s is empty", name)
		}
	}
}

// TestDrainRefusesNewBatches: a server mid-drain answers /v1/read with 503
// and Retry-After rather than queueing work it will not finish.
func TestDrainRefusesNewBatches(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	srv.draining.Store(true)
	body, _ := json.Marshal(BatchRequest{Reads: []ReadRequest{fastRead(1)}})
	resp, err := ts.Client().Post(ts.URL+"/v1/read", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 while draining", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("draining 503 without Retry-After")
	}
	var out struct {
		Error *ErrorInfo `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Error == nil || out.Error.Kind != "draining" {
		t.Fatalf("error = %+v, want kind draining", out.Error)
	}
}

// TestGoroutineLeakRegression: a load burst followed by shutdown returns the
// process to its pre-server goroutine baseline — workers, handlers and
// client connections all unwind.
func TestGoroutineLeakRegression(t *testing.T) {
	baseline := runtime.NumGoroutine()

	srv := New(Config{ExecWorkers: 4})
	ts := httptest.NewServer(srv.Handler())
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				reads := []ReadRequest{fastRead(int64(c*100 + i))}
				body, _ := json.Marshal(BatchRequest{Reads: reads})
				resp, err := ts.Client().Post(ts.URL+"/v1/read", "application/json", bytes.NewReader(body))
				if err == nil {
					resp.Body.Close()
				}
			}
		}(c)
	}
	wg.Wait()
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

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
