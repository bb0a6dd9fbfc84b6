package rosd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// postReads posts a batch against a test server and decodes the response,
// failing the test on transport or decode errors (not on HTTP status).
func postReads(t *testing.T, ts *httptest.Server, reads []ReadRequest) (int, *BatchResponse) {
	t.Helper()
	body, err := json.Marshal(BatchRequest{Reads: reads})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/read", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out BatchResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decode response: %v", err)
		}
	}
	return resp.StatusCode, &out
}

// fastRead returns a quick but end-to-end valid read request: 96 frames is
// the smallest budget that still decodes the default tag correctly.
func fastRead(seed int64) ReadRequest {
	return ReadRequest{Bits: "1111", FrameBudget: 96, Workers: 1, Seed: seed}
}

// TestServeBatch is the service smoke test: a mixed batch answers 200 with
// one result per request, successful reads decode the tag, reads of
// different tags and scenes on one radar share that radar's engine, and the
// observability endpoints expose the service metrics and flight entries.
func TestServeBatch(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	faulted := fastRead(3)
	faulted.Fault = &FaultRequest{Seed: 3, DropRate: 0.1}
	reads := []ReadRequest{
		fastRead(1),
		{Tenant: "acme", Bits: "1011", FrameBudget: 96, Workers: 1, Seed: 2, WithClutter: true},
		{Bits: ""}, // invalid: must degrade to a per-request config error
		faulted,    // fault-injected: degrades in-band AND pins a flight entry
	}
	status, out := postReads(t, ts, reads)
	if status != http.StatusOK {
		t.Fatalf("batch status = %d, want 200", status)
	}
	if len(out.Results) != len(reads) {
		t.Fatalf("got %d results for %d reads", len(out.Results), len(reads))
	}
	if r := out.Results[0]; r.Error != nil || !r.Detected || r.Bits != "1111" {
		t.Fatalf("read 0 = %+v, want detected 1111 without error", r)
	}
	if r := out.Results[1]; r.Error != nil || !r.Detected || r.Bits == "" {
		t.Fatalf("read 1 = %+v, want a decoded tag without error", r)
	}
	if r := out.Results[2]; r.Error == nil || r.Error.Kind != "config" {
		t.Fatalf("read 2 = %+v, want a config error", r)
	}
	if r := out.Results[3]; r.Error != nil || !r.Detected || r.FramesDropped == 0 {
		t.Fatalf("read 3 = %+v, want a degraded-but-successful faulted read", r)
	}
	for _, i := range []int{1, 3} {
		if out.Results[i].Engine != out.Results[0].Engine {
			t.Fatalf("read %d on the default radar got engine %s, read 0 got %s",
				i, out.Results[i].Engine, out.Results[0].Engine)
		}
	}
	if out.EnginesResident != 1 {
		t.Fatalf("engines resident = %d, want 1 (one radar front end)", out.EnginesResident)
	}

	for _, probe := range []struct{ path, want string }{
		{"/metrics", "ros_rosd_reads_total"},
		{"/metrics", "ros_rosd_queue_depth"},
		{"/metrics.json", "ros_rosd_engines_resident"},
		{"/debug/flight", "\"seq\""},
	} {
		resp, err := ts.Client().Get(ts.URL + probe.path)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status = %d", probe.path, resp.StatusCode)
		}
		if !strings.Contains(buf.String(), probe.want) {
			t.Fatalf("%s exposition missing %q", probe.path, probe.want)
		}
	}
}

// TestAdmissionOverload: a batch that would exceed MaxQueueDepth is refused
// up front with 429 and the typed overload body, before any read runs.
func TestAdmissionOverload(t *testing.T) {
	srv := New(Config{MaxQueueDepth: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body, _ := json.Marshal(BatchRequest{Reads: []ReadRequest{fastRead(1), fastRead(2)}})
	resp, err := ts.Client().Post(ts.URL+"/v1/read", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	var out struct {
		Error *ErrorInfo `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Error == nil || out.Error.Kind != "overload" {
		t.Fatalf("error = %+v, want kind overload", out.Error)
	}
	if !strings.Contains(out.Error.Message, "server overloaded") {
		t.Fatalf("overload message %q does not carry the sentinel text", out.Error.Message)
	}

	// An in-budget batch on the same server still serves.
	status, bout := postReads(t, ts, []ReadRequest{fastRead(1)})
	if status != http.StatusOK || bout.Results[0].Error != nil {
		t.Fatalf("in-budget batch failed: status %d, %+v", status, bout.Results)
	}
}

// TestBadRequests: malformed, empty and oversized batches and wrong methods
// answer 4xx with typed config errors.
func TestBadRequests(t *testing.T) {
	srv := New(Config{MaxBatch: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(body string) int {
		resp, err := ts.Client().Post(ts.URL+"/v1/read", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := post("{not json"); got != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d, want 400", got)
	}
	if got := post(`{"reads":[]}`); got != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d, want 400", got)
	}
	if got := post(`{"reads":[{"bits":"1"},{"bits":"1"},{"bits":"1"}]}`); got != http.StatusBadRequest {
		t.Fatalf("oversized batch: status %d, want 400", got)
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/read")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET: status %d, want 405", resp.StatusCode)
	}

	// Unknown fog level degrades per-request, not per-batch.
	status, out := postReads(t, ts, []ReadRequest{{Bits: "1111", Fog: "smog"}})
	if status != http.StatusOK {
		t.Fatalf("bad fog batch status = %d, want 200", status)
	}
	if r := out.Results[0]; r.Error == nil || r.Error.Kind != "config" {
		t.Fatalf("bad fog result = %+v, want config error", r)
	}
}

// TestEngineLRUEviction: alternating the default and commercial front ends
// through a capacity-1 LRU evicts on every switch, keeps residency bounded,
// closes each evicted engine (its cache gauges leave the exposition), and
// keeps serving correctly.
func TestEngineLRUEviction(t *testing.T) {
	srv := New(Config{EngineCapacity: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	evictionsBefore := mEvictions.Value()
	engines := make([]string, 5)
	for i := range engines {
		req := fastRead(int64(i + 1))
		req.Commercial = i%2 == 1 // a new front end -> a new engine
		status, out := postReads(t, ts, []ReadRequest{req})
		if status != http.StatusOK {
			t.Fatalf("read %d: status %d", i, status)
		}
		if r := out.Results[0]; r.Error != nil || !r.Detected || r.Bits != req.Bits {
			t.Fatalf("read %d: result %+v", i, r)
		}
		if out.EnginesResident != 1 {
			t.Fatalf("read %d: %d engines resident, capacity 1", i, out.EnginesResident)
		}
		engines[i] = out.Results[0].Engine
	}
	if engines[0] == engines[1] || engines[0] != engines[2] || engines[1] != engines[3] {
		t.Fatalf("engine ids %v, want one per front end", engines)
	}
	if got := srv.engines.Len(); got != 1 {
		t.Fatalf("resident engines = %d, want 1", got)
	}
	if got := mEvictions.Value() - evictionsBefore; got != 4 {
		t.Fatalf("evictions = %d, want 4 (one per front-end switch)", got)
	}
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if !strings.Contains(buf.String(), fmt.Sprintf("engine=%q", engines[4])) {
		t.Fatalf("resident engine %s missing from the exposition", engines[4])
	}
	if strings.Contains(buf.String(), fmt.Sprintf("engine=%q", engines[3])) {
		t.Fatalf("evicted engine %s still reports cache gauges; not closed", engines[3])
	}
}

// TestEngineReuseAcrossBatches: reads on one radar front end map to the same
// engine whatever their scene, seed or worker count, so a read at a new
// standoff hits warm radar caches.
func TestEngineReuseAcrossBatches(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	_, first := postReads(t, ts, []ReadRequest{fastRead(1)})
	req := fastRead(99)
	req.Workers = 2
	req.Standoff = 3.5
	_, second := postReads(t, ts, []ReadRequest{req})
	if first.Results[0].Engine != second.Results[0].Engine {
		t.Fatalf("same radar mapped to engines %s and %s",
			first.Results[0].Engine, second.Results[0].Engine)
	}
}

// TestPerTenantMetrics: reads from distinct tenants land on distinct metric
// children in the exposition.
func TestPerTenantMetrics(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	reads := []ReadRequest{fastRead(1), fastRead(2)}
	reads[0].Tenant = "tenant-metrics-a"
	reads[1].Tenant = "tenant-metrics-b"
	if status, _ := postReads(t, ts, reads); status != http.StatusOK {
		t.Fatalf("batch status = %d", status)
	}
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	for _, tenant := range []string{"tenant-metrics-a", "tenant-metrics-b"} {
		want := fmt.Sprintf("tenant=%q", tenant)
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("exposition missing %s", want)
		}
	}
}

// TestLoadHarness runs the load harness (load_test.go): mixed
// configurations and tenants over concurrent clients, every read accounted
// for and decoded right, and the stream's two radar front ends evicting
// each other from a capacity-1 LRU while reads are in flight.
func TestLoadHarness(t *testing.T) {
	reads, concurrency := 96, 8
	if testing.Short() {
		reads, concurrency = 32, 4
	}
	report, err := runLoad(loadConfig{
		Server:      Config{EngineCapacity: 1, MaxQueueDepth: 64},
		Reads:       reads,
		Concurrency: concurrency,
		BatchSize:   4,
		Configs:     5,
		Tenants:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range report.Outcomes {
		total += n
	}
	if total != reads {
		t.Fatalf("outcomes account for %d of %d reads", total, reads)
	}
	if n := report.Outcomes[outcomeMisread]; n != 0 {
		t.Fatalf("%d of %d reads decoded the wrong bits: outcomes %v", n, reads, report.Outcomes)
	}
	if report.Outcomes["ok"] != reads {
		t.Fatalf("outcomes = %v, want all %d ok", report.Outcomes, reads)
	}
	if report.Errors != 0 {
		t.Fatalf("%d per-read errors under clean load", report.Errors)
	}
	if report.EnginesResident != 1 {
		t.Fatalf("engines resident = %d, capacity 1", report.EnginesResident)
	}
	if report.Evictions == 0 {
		t.Fatal("two front ends through a capacity-1 LRU evicted nothing")
	}
	if report.BatchP99MS < report.BatchP50MS {
		t.Fatalf("p99 %.2f ms below p50 %.2f ms", report.BatchP99MS, report.BatchP50MS)
	}
}
