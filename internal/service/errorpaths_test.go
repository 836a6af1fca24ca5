package service_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"harvest/internal/core"
	"harvest/internal/service"
)

// doRaw issues one request with an arbitrary method, returning the status and
// the response body.
func doRaw(t *testing.T, method, url, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s %s: reading the reply: %v", method, url, err)
	}
	return resp.StatusCode, string(reply)
}

// TestEndpointErrorPaths pins every endpoint's error status codes so they
// are contracts, not accidents: wrong method → 405, unknown datacenter /
// lease / server → 404, malformed or invalid JSON → 400. Where messages names
// a row, the reply's error is that message: a body the strict scanner
// declines is encoding/json's to decide, so it answers as it would. The ingest
// hardening codes (401/429) get their own table below — they need a
// differently configured API.
func TestEndpointErrorPaths(t *testing.T) {
	svc := newTestService(t)
	srv := httptest.NewServer(service.NewAPI(svc))
	defer srv.Close()

	cases := []struct {
		name   string
		method string
		path   string
		body   string
		want   int
	}{
		// GET /v1/datacenters
		{"datacenters wrong method", "POST", "/v1/datacenters", "", http.StatusMethodNotAllowed},

		// GET /v1/{dc}/classes
		{"classes wrong method", "POST", "/v1/DC-9/classes", "", http.StatusMethodNotAllowed},
		{"classes unknown dc", "GET", "/v1/DC-X/classes", "", http.StatusNotFound},

		// GET /v1/{dc}/servers/{id}/class
		{"server class wrong method", "POST", "/v1/DC-9/servers/1/class", "", http.StatusMethodNotAllowed},
		{"server class unknown dc", "GET", "/v1/DC-X/servers/1/class", "", http.StatusNotFound},
		{"server class non-integer id", "GET", "/v1/DC-9/servers/abc/class", "", http.StatusBadRequest},
		{"server class unknown server", "GET", "/v1/DC-9/servers/99999999/class", "", http.StatusNotFound},

		// POST /v1/{dc}/select
		{"select wrong method", "GET", "/v1/DC-9/select", "", http.StatusMethodNotAllowed},
		{"select unknown dc", "POST", "/v1/DC-X/select", `{"max_concurrent_cores":1}`, http.StatusNotFound},
		{"select malformed json", "POST", "/v1/DC-9/select", `{"max_concurrent`, http.StatusBadRequest},
		{"select zero cores", "POST", "/v1/DC-9/select", `{"max_concurrent_cores":0}`, http.StatusBadRequest},
		{"select negative cores", "POST", "/v1/DC-9/select", `{"max_concurrent_cores":-3}`, http.StatusBadRequest},
		{"select bad job type", "POST", "/v1/DC-9/select", `{"job_type":"eternal","max_concurrent_cores":1}`, http.StatusBadRequest},
		{"select negative hold", "POST", "/v1/DC-9/select", `{"max_concurrent_cores":1,"hold_seconds":-1}`, http.StatusBadRequest},
		{"select over-cap hold", "POST", "/v1/DC-9/select", `{"max_concurrent_cores":1,"hold_seconds":3601}`, http.StatusBadRequest},
		{"select negative last run", "POST", "/v1/DC-9/select", `{"max_concurrent_cores":1,"last_run_seconds":-5}`, http.StatusBadRequest},
		{"select absurd last run", "POST", "/v1/DC-9/select", `{"max_concurrent_cores":1,"last_run_seconds":2e9}`, http.StatusBadRequest},
		{"select last run beside an explicit type", "POST", "/v1/DC-9/select", `{"job_type":"short","max_concurrent_cores":1,"last_run_seconds":-5}`, http.StatusOK},
		{"select key in another case", "POST", "/v1/DC-9/select", `{"Max_Concurrent_Cores":1}`, http.StatusOK},
		{"select escaped job type", "POST", "/v1/DC-9/select", `{"job_type":"sh\u006frt","max_concurrent_cores":1}`, http.StatusOK},
		{"select job type in another case", "POST", "/v1/DC-9/select", `{"job_type":"Short","max_concurrent_cores":1}`, http.StatusBadRequest},

		// POST /v1/{dc}/release
		{"release wrong method", "GET", "/v1/DC-9/release", "", http.StatusMethodNotAllowed},
		{"release unknown dc", "POST", "/v1/DC-X/release", `{"lease":1}`, http.StatusNotFound},
		{"release malformed json", "POST", "/v1/DC-9/release", `{"lease":`, http.StatusBadRequest},
		{"release zero lease", "POST", "/v1/DC-9/release", `{"lease":0}`, http.StatusBadRequest},
		{"release unknown lease", "POST", "/v1/DC-9/release", `{"lease":424242}`, http.StatusNotFound},
		{"release negative lease", "POST", "/v1/DC-9/release", `{"lease":-1}`, http.StatusBadRequest},
		{"release fractional lease", "POST", "/v1/DC-9/release", `{"lease":1.5}`, http.StatusBadRequest},

		// POST /v1/{dc}/renew
		{"renew wrong method", "GET", "/v1/DC-9/renew", "", http.StatusMethodNotAllowed},
		{"renew unknown dc", "POST", "/v1/DC-X/renew", `{"lease":1}`, http.StatusNotFound},
		{"renew malformed json", "POST", "/v1/DC-9/renew", `{"lease":1,`, http.StatusBadRequest},
		{"renew zero lease", "POST", "/v1/DC-9/renew", `{"lease":0}`, http.StatusBadRequest},
		{"renew unknown lease", "POST", "/v1/DC-9/renew", `{"lease":424242,"hold_seconds":60}`, http.StatusNotFound},
		{"renew negative lease", "POST", "/v1/DC-9/renew", `{"lease":-1}`, http.StatusBadRequest},
		{"renew fractional lease", "POST", "/v1/DC-9/renew", `{"lease":1.5}`, http.StatusBadRequest},

		// POST /v1/{dc}/place
		{"place wrong method", "GET", "/v1/DC-9/place", "", http.StatusMethodNotAllowed},
		{"place unknown dc", "POST", "/v1/DC-X/place", `{"replication":3}`, http.StatusNotFound},
		{"place malformed json", "POST", "/v1/DC-9/place", `replication=3`, http.StatusBadRequest},
		{"place zero replication", "POST", "/v1/DC-9/place", `{"replication":0}`, http.StatusBadRequest},
		{"place excessive replication", "POST", "/v1/DC-9/place", `{"replication":65}`, http.StatusBadRequest},
		{"place key in another case", "POST", "/v1/DC-9/place", `{"Replication":3}`, http.StatusOK},
		{"place replication with an exponent", "POST", "/v1/DC-9/place", `{"replication":1e0}`, http.StatusBadRequest},

		// POST /v1/{dc}/blocks
		{"blocks wrong method", "GET", "/v1/DC-9/blocks", "", http.StatusMethodNotAllowed},
		{"blocks unknown dc", "POST", "/v1/DC-X/blocks", `{"replication":3}`, http.StatusNotFound},
		{"blocks malformed json", "POST", "/v1/DC-9/blocks", `{"replication":3`, http.StatusBadRequest},
		{"blocks zero replication", "POST", "/v1/DC-9/blocks", `{"replication":0}`, http.StatusBadRequest},
		{"blocks excessive replication", "POST", "/v1/DC-9/blocks", `{"replication":65}`, http.StatusBadRequest},

		// POST /v1/{dc}/telemetry (open config; 401/429 in the table below)
		{"telemetry wrong method", "GET", "/v1/DC-9/telemetry", "", http.StatusMethodNotAllowed},
		{"telemetry unknown dc", "POST", "/v1/DC-X/telemetry", `{"samples":[{"tenant":0,"utilization":0.5}]}`, http.StatusNotFound},
		{"telemetry malformed json", "POST", "/v1/DC-9/telemetry", `{"samples":[`, http.StatusBadRequest},
		{"telemetry no samples", "POST", "/v1/DC-9/telemetry", `{"samples":[]}`, http.StatusBadRequest},

		// GET /healthz, GET /metrics
		{"healthz wrong method", "POST", "/healthz", "", http.StatusMethodNotAllowed},
		{"metrics wrong method", "POST", "/metrics", "", http.StatusMethodNotAllowed},
	}
	// messages pins the {"error": ...} reply of some rows.
	messages := map[string]string{
		"select job type in another case":    "job_type must be short, medium or long",
		"release negative lease":             "bad request body: json: cannot unmarshal number -1 into Go struct field leaseRequest.lease of type uint64",
		"release fractional lease":           "bad request body: json: cannot unmarshal number 1.5 into Go struct field leaseRequest.lease of type uint64",
		"renew zero lease":                   "lease must be a nonzero id",
		"renew negative lease":               "bad request body: json: cannot unmarshal number -1 into Go struct field leaseRequest.lease of type uint64",
		"renew fractional lease":             "bad request body: json: cannot unmarshal number 1.5 into Go struct field leaseRequest.lease of type uint64",
		"place replication with an exponent": "bad request body: json: cannot unmarshal number 1e0 into Go struct field placeRequest.replication of type int",
		"blocks zero replication":            "replication must be in [1, 64]",
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, reply := doRaw(t, tc.method, srv.URL+tc.path, tc.body)
			if status != tc.want {
				t.Errorf("%s %s: status %d, want %d", tc.method, tc.path, status, tc.want)
			}
			msg, pinned := messages[tc.name]
			if !pinned {
				return
			}
			var e struct{ Error string }
			if err := json.Unmarshal([]byte(reply), &e); err != nil || e.Error != msg {
				t.Errorf("%s %s %s: reply %s, want the error %q", tc.method, tc.path, tc.body, reply, msg)
			}
		})
	}
}

// postTelemetryXFF posts one ingest sample carrying an X-Forwarded-For
// header and returns the status.
func postTelemetryXFF(t *testing.T, baseURL, forwardedFor string) int {
	t.Helper()
	req, err := http.NewRequest("POST", baseURL+"/v1/DC-9/telemetry",
		strings.NewReader(`{"samples":[{"tenant":0,"utilization":0.5}]}`))
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Forwarded-For", forwardedFor)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestIngestRateLimitTrustedProxy pins the per-source isolation of the rate
// limit behind a router: for connections from a configured trusted proxy
// the bucket key is the X-Forwarded-For client (port stripped) — distinct
// emitters get distinct buckets, the same emitter shares one across
// reconnects.
func TestIngestRateLimitTrustedProxy(t *testing.T) {
	svc := newTestService(t)
	srv := httptest.NewServer(service.NewAPIWith(svc, service.APIOptions{
		IngestRatePerSource: 0.0001, // effectively no refill within the test
		IngestBurst:         1,
		TrustedProxies:      []string{"127.0.0.1", "::1"}, // httptest connects over loopback
	}))
	defer srv.Close()

	if got := postTelemetryXFF(t, srv.URL, "10.0.0.1:1234"); got != http.StatusOK {
		t.Errorf("first client: status %d, want 200", got)
	}
	if got := postTelemetryXFF(t, srv.URL, "10.0.0.2:4321"); got != http.StatusOK {
		t.Errorf("second client sharing the proxy conn: status %d, want 200 (own bucket)", got)
	}
	if got := postTelemetryXFF(t, srv.URL, "10.0.0.1:9999"); got != http.StatusTooManyRequests {
		t.Errorf("first client reconnected: status %d, want 429 (same bucket, port stripped)", got)
	}
}

// TestIngestRateLimitIgnoresUntrustedForwardedFor pins the failure-closed
// side: when the connection does not come from a configured trusted proxy,
// X-Forwarded-For is attacker-controlled noise and must not mint fresh
// buckets.
func TestIngestRateLimitIgnoresUntrustedForwardedFor(t *testing.T) {
	svc := newTestService(t)
	srv := httptest.NewServer(service.NewAPIWith(svc, service.APIOptions{
		IngestRatePerSource: 0.0001,
		IngestBurst:         1,
		TrustedProxies:      []string{"192.0.2.77"}, // not the test's loopback peer
	}))
	defer srv.Close()

	if got := postTelemetryXFF(t, srv.URL, "10.0.0.1:1234"); got != http.StatusOK {
		t.Errorf("first request: status %d, want 200", got)
	}
	// A fresh spoofed header must not escape the RemoteAddr bucket.
	if got := postTelemetryXFF(t, srv.URL, "10.99.99.99:1"); got != http.StatusTooManyRequests {
		t.Errorf("spoofed X-Forwarded-For escaped the rate limit: status %d, want 429", got)
	}
}

// TestIngestHardeningErrorPaths pins the 401/429 contract of the telemetry
// endpoint under a hardened configuration. Rows run in order: the auth
// rejections must not consume rate-limit tokens, the one authorized POST
// drains the single-token bucket, and the next authorized POST trips 429.
func TestIngestHardeningErrorPaths(t *testing.T) {
	svc := newTestService(t)
	srv := httptest.NewServer(service.NewAPIWith(svc, service.APIOptions{
		IngestToken:         "sekrit",
		IngestRatePerSource: 0.0001, // effectively no refill within the test
		IngestBurst:         1,
	}))
	defer srv.Close()

	sample := `{"samples":[{"tenant":0,"utilization":0.5}]}`
	cases := []struct {
		name  string
		token string
		want  int
	}{
		{"missing token", "", http.StatusUnauthorized},
		{"wrong token", "Bearer wrong", http.StatusUnauthorized},
		{"wrong scheme", "Basic sekrit", http.StatusUnauthorized},
		{"authorized", "Bearer sekrit", http.StatusOK},
		{"rate limited", "Bearer sekrit", http.StatusTooManyRequests},
		{"still rate limited", "Bearer sekrit", http.StatusTooManyRequests},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest("POST", srv.URL+"/v1/DC-9/telemetry", strings.NewReader(sample))
			if err != nil {
				t.Fatalf("new request: %v", err)
			}
			req.Header.Set("Content-Type", "application/json")
			if tc.token != "" {
				req.Header.Set("Authorization", tc.token)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatalf("POST: %v", err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("token %q: status %d, want %d", tc.token, resp.StatusCode, tc.want)
			}
		})
	}
}

// persistErrors reads DC-9's persist_errors counter.
func persistErrors(t *testing.T, svc *service.Service) uint64 {
	t.Helper()
	st, ok := svc.Stats("DC-9")
	if !ok {
		t.Fatal("no stats for DC-9")
	}
	return st.PersistErrors
}

// TestPersistFailureKeepsLastGoodFile pins the persist error path: a file that
// cannot be written costs one persist_errors count and nothing else — the
// previous good file is byte-identical, no temp file of ours is left behind,
// the other two files are still written, and a restart restores the last good
// state.
func TestPersistFailureKeepsLastGoodFile(t *testing.T) {
	dir := t.TempDir()
	svc, cfg := newPersistedService(t, dir)
	r3 := core.PlacementConstraints{Replication: 3, Writer: -1, EnforceEnvironment: true}
	createBlocks := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := svc.CreateBlock("DC-9", r3); err != nil {
				t.Fatal(err)
			}
		}
	}
	refresh := func() {
		t.Helper()
		if err := svc.Refresh("DC-9"); err != nil {
			t.Fatal(err)
		}
	}
	createBlocks(5)
	refresh()
	blocksFile := filepath.Join(dir, "DC-9.blocks.json")
	good, err := os.ReadFile(blocksFile)
	if err != nil {
		t.Fatal(err)
	}
	if n := persistErrors(t, svc); n != 0 {
		t.Fatalf("persist_errors = %d before anything failed", n)
	}

	// The temp file cannot be created: a directory sits in its place.
	squatter := blocksFile + ".tmp"
	if err := os.Mkdir(squatter, 0o755); err != nil {
		t.Fatal(err)
	}
	createBlocks(3)
	ledgerBefore, _ := os.Stat(filepath.Join(dir, "DC-9.ledger.json"))
	refresh()
	if n := persistErrors(t, svc); n != 1 {
		t.Errorf("persist_errors = %d after one failed file, want 1", n)
	}
	if now, err := os.ReadFile(blocksFile); err != nil || !bytes.Equal(now, good) {
		t.Errorf("the last good blocks file did not survive a failed persist (err %v)", err)
	}
	if info, err := os.Stat(squatter); err != nil || !info.IsDir() {
		t.Errorf("the failed persist removed a temp path it did not create (err %v)", err)
	}
	if ledgerAfter, _ := os.Stat(filepath.Join(dir, "DC-9.ledger.json")); os.SameFile(ledgerBefore, ledgerAfter) {
		t.Error("the ledger file was not replaced beside the failing blocks file")
	}

	// The rename fails: the destination is a non-empty directory. The temp
	// file was created and written by then, and must be gone.
	if err := os.Remove(filepath.Join(dir, "DC-9.ledger.json")); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "DC-9.ledger.json", "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	refresh()
	if n := persistErrors(t, svc); n != 3 {
		t.Errorf("persist_errors = %d after two more failed files, want 3", n)
	}
	if _, err := os.Stat(filepath.Join(dir, "DC-9.ledger.json.tmp")); !os.IsNotExist(err) {
		t.Errorf("a failed rename left its temp file behind (stat err %v)", err)
	}
	svc.Close() // both ledger files fail once more; nothing to assert but that it returns

	// A restart reads the last good blocks file: the five blocks it held.
	svc2, err := service.New(cfg)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	st, _ := svc2.Stats("DC-9")
	if st.Blocks.Blocks != 5 || st.Blocks.ConservationErrorSlots != 0 {
		t.Errorf("restored %d blocks (conservation error %d), want the 5 of the last good file", st.Blocks.Blocks, st.Blocks.ConservationErrorSlots)
	}

	// With the obstacles gone the next persist succeeds and the counter stops.
	if err := os.Remove(squatter); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(filepath.Join(dir, "DC-9.ledger.json")); err != nil {
		t.Fatal(err)
	}
	if err := svc2.Refresh("DC-9"); err != nil {
		t.Fatal(err)
	}
	if n := persistErrors(t, svc2); n != 0 {
		t.Errorf("persist_errors = %d on a clean directory", n)
	}
	if now, err := os.ReadFile(blocksFile); err != nil || bytes.Equal(now, good) {
		t.Errorf("the blocks file was not rewritten once it could be (err %v)", err)
	}
	svc2.Close()
}

// TestRefreshAndCloseConcurrently pins who may touch the shard's persist
// storage: Close persists the ledgers while a Refresh from another goroutine
// may still be persisting its own, and the two share the shard's buffers. Run
// under -race; the files must restore to balanced books whichever wrote last.
func TestRefreshAndCloseConcurrently(t *testing.T) {
	dir := t.TempDir()
	svc, cfg := newPersistedService(t, dir)
	for i := 0; i < 200; i++ {
		if _, err := svc.CreateBlock("DC-9", core.PlacementConstraints{Replication: 3, Writer: -1, EnforceEnvironment: true}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 4; i++ {
				if err := svc.Refresh("DC-9"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		svc.Close()
		svc.Close()
	}()
	close(start)
	wg.Wait()
	if n := persistErrors(t, svc); n != 0 {
		t.Errorf("persist_errors = %d", n)
	}
	svc2, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	st, _ := svc2.Stats("DC-9")
	if st.Blocks.Blocks != 200 || st.Blocks.ConservationErrorSlots != 0 || st.Ledger.ConservationErrorMillis != 0 {
		t.Errorf("restored books: %+v / %+v", st.Blocks, st.Ledger)
	}
}
