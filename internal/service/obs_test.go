package service_test

// Tests for the observability plane as seen from the service tier: the
// token-gated lease listing, the Prometheus exposition of /metrics, and the
// trace lifecycle from X-Harvest-Trace ingress to the /debug/traces viewer.

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"harvest/internal/obs"
	"harvest/internal/service"
)

// reserveLease posts one reserving select and returns the lease id.
func reserveLease(t *testing.T, base, dc, body string) uint64 {
	t.Helper()
	resp, data := postJSON(t, base+"/v1/"+dc+"/select", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("select: status %d (%s)", resp.StatusCode, data)
	}
	var sel struct {
		Satisfiable bool   `json:"satisfiable"`
		Lease       uint64 `json:"lease"`
	}
	decode(t, data, &sel)
	if !sel.Satisfiable || sel.Lease == 0 {
		t.Fatalf("select did not reserve: %s", data)
	}
	return sel.Lease
}

func authedGet(t *testing.T, url, token string) (*http.Response, []byte) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodGet, url, nil)
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp, body
}

func TestLeasesEndpoint(t *testing.T) {
	svc := newTestService(t)
	defer svc.Close()
	srv := httptest.NewServer(service.NewAPIWith(svc, service.APIOptions{IngestToken: "s3kr1t"}))
	defer srv.Close()

	// Three live leases with distinct metadata; hold_seconds keeps them from
	// expiring mid-test.
	ids := make([]uint64, 3)
	for i := range ids {
		ids[i] = reserveLease(t, srv.URL, "DC-9",
			`{"job_type":"short","max_concurrent_cores":2,"hold_seconds":120,`+
				`"job_id":"job-`+strconv.Itoa(i)+`","owner":"owner-`+strconv.Itoa(i)+`"}`)
	}

	// The listing shares the ingest bearer token.
	if resp, _ := authedGet(t, srv.URL+"/v1/DC-9/leases", ""); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated leases: status %d, want 401", resp.StatusCode)
	}

	resp, body := authedGet(t, srv.URL+"/v1/DC-9/leases", "s3kr1t")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("leases: status %d (%s)", resp.StatusCode, body)
	}
	var page struct {
		Datacenter string `json:"datacenter"`
		Total      int    `json:"total"`
		Offset     int    `json:"offset"`
		Leases     []struct {
			Lease            uint64    `json:"lease"`
			JobID            string    `json:"job_id"`
			Owner            string    `json:"owner"`
			ExpiresInSeconds float64   `json:"expires_in_seconds"`
			TotalCores       float64   `json:"total_cores"`
			Cores            []float64 `json:"cores"`
		} `json:"leases"`
	}
	decode(t, body, &page)
	if page.Total != 3 || len(page.Leases) != 3 || page.Datacenter != "DC-9" {
		t.Fatalf("leases page = %+v", page)
	}
	byID := map[uint64]string{}
	for _, l := range page.Leases {
		byID[l.Lease] = l.JobID
		if l.TotalCores <= 0 || l.ExpiresInSeconds <= 0 {
			t.Fatalf("lease %d missing cores/expiry: %+v", l.Lease, l)
		}
	}
	for i, id := range ids {
		if byID[id] != "job-"+strconv.Itoa(i) {
			t.Fatalf("lease %d job_id = %q, want job-%d (page %s)", id, byID[id], i, body)
		}
	}

	// Pagination: pages are disjoint and cover the total.
	resp, body = authedGet(t, srv.URL+"/v1/DC-9/leases?limit=2", "s3kr1t")
	decode(t, body, &page)
	if resp.StatusCode != http.StatusOK || page.Total != 3 || len(page.Leases) != 2 {
		t.Fatalf("limit=2 page: status %d %+v", resp.StatusCode, page)
	}
	first := page.Leases[0].Lease
	resp, body = authedGet(t, srv.URL+"/v1/DC-9/leases?limit=2&offset=2", "s3kr1t")
	decode(t, body, &page)
	if resp.StatusCode != http.StatusOK || page.Offset != 2 || len(page.Leases) != 1 {
		t.Fatalf("offset=2 page: status %d %+v", resp.StatusCode, page)
	}
	if page.Leases[0].Lease == first {
		t.Fatalf("offset page repeated lease %d", first)
	}

	// Parameter validation and routing errors.
	for _, q := range []string{"?offset=-1", "?limit=0", "?limit=1001", "?offset=x"} {
		if resp, _ := authedGet(t, srv.URL+"/v1/DC-9/leases"+q, "s3kr1t"); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("leases%s: status %d, want 400", q, resp.StatusCode)
		}
	}
	if resp, _ := authedGet(t, srv.URL+"/v1/DC-0/leases", "s3kr1t"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown DC leases: status %d, want 404", resp.StatusCode)
	}
}

func TestSelectLeaseMetaValidation(t *testing.T) {
	svc := newTestService(t)
	defer svc.Close()
	srv := httptest.NewServer(service.NewAPI(svc))
	defer srv.Close()

	long := strings.Repeat("x", 129)
	for _, body := range []string{
		`{"job_type":"short","max_concurrent_cores":2,"job_id":"` + long + `"}`,
		`{"job_type":"short","max_concurrent_cores":2,"owner":"` + long + `"}`,
	} {
		if resp, data := postJSON(t, srv.URL+"/v1/DC-9/select", body); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("oversized meta: status %d (%s)", resp.StatusCode, data)
		}
	}
}

func TestPrometheusExposition(t *testing.T) {
	svc := newTestService(t)
	defer svc.Close()
	srv := httptest.NewServer(service.NewAPI(svc))
	defer srv.Close()

	// Generate some traffic so the counters are nonzero.
	reserveLease(t, srv.URL, "DC-9", `{"job_type":"short","max_concurrent_cores":2,"hold_seconds":60}`)
	get(t, srv.URL+"/v1/DC-9/classes")

	// The default shape stays JSON — scrapers must opt in.
	resp, body := get(t, srv.URL+"/metrics")
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("/metrics Content-Type = %q, want JSON", ct)
	}
	var js struct {
		Datacenters map[string]struct {
			Repl *service.ShardReplStats `json:"repl"`
		} `json:"datacenters"`
	}
	decode(t, body, &js)
	if js.Datacenters["DC-9"].Repl == nil {
		t.Fatalf("JSON /metrics has no per-datacenter repl section: %s", body)
	}

	resp, body = get(t, srv.URL+"/metrics?format=prometheus")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prometheus metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.PromContentType {
		t.Fatalf("prometheus Content-Type = %q", ct)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE harvestd_requests_total counter",
		`harvestd_requests_total{endpoint="select",dialect="json"}`,
		"# TYPE harvestd_request_latency_microseconds histogram",
		`harvestd_request_latency_microseconds_bucket{endpoint="select",dialect="json",le="+Inf"}`,
		`harvestd_ledger_active_leases{dc="DC-9"} 1`,
		`harvestd_snapshot_generation{dc="DC-9"}`,
		"# TYPE harvestd_repl_build_seconds histogram",
		`harvestd_repl_build_seconds_bucket{dc="DC-9",le="1e-06"}`,
		`harvestd_repl_apply_seconds_bucket{dc="DC-9",le="+Inf"} 0`,
		`harvestd_repl_apply_seconds_sum{dc="DC-9"} 0`,
		`harvestd_repl_beat_bytes{dc="DC-9"} 0`,
		`harvestd_repl_apply_changed_total{dc="DC-9",kind="inserted"} 0`,
		`harvestd_repl_apply_changed_total{dc="DC-9",kind="rewritten"} 0`,
		`harvestd_repl_apply_changed_total{dc="DC-9",kind="deleted"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("prometheus exposition missing %q:\n%s", want, text[:min(2000, len(text))])
		}
	}
	// Every series line must parse as `name{labels} value` with a numeric
	// value, and every HELP has a TYPE.
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed series line %q", line)
		}
		if v := line[i+1:]; v != "+Inf" {
			if _, err := strconv.ParseFloat(v, 64); err != nil {
				t.Fatalf("non-numeric value in %q", line)
			}
		}
	}
}

func TestTraceLifecycleJSON(t *testing.T) {
	svc := newTestService(t)
	defer svc.Close()
	api := service.NewAPI(svc)
	srv := httptest.NewServer(api)
	defer srv.Close()

	// A client-supplied trace id is adopted and echoed.
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/DC-9/select",
		strings.NewReader(`{"job_type":"short","max_concurrent_cores":2,"hold_seconds":60,"job_id":"etl","owner":"alice"}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceHeader, "00000000000000aa")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("select: %v", err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(obs.TraceHeader); got != "00000000000000aa" {
		t.Fatalf("trace echo = %q, want the id sent", got)
	}

	traces := api.Recorder().Query(obs.TraceFilter{ID: 0xaa})
	if len(traces) != 1 {
		t.Fatalf("recorder has %d traces for the id, want 1", len(traces))
	}
	tr := traces[0]
	if tr.Op != "select" || tr.DC != "DC-9" || tr.Status != http.StatusOK {
		t.Fatalf("trace = %+v", tr)
	}
	if tr.JobID != "etl" || tr.Owner != "alice" {
		t.Fatalf("trace meta = %q/%q, want etl/alice", tr.JobID, tr.Owner)
	}
	spanNames := map[string]bool{}
	for _, s := range tr.Spans() {
		spanNames[s.Name] = true
	}
	if !spanNames["snapshot_read"] || !spanNames["ledger_reserve"] {
		t.Fatalf("reserving select spans = %v, want snapshot_read and ledger_reserve", spanNames)
	}

	// A request without the header gets a fresh id echoed back.
	resp2, _ := get(t, srv.URL+"/v1/DC-9/classes")
	if _, ok := obs.ParseTraceID(resp2.Header.Get(obs.TraceHeader)); !ok {
		t.Fatalf("ingress-assigned trace id %q unparsable", resp2.Header.Get(obs.TraceHeader))
	}

	// Health and metrics polls must not churn the ring.
	before := len(api.Recorder().Query(obs.TraceFilter{Limit: 10000}))
	get(t, srv.URL+"/healthz")
	get(t, srv.URL+"/metrics")
	if after := len(api.Recorder().Query(obs.TraceFilter{Limit: 10000})); after != before {
		t.Fatalf("healthz/metrics polls recorded traces: %d -> %d", before, after)
	}

	// The debug viewer resolves the trace by hex id.
	dbg := httptest.NewServer(obs.DebugMux("harvestd", api.Recorder()))
	defer dbg.Close()
	resp3, body := get(t, dbg.URL+"/debug/traces?trace=00000000000000aa")
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("/debug/traces: status %d", resp3.StatusCode)
	}
	var view struct {
		Traces []struct {
			ID    string `json:"id"`
			DC    string `json:"dc"`
			JobID string `json:"job_id"`
			Spans []struct {
				Name string `json:"name"`
			} `json:"spans"`
		} `json:"traces"`
	}
	decode(t, body, &view)
	if len(view.Traces) != 1 || view.Traces[0].ID != "00000000000000aa" ||
		view.Traces[0].DC != "DC-9" || view.Traces[0].JobID != "etl" {
		t.Fatalf("/debug/traces view = %s", body)
	}
	if len(view.Traces[0].Spans) < 2 {
		t.Fatalf("/debug/traces spans = %s", body)
	}
}
