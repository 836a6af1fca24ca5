package service_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"harvest/internal/core"
	"harvest/internal/experiments"
	"harvest/internal/obs"
	"harvest/internal/service"
	"harvest/internal/tenant"
)

func testConfig() service.Config {
	cfg := service.DefaultConfig()
	cfg.Datacenters = []string{"DC-9"}
	cfg.Scale = experiments.Scale{Datacenter: 0.05, Seed: 1}
	cfg.RefreshPeriod = 0 // tests refresh explicitly
	return cfg
}

func newTestService(t testing.TB) *service.Service {
	t.Helper()
	svc, err := service.New(testConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return svc
}

func postJSON(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func decode(t *testing.T, data []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("unmarshal %q: %v", data, err)
	}
}

func TestDatacentersEndpoint(t *testing.T) {
	svc := newTestService(t)
	srv := httptest.NewServer(service.NewAPI(svc))
	defer srv.Close()

	resp, body := get(t, srv.URL+"/v1/datacenters")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if resp.Header.Get("Content-Type") != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", resp.Header.Get("Content-Type"))
	}
	var dcl struct {
		Datacenters []string `json:"datacenters"`
	}
	decode(t, body, &dcl)
	if len(dcl.Datacenters) != 1 || dcl.Datacenters[0] != "DC-9" {
		t.Errorf("datacenters = %v, want [DC-9]", dcl.Datacenters)
	}
}

func TestClassesEndpoint(t *testing.T) {
	svc := newTestService(t)
	srv := httptest.NewServer(service.NewAPI(svc))
	defer srv.Close()

	resp, body := get(t, srv.URL+"/v1/DC-9/classes")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200; body %s", resp.StatusCode, body)
	}
	var classes struct {
		Datacenter string `json:"datacenter"`
		Generation uint64 `json:"generation"`
		Classes    []struct {
			ID              int     `json:"id"`
			Pattern         string  `json:"pattern"`
			NumServers      int     `json:"num_servers"`
			PeakUtilization float64 `json:"peak_utilization"`
			ExampleServer   int64   `json:"example_server"`
		} `json:"classes"`
	}
	decode(t, body, &classes)
	if classes.Datacenter != "DC-9" || classes.Generation != 1 {
		t.Errorf("datacenter/generation = %s/%d, want DC-9/1", classes.Datacenter, classes.Generation)
	}
	if len(classes.Classes) == 0 {
		t.Fatal("no classes returned")
	}
	for _, c := range classes.Classes {
		if c.Pattern != "constant" && c.Pattern != "periodic" && c.Pattern != "unpredictable" {
			t.Errorf("class %d: bad pattern %q", c.ID, c.Pattern)
		}
		if c.NumServers <= 0 || c.ExampleServer < 0 {
			t.Errorf("class %d: servers=%d example=%d", c.ID, c.NumServers, c.ExampleServer)
		}
	}

	// Unknown datacenter: 404 with a JSON error body.
	resp, body = get(t, srv.URL+"/v1/DC-99/classes")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown DC status = %d, want 404", resp.StatusCode)
	}
	var e struct {
		Error string `json:"error"`
	}
	decode(t, body, &e)
	if e.Error == "" {
		t.Error("404 body carries no error message")
	}
}

func TestServerClassEndpoint(t *testing.T) {
	svc := newTestService(t)
	srv := httptest.NewServer(service.NewAPI(svc))
	defer srv.Close()

	snap, _ := svc.Snapshot("DC-9")
	known := snap.Clustering.Classes[0].Servers[0]

	resp, body := get(t, fmt.Sprintf("%s/v1/DC-9/servers/%d/class", srv.URL, known))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200; body %s", resp.StatusCode, body)
	}
	var sc struct {
		Server int64 `json:"server"`
		Class  struct {
			ID int `json:"id"`
		} `json:"class"`
	}
	decode(t, body, &sc)
	if sc.Server != int64(known) {
		t.Errorf("server = %d, want %d", sc.Server, known)
	}
	if got, _ := snap.Clustering.ClassOfServer(known); int(got) != sc.Class.ID {
		t.Errorf("class = %d, want %d", sc.Class.ID, got)
	}

	if resp, _ := get(t, srv.URL+"/v1/DC-9/servers/99999999/class"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown server status = %d, want 404", resp.StatusCode)
	}
	if resp, _ := get(t, srv.URL+"/v1/DC-9/servers/notanumber/class"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("non-numeric server status = %d, want 400", resp.StatusCode)
	}
}

func TestSelectEndpoint(t *testing.T) {
	svc := newTestService(t)
	srv := httptest.NewServer(service.NewAPI(svc))
	defer srv.Close()

	resp, body := postJSON(t, srv.URL+"/v1/DC-9/select", `{"job_type":"medium","max_concurrent_cores":4}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200; body %s", resp.StatusCode, body)
	}
	var sel struct {
		JobType     string    `json:"job_type"`
		Satisfiable bool      `json:"satisfiable"`
		Classes     []int     `json:"classes"`
		Headrooms   []float64 `json:"headrooms"`
	}
	decode(t, body, &sel)
	if sel.JobType != "medium" {
		t.Errorf("job_type = %q, want medium", sel.JobType)
	}
	if !sel.Satisfiable || len(sel.Classes) == 0 || len(sel.Classes) != len(sel.Headrooms) {
		t.Errorf("small job unsatisfiable: %+v", sel)
	}

	// A last-run duration instead of an explicit type: 60s is short.
	resp, body = postJSON(t, srv.URL+"/v1/DC-9/select", `{"last_run_seconds":60,"max_concurrent_cores":4}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	decode(t, body, &sel)
	if sel.JobType != "short" {
		t.Errorf("job_type = %q, want short (60s last run)", sel.JobType)
	}

	// An impossible demand still returns 200, marked unsatisfiable.
	resp, body = postJSON(t, srv.URL+"/v1/DC-9/select", `{"job_type":"long","max_concurrent_cores":1e12}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	decode(t, body, &sel)
	if sel.Satisfiable {
		t.Error("1e12-core job reported satisfiable")
	}

	for body, want := range map[string]int{
		`{"job_type":"weird","max_concurrent_cores":4}`: http.StatusBadRequest,
		`{"job_type":"medium"}`:                         http.StatusBadRequest,
		`not json`:                                      http.StatusBadRequest,
	} {
		if resp, _ := postJSON(t, srv.URL+"/v1/DC-9/select", body); resp.StatusCode != want {
			t.Errorf("select %s: status = %d, want %d", body, resp.StatusCode, want)
		}
	}
	if resp, _ := postJSON(t, srv.URL+"/v1/DC-99/select", `{"job_type":"medium","max_concurrent_cores":4}`); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown DC select status = %d, want 404", resp.StatusCode)
	}
}

func TestPlaceEndpoint(t *testing.T) {
	svc := newTestService(t)
	srv := httptest.NewServer(service.NewAPI(svc))
	defer srv.Close()

	resp, body := postJSON(t, srv.URL+"/v1/DC-9/place", `{"replication":3}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200; body %s", resp.StatusCode, body)
	}
	var pl struct {
		Replicas []int64 `json:"replicas"`
	}
	decode(t, body, &pl)
	if len(pl.Replicas) != 3 {
		t.Fatalf("replicas = %v, want 3", pl.Replicas)
	}
	seen := map[int64]bool{}
	for _, r := range pl.Replicas {
		if seen[r] {
			t.Errorf("duplicate replica %d in %v", r, pl.Replicas)
		}
		seen[r] = true
	}

	// A known writer gets the first replica (locality).
	snap, _ := svc.Snapshot("DC-9")
	writer := snap.Clustering.Classes[0].Servers[0]
	resp, body = postJSON(t, srv.URL+"/v1/DC-9/place", fmt.Sprintf(`{"replication":3,"writer":%d}`, writer))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	decode(t, body, &pl)
	if len(pl.Replicas) != 3 || pl.Replicas[0] != int64(writer) {
		t.Errorf("replicas = %v, want writer %d first", pl.Replicas, writer)
	}

	if resp, _ := postJSON(t, srv.URL+"/v1/DC-9/place", `{"replication":0}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("replication=0 status = %d, want 400", resp.StatusCode)
	}
	if resp, _ := postJSON(t, srv.URL+"/v1/DC-9/place", `{"replication":200000000}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("huge replication status = %d, want 400", resp.StatusCode)
	}
	if resp, _ := postJSON(t, srv.URL+"/v1/DC-99/place", `{"replication":3}`); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown DC place status = %d, want 404", resp.StatusCode)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	svc := newTestService(t)
	srv := httptest.NewServer(service.NewAPI(svc))
	defer srv.Close()

	resp, body := get(t, srv.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d, want 200", resp.StatusCode)
	}
	var hz struct {
		Status      string `json:"status"`
		Datacenters int    `json:"datacenters"`
	}
	decode(t, body, &hz)
	if hz.Status != "ok" || hz.Datacenters != 1 {
		t.Errorf("healthz = %+v", hz)
	}

	// Drive a little traffic so /metrics has something to report.
	for i := 0; i < 5; i++ {
		postJSON(t, srv.URL+"/v1/DC-9/select", `{"job_type":"short","max_concurrent_cores":2}`)
	}
	get(t, srv.URL+"/v1/DC-99/classes") // one error

	resp, body = get(t, srv.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d, want 200", resp.StatusCode)
	}
	var m struct {
		TotalRequests uint64 `json:"total_requests"`
		Endpoints     map[string]struct {
			Requests uint64 `json:"requests"`
			Errors   uint64 `json:"errors"`
			P99Us    uint64 `json:"p99_us"`
		} `json:"endpoints"`
		Datacenters map[string]struct {
			Generation uint64 `json:"generation"`
			Classes    int    `json:"classes"`
		} `json:"datacenters"`
	}
	decode(t, body, &m)
	if m.Endpoints["select"].Requests != 5 {
		t.Errorf("select requests = %d, want 5", m.Endpoints["select"].Requests)
	}
	if m.Endpoints["select"].P99Us == 0 {
		t.Error("select p99 latency missing")
	}
	if m.Endpoints["classes"].Errors != 1 {
		t.Errorf("classes errors = %d, want 1", m.Endpoints["classes"].Errors)
	}
	if m.Datacenters["DC-9"].Generation != 1 || m.Datacenters["DC-9"].Classes == 0 {
		t.Errorf("DC-9 shard stats = %+v", m.Datacenters["DC-9"])
	}
	if m.TotalRequests == 0 {
		t.Error("total_requests = 0")
	}
}

func TestRefreshAdvancesSnapshot(t *testing.T) {
	svc := newTestService(t)
	before, _ := svc.Snapshot("DC-9")
	if err := svc.Refresh("DC-9"); err != nil {
		t.Fatalf("Refresh: %v", err)
	}
	after, _ := svc.Snapshot("DC-9")
	if after == before {
		t.Fatal("Refresh did not publish a new snapshot")
	}
	if after.Generation != before.Generation+1 {
		t.Errorf("generation = %d, want %d", after.Generation, before.Generation+1)
	}
	// Without new telemetry the snapshot's AsOf stays at the ring horizon.
	if after.AsOf != before.AsOf {
		t.Errorf("AsOf moved without ingest: %v -> %v", before.AsOf, after.AsOf)
	}
	// New telemetry advances the horizon, and the next refresh picks it up.
	res, err := svc.Ingest("DC-9", []service.IngestSample{
		{Tenant: before.Clustering.Classes[0].Tenants[0], Server: -1, Value: 0.5},
	})
	if err != nil || res.Accepted != 1 {
		t.Fatalf("Ingest: %+v, %v", res, err)
	}
	if err := svc.Refresh("DC-9"); err != nil {
		t.Fatalf("Refresh: %v", err)
	}
	final, _ := svc.Snapshot("DC-9")
	if final.AsOf <= after.AsOf {
		t.Errorf("AsOf did not advance after ingest: %v -> %v", after.AsOf, final.AsOf)
	}
	// The old snapshot stays fully usable after being superseded.
	if got, _ := before.ClassOfServer(before.Clustering.Classes[0].Servers[0]); got == nil {
		t.Error("superseded snapshot no longer answers queries")
	}
	if err := svc.Refresh("DC-99"); err == nil {
		t.Error("Refresh of unknown DC did not fail")
	}
}

// TestConcurrentReadersAndRefresher is the -race exercise: readers hammer
// every query path (directly and through HTTP) while snapshots are rebuilt
// and swapped underneath them. The refreshes are driven explicitly from a
// goroutine (rather than a short RefreshPeriod) so the test exercises a
// guaranteed number of swaps regardless of how much the race detector slows
// the rebuild down; the ticker-driven path is the same refreshShard call and
// runs in TestBackgroundRefresher.
func TestConcurrentReadersAndRefresher(t *testing.T) {
	cfg := testConfig()
	svc, err := service.New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	srv := httptest.NewServer(service.NewAPI(svc))
	defer srv.Close()

	snap, _ := svc.Snapshot("DC-9")
	probe := snap.Clustering.Classes[0].Servers[0]

	const readers = 4
	errs := make(chan error, readers+1)

	var refresherDone atomic.Bool
	var refreshErr error
	ingestTenant := snap.Clustering.Classes[0].Tenants[0]
	go func() {
		defer refresherDone.Store(true)
		for i := 0; i < 3; i++ {
			if refreshErr = svc.Refresh("DC-9"); refreshErr != nil {
				return
			}
		}
	}()
	// A concurrent ingester hammers the rings while snapshots rebuild from
	// them and readers consume the live usage view — the single-writer /
	// lock-free-reader contract under -race.
	ingesterDone := make(chan struct{})
	go func() {
		defer close(ingesterDone)
		for i := 0; !refresherDone.Load(); i++ {
			_, err := svc.Ingest("DC-9", []service.IngestSample{
				{Tenant: ingestTenant, Server: -1, Value: float64(i%100) / 100},
			})
			if err != nil {
				errs <- err
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			client := &http.Client{}
			for n := 0; !refresherDone.Load(); n++ {
				switch n % 4 {
				case 0:
					sel, _, err := svc.Select("DC-9", core.JobRequest{Type: core.JobMedium, MaxConcurrentCores: 4})
					if err != nil {
						errs <- err
						return
					}
					if sel.Empty() {
						errs <- fmt.Errorf("reader %d: select unsatisfiable", i)
						return
					}
				case 1:
					replicas, _, err := svc.Place("DC-9", core.PlacementConstraints{Replication: 3, Writer: -1, EnforceEnvironment: true})
					if err != nil {
						errs <- err
						return
					}
					if len(replicas) != 3 {
						errs <- fmt.Errorf("reader %d: got %d replicas", i, len(replicas))
						return
					}
				case 2:
					s, _ := svc.Snapshot("DC-9")
					if _, ok := s.ClassOfServer(probe); !ok {
						errs <- fmt.Errorf("reader %d: probe server lost its class", i)
						return
					}
				case 3:
					// A dry run: this test is about concurrency, and selects that
					// reserved and never released would exhaust the datacenter
					// whenever a race-slowed refresh let the readers run long.
					resp, err := client.Post(srv.URL+"/v1/DC-9/select", "application/json",
						bytes.NewReader([]byte(`{"job_type":"short","max_concurrent_cores":2,"dry_run":true}`)))
					if err != nil {
						errs <- err
						return
					}
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						errs <- fmt.Errorf("reader %d: HTTP select status %d", i, resp.StatusCode)
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	<-ingesterDone
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if refreshErr != nil {
		t.Fatalf("refresh: %v", refreshErr)
	}

	st, _ := svc.Stats("DC-9")
	if st.Refreshes != 3 {
		t.Errorf("refreshes = %d, want 3", st.Refreshes)
	}
	if final, _ := svc.Snapshot("DC-9"); final.Generation != 4 {
		t.Errorf("final generation = %d, want 4", final.Generation)
	}
}

// TestBackgroundRefresher checks the ticker-driven path end to end: with a
// short period, Start's goroutine must publish new generations on its own.
func TestBackgroundRefresher(t *testing.T) {
	cfg := testConfig()
	cfg.RefreshPeriod = 2 * time.Millisecond
	svc, err := service.New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	svc.Start()
	defer svc.Close()

	deadline := time.Now().Add(30 * time.Second)
	for {
		st, _ := svc.Stats("DC-9")
		if st.Refreshes > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background refresher published nothing in 30s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestSnapshotPlaceMatchesSchemeSemantics(t *testing.T) {
	svc := newTestService(t)
	snap, _ := svc.Snapshot("DC-9")
	// Many placements through the pooled placers: all replicas must be
	// distinct, known servers.
	for i := 0; i < 200; i++ {
		replicas, _, err := svc.Place("DC-9", core.PlacementConstraints{Replication: 3, Writer: -1, EnforceEnvironment: true})
		if err != nil {
			t.Fatalf("Place: %v", err)
		}
		seen := map[tenant.ServerID]bool{}
		for _, r := range replicas {
			if seen[r] {
				t.Fatalf("duplicate replica %d in %v", r, replicas)
			}
			seen[r] = true
			if _, ok := snap.Scheme().TenantOfServer(r); !ok {
				t.Fatalf("replica %d not a known server", r)
			}
		}
	}
}

// TestTelemetryIngestChangesSnapshot is the end-to-end exercise of the live
// data path: telemetry POSTed to the API lands in the rings, and the next
// snapshot's usage view observably reflects it.
func TestTelemetryIngestChangesSnapshot(t *testing.T) {
	svc := newTestService(t)
	srv := httptest.NewServer(service.NewAPI(svc))
	defer srv.Close()

	snap, _ := svc.Snapshot("DC-9")
	target := snap.Clustering.Classes[0]
	before := snap.Usage[target.ID].CurrentUtilization

	// Drive every tenant of the target class to (nearly) full utilization
	// for a few slots via the HTTP endpoint.
	var body bytes.Buffer
	body.WriteString(`{"samples":[`)
	n := 0
	for slot := 0; slot < 3; slot++ {
		for _, tid := range target.Tenants {
			if n > 0 {
				body.WriteString(",")
			}
			fmt.Fprintf(&body, `{"tenant":%d,"utilization":0.97}`, tid)
			n++
		}
	}
	body.WriteString(`]}`)
	resp, respBody := postJSON(t, srv.URL+"/v1/DC-9/telemetry", body.String())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("telemetry status = %d, body %s", resp.StatusCode, respBody)
	}
	var tr struct {
		Accepted       int     `json:"accepted"`
		Rejected       int     `json:"rejected"`
		HorizonSeconds float64 `json:"horizon_seconds"`
	}
	decode(t, respBody, &tr)
	if tr.Accepted != n || tr.Rejected != 0 {
		t.Fatalf("accepted/rejected = %d/%d, want %d/0", tr.Accepted, tr.Rejected, n)
	}
	if tr.HorizonSeconds <= snap.AsOf.Seconds() {
		t.Errorf("horizon %.0fs did not advance past AsOf %.0fs", tr.HorizonSeconds, snap.AsOf.Seconds())
	}

	if err := svc.Refresh("DC-9"); err != nil {
		t.Fatalf("Refresh: %v", err)
	}
	after, _ := svc.Snapshot("DC-9")
	// The target tenants may have been re-classed by the refresh; check the
	// class now holding the first target tenant.
	cid, ok := after.Clustering.ClassOfTenant(target.Tenants[0])
	if !ok {
		t.Fatal("target tenant lost its class")
	}
	got := after.Usage[cid].CurrentUtilization
	if got <= before || got < 0.9 {
		t.Errorf("posted telemetry did not move the usage view: before %.3f, after %.3f (want >= 0.9)", before, got)
	}
	if after.AsOf.Seconds() != tr.HorizonSeconds {
		t.Errorf("snapshot AsOf = %.0fs, want ingest horizon %.0fs", after.AsOf.Seconds(), tr.HorizonSeconds)
	}

	// Validation paths.
	if resp, _ := postJSON(t, srv.URL+"/v1/DC-99/telemetry", `{"samples":[{"tenant":0,"utilization":0.5}]}`); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown DC telemetry status = %d, want 404", resp.StatusCode)
	}
	if resp, _ := postJSON(t, srv.URL+"/v1/DC-9/telemetry", `{"samples":[]}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty telemetry status = %d, want 400", resp.StatusCode)
	}
	if resp, _ := postJSON(t, srv.URL+"/v1/DC-9/telemetry", `not json`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad telemetry body status = %d, want 400", resp.StatusCode)
	}
	// Unknown tenants, absent or ambiguous subjects, absurd offsets, and
	// backdated offsets are rejected per sample, not per call.
	srvOfOther := after.Clustering.Classes[0].Servers[0]
	resp, respBody = postJSON(t, srv.URL+"/v1/DC-9/telemetry", fmt.Sprintf(
		`{"samples":[{"tenant":999999,"utilization":0.5},{"utilization":0.5},{"tenant":0,"at_seconds":1e300,"utilization":0.5},{"tenant":0,"server":%d,"utilization":0.5},{"tenant":0,"at_seconds":1,"utilization":0.5},{"tenant":0,"utilization":0.5}]}`,
		srvOfOther))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mixed telemetry status = %d", resp.StatusCode)
	}
	decode(t, respBody, &tr)
	if tr.Accepted != 1 || tr.Rejected != 5 {
		t.Errorf("mixed accepted/rejected = %d/%d, want 1/5", tr.Accepted, tr.Rejected)
	}
}

// TestLiveUsageBetweenRefreshes pins the CurrentUtilization contract: the
// usage view queries run against updates from ring samples without waiting
// for a refresh, while the snapshot's frozen view stays put.
func TestLiveUsageBetweenRefreshes(t *testing.T) {
	svc := newTestService(t)
	srv := httptest.NewServer(service.NewAPI(svc))
	defer srv.Close()

	snap, _ := svc.Snapshot("DC-9")
	target := snap.Clustering.Classes[0]
	before := snap.Usage[target.ID].CurrentUtilization

	samples := make([]service.IngestSample, 0, len(target.Tenants))
	for _, tid := range target.Tenants {
		samples = append(samples, service.IngestSample{Tenant: tid, Server: -1, Value: 0.99})
	}
	if res, err := svc.Ingest("DC-9", samples); err != nil || res.Accepted != len(samples) {
		t.Fatalf("Ingest: %+v, %v", res, err)
	}

	// Same snapshot generation, no refresh — but the live view moved.
	live := svc.UsageFor(snap)
	if got := live[target.ID].CurrentUtilization; got < 0.98 {
		t.Errorf("live usage = %.3f, want ~0.99", got)
	}
	if snap.Usage[target.ID].CurrentUtilization != before {
		t.Error("snapshot's frozen usage view mutated")
	}

	// The classes endpoint serves the live view.
	_, body := get(t, srv.URL+"/v1/DC-9/classes")
	var classes struct {
		Generation uint64 `json:"generation"`
		Classes    []struct {
			ID                 int     `json:"id"`
			CurrentUtilization float64 `json:"current_utilization"`
		} `json:"classes"`
	}
	decode(t, body, &classes)
	if classes.Generation != snap.Generation {
		t.Fatalf("generation = %d, want %d (no refresh happened)", classes.Generation, snap.Generation)
	}
	found := false
	for _, c := range classes.Classes {
		if c.ID == int(target.ID) {
			found = true
			if c.CurrentUtilization < 0.98 {
				t.Errorf("classes endpoint current_utilization = %.3f, want ~0.99", c.CurrentUtilization)
			}
		}
	}
	if !found {
		t.Fatalf("class %d missing from classes response", target.ID)
	}

	// A server-addressed sample reaches the owning tenant's ring and
	// invalidates the cached live view.
	srvID := target.Servers[0]
	if res, err := svc.Ingest("DC-9", []service.IngestSample{{Tenant: -1, Server: srvID, Value: 0.01}}); err != nil || res.Accepted != 1 {
		t.Fatalf("server-addressed ingest: %+v, %v", res, err)
	}
	moved := svc.UsageFor(snap)[target.ID].CurrentUtilization
	if moved >= 0.99 {
		t.Errorf("server-addressed sample did not move the live view (still %.3f)", moved)
	}
}

// TestWarmAndFullRefreshCounters pins the refresh cadence contract: warm
// refreshes by default, a from-scratch rebuild every FullRebuildEvery-th.
func TestWarmAndFullRefreshCounters(t *testing.T) {
	cfg := testConfig()
	cfg.FullRebuildEvery = 3
	svc, err := service.New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := svc.Refresh("DC-9"); err != nil {
			t.Fatalf("Refresh %d: %v", i, err)
		}
	}
	st, _ := svc.Stats("DC-9")
	if st.Refreshes != 3 {
		t.Fatalf("refreshes = %d, want 3", st.Refreshes)
	}
	if st.WarmRefreshes != 2 || st.FullRebuilds != 1 {
		t.Errorf("warm/full = %d/%d, want 2/1", st.WarmRefreshes, st.FullRebuilds)
	}
}

// TestBootAllocationBudget holds what a node allocates before it can answer —
// building DC-9 at the benchmark's scale (126 tenants, a month of samples
// each) — to a byte count, which repeats where seconds do not. 554 MB when
// every classification padded its window to 65,536 complex points; under
// 90 MB of trace series, rings and spectra since.
func TestBootAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	cfg := testConfig()
	cfg.Scale.Datacenter = 0.3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	svc, err := service.New(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer svc.Close()
	const budget = 200 << 20
	got := after.TotalAlloc - before.TotalAlloc
	if got > budget {
		t.Errorf("boot allocated %d MB, budget %d MB", got>>20, budget>>20)
	}
	t.Logf("boot allocated %.1f MB", float64(got)/(1<<20))
}

// TestSnapshotPersistence exercises the restore path: a service built over
// the same PersistDir resumes from the persisted generation with the same
// classes instead of re-clustering from scratch.
func TestSnapshotPersistence(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.PersistDir = dir

	svc, err := service.New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Ingest past the bootstrap horizon so the persisted AsOf is ahead of
	// what a restarted daemon's re-seeded rings hold.
	boot, _ := svc.Snapshot("DC-9")
	if res, err := svc.Ingest("DC-9", []service.IngestSample{
		{Tenant: boot.Clustering.Classes[0].Tenants[0], Server: -1, Value: 0.5},
	}); err != nil || res.Accepted != 1 {
		t.Fatalf("Ingest: %+v, %v", res, err)
	}
	if err := svc.Refresh("DC-9"); err != nil {
		t.Fatalf("Refresh: %v", err)
	}
	first, _ := svc.Snapshot("DC-9")
	if first.Generation != 2 {
		t.Fatalf("generation = %d, want 2", first.Generation)
	}
	if first.AsOf <= boot.AsOf {
		t.Fatalf("AsOf did not advance past the bootstrap horizon")
	}

	// "Restart": a new service over the same directory.
	svc2, err := service.New(cfg)
	if err != nil {
		t.Fatalf("restart New: %v", err)
	}
	restored, _ := svc2.Snapshot("DC-9")
	if restored.Generation != first.Generation {
		t.Errorf("restored generation = %d, want %d", restored.Generation, first.Generation)
	}
	if len(restored.Clustering.Classes) != len(first.Clustering.Classes) {
		t.Fatalf("restored %d classes, want %d", len(restored.Clustering.Classes), len(first.Clustering.Classes))
	}
	for i, cls := range first.Clustering.Classes {
		rc := restored.Clustering.Classes[i]
		if rc.ID != cls.ID || rc.Pattern != cls.Pattern || len(rc.Tenants) != len(cls.Tenants) || len(rc.Servers) != len(cls.Servers) {
			t.Errorf("class %d mismatch after restore", cls.ID)
		}
	}
	// The restored snapshot answers queries and keeps refreshing.
	if sel, _, err := svc2.Select("DC-9", core.JobRequest{Type: core.JobMedium, MaxConcurrentCores: 4}); err != nil || sel.Empty() {
		t.Errorf("restored service select failed: %v %+v", err, sel)
	}
	if err := svc2.Refresh("DC-9"); err != nil {
		t.Fatalf("restored Refresh: %v", err)
	}
	next, _ := svc2.Snapshot("DC-9")
	if next.Generation != first.Generation+1 {
		t.Errorf("post-restore generation = %d, want %d", next.Generation, first.Generation+1)
	}
	// AsOf stays monotonic across the restart even though the re-seeded
	// rings only hold the bootstrap window: the restore pulls the telemetry
	// clock up to the persisted AsOf.
	if next.AsOf < first.AsOf {
		t.Errorf("AsOf regressed across restart: %v -> %v", first.AsOf, next.AsOf)
	}

	// A fingerprint mismatch (different seed) discards the file and boots
	// from scratch at generation 1.
	cfg3 := cfg
	cfg3.Scale.Seed = 99
	svc3, err := service.New(cfg3)
	if err != nil {
		t.Fatalf("mismatched New: %v", err)
	}
	fresh, _ := svc3.Snapshot("DC-9")
	if fresh.Generation != 1 {
		t.Errorf("mismatched-seed generation = %d, want 1 (file must be discarded)", fresh.Generation)
	}

	// A corrupt file is ignored, not fatal.
	path := dir + "/DC-9.snapshot.json"
	if err := os.WriteFile(path, []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	svc4, err := service.New(cfg)
	if err != nil {
		t.Fatalf("corrupt-file New: %v", err)
	}
	if snap, _ := svc4.Snapshot("DC-9"); snap.Generation != 1 {
		t.Errorf("corrupt-file generation = %d, want 1", snap.Generation)
	}
}

func TestHistogram(t *testing.T) {
	var h obs.Histogram
	for i := 0; i < 1000; i++ {
		h.Observe(10 * time.Microsecond)
	}
	h.Observe(5 * time.Millisecond)
	if got := h.Count(); got != 1001 {
		t.Errorf("count = %d, want 1001", got)
	}
	if p50 := h.QuantileMicros(0.50); p50 > 16 {
		t.Errorf("p50 = %dµs, want <= 16µs bucket", p50)
	}
	if p100 := h.QuantileMicros(1); p100 < 4096 {
		t.Errorf("p100 = %dµs, want the 5ms outlier's bucket", p100)
	}
	if max := h.MaxMicros(); max != 5000 {
		t.Errorf("max = %dµs, want 5000", max)
	}

	var other obs.Histogram
	other.Observe(20 * time.Millisecond)
	h.Merge(&other)
	if got := h.Count(); got != 1002 {
		t.Errorf("merged count = %d, want 1002", got)
	}
	if max := h.MaxMicros(); max != 20000 {
		t.Errorf("merged max = %dµs, want 20000", max)
	}
}
