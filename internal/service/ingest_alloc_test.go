package service_test

import (
	"bytes"
	"fmt"
	"net/http"
	"slices"
	"testing"
	"time"

	"harvest/internal/core"
	"harvest/internal/service"
	"harvest/internal/tenant"
	"harvest/internal/timeseries"
)

// newSlotService boots the benchmark's dataset, DC-9 at scale 0.3, where a
// telemetry slot is 126 samples.
func newSlotService(t *testing.T) *service.Service {
	t.Helper()
	cfg := testConfig()
	cfg.Scale.Datacenter = 0.3
	svc, err := service.New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return svc
}

// slotTenants lists every tenant of DC-9's clustering, in id order: what one
// telemetry slot reports on.
func slotTenants(t *testing.T, svc *service.Service) []tenant.ID {
	t.Helper()
	snap, ok := svc.Snapshot("DC-9")
	if !ok {
		t.Fatal("no DC-9 snapshot")
	}
	var ids []tenant.ID
	for _, cls := range snap.Clustering.Classes {
		ids = append(ids, cls.Tenants...)
	}
	slices.Sort(ids)
	return ids
}

// slotBody renders one on-grid telemetry slot the way the emitters do: every
// tenant's utilization at one offset on the 2-minute grid.
func slotBody(ids []tenant.ID, at time.Duration) []byte {
	var b bytes.Buffer
	b.WriteString(`{"samples":[`)
	for i, id := range ids {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"tenant":%d,"at_seconds":%d,"utilization":%.4f}`, id, int64(at.Seconds()), 0.1+0.8*float64(i%7)/7)
	}
	b.WriteString(`]}`)
	return b.Bytes()
}

// replayBody is a request body the test rewinds onto the next slot between
// runs, so a request costs what the server allocates and nothing of its own.
type replayBody struct{ bytes.Reader }

func (*replayBody) Close() error { return nil }

// discardWriter is a ResponseWriter that keeps one header map across runs.
type discardWriter struct {
	h      http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }

// TestTelemetryIngestAllocs is the JSON history feeds' object budget (DESIGN.md
// "Hot paths"): a 126-sample slot through API.ServeHTTP is scanned off the
// body's bytes into samples the request's pooled state lends, so it costs
// about what routing, the trace header and the reply cost — not an object per
// sample. A reimaging event goes through the same scanner.
func TestTelemetryIngestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	svc := newSlotService(t)
	defer svc.Close()
	api := service.NewAPI(svc)
	ids := slotTenants(t, svc)
	snap, _ := svc.Snapshot("DC-9")

	const runs = 50
	var bodies [][]byte
	for i := 1; i <= runs+2; i++ {
		bodies = append(bodies, slotBody(ids, snap.AsOf+time.Duration(i)*timeseries.SlotDuration))
	}
	servers, _, err := svc.Place("DC-9", core.PlacementConstraints{Replication: 1, Writer: -1})
	if err != nil {
		t.Fatal(err)
	}
	reimage := []byte(fmt.Sprintf(`{"server":%d}`, servers[0]))

	var body replayBody
	w := &discardWriter{h: http.Header{}}
	post := func(path string) *http.Request {
		req, err := http.NewRequest(http.MethodPost, "http://harvestd"+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Body = &body
		return req
	}
	serve := func(req *http.Request, b []byte) {
		body.Reset(b)
		req.ContentLength = int64(len(b))
		clear(w.h)
		w.status = http.StatusOK
		api.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			t.Fatalf("%s answered %d", req.URL.Path, w.status)
		}
	}

	budgets := []struct {
		name string
		req  *http.Request
		max  float64
		next func() []byte
	}{
		{fmt.Sprintf("telemetry slot of %d samples", len(ids)), post("/v1/DC-9/telemetry"), 8, func() []byte {
			b := bodies[0]
			bodies = bodies[1:]
			return b
		}},
		{"reimage", post("/v1/DC-9/reimage"), 5, func() []byte { return reimage }},
	}
	for _, b := range budgets {
		serve(b.req, b.next()) // warms the pooled state for this shape of body
		got := testing.AllocsPerRun(runs, func() { serve(b.req, b.next()) })
		if got > b.max {
			t.Errorf("%s: %v allocs per request, budget %v", b.name, got, b.max)
		}
	}
	st, _ := svc.Stats("DC-9")
	if want := uint64((runs + 2) * len(ids)); st.IngestedSamples != want {
		t.Errorf("ingested %d samples, want %d: a slot was rejected", st.IngestedSamples, want)
	}
}

// TestStaleSlotIngestAllocs pins what a retried slot costs Ingest: every
// sample is rejected as not newer than its tenant's latest, counted, and
// rejecting them allocates nothing.
func TestStaleSlotIngestAllocs(t *testing.T) {
	svc := newSlotService(t)
	defer svc.Close()
	ids := slotTenants(t, svc)
	snap, _ := svc.Snapshot("DC-9")
	slot := make([]service.IngestSample, len(ids))
	for i, id := range ids {
		slot[i] = service.IngestSample{Tenant: id, Server: -1, At: snap.AsOf + timeseries.SlotDuration, Value: 0.5}
	}
	if res, err := svc.Ingest("DC-9", slot); err != nil || res.Accepted != len(ids) {
		t.Fatalf("first delivery: %+v, %v", res, err)
	}
	var res service.IngestResult
	allocs := testing.AllocsPerRun(50, func() {
		var err error
		if res, err = svc.Ingest("DC-9", slot); err != nil {
			t.Fatal(err)
		}
	})
	if res.Rejected != len(ids) || res.Accepted != 0 {
		t.Errorf("retried slot: accepted %d, rejected %d, want 0, %d", res.Accepted, res.Rejected, len(ids))
	}
	if allocs != 0 && !raceEnabled {
		t.Errorf("retried slot of %d samples: %v allocs, want 0", len(ids), allocs)
	}
}
