package service_test

import (
	"encoding/json"
	"maps"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"harvest/internal/core"
	"harvest/internal/service"
)

// scrapedNode boots the benchmark's dataset, DC-9 at scale 0.3, with blocks
// created and a binary listener attached, and returns its API.
func scrapedNode(tb testing.TB, blocks int) *service.API {
	tb.Helper()
	cfg := testConfig()
	cfg.Scale.Datacenter = 0.3
	svc, err := service.New(cfg)
	if err != nil {
		tb.Fatalf("New: %v", err)
	}
	tb.Cleanup(svc.Close)
	for i := 0; i < blocks; i++ {
		if _, err := svc.CreateBlock("DC-9", core.PlacementConstraints{Replication: 3, Writer: -1}); err != nil {
			tb.Fatalf("block %d: %v", i, err)
		}
	}
	api := service.NewAPI(svc)
	api.AttachBinary(service.NewBinaryServer(svc), "127.0.0.1:7078")
	return api
}

// scrape answers GET path through API.ServeHTTP into a discarding writer.
func scrape(tb testing.TB, api *service.API, path string) func() {
	req, err := http.NewRequest(http.MethodGet, "http://harvestd"+path, nil)
	if err != nil {
		tb.Fatal(err)
	}
	w := &discardWriter{h: http.Header{}}
	return func() {
		clear(w.h)
		w.status = http.StatusOK
		api.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			tb.Fatalf("GET %s answered %d", path, w.status)
		}
	}
}

// TestMetricsScrapeAllocs is /metrics' object budget (DESIGN.md "Metrics"):
// both formats render through their type's plan into pooled buffers from a
// response the request's pooled state keeps, so a warm scrape costs what
// /healthz costs through the same call — net/http's Content-Length.
func TestMetricsScrapeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	api := scrapedNode(t, 3000)
	for _, path := range []string{"/healthz", "/metrics", "/metrics?format=prometheus"} {
		serve := scrape(t, api, path)
		serve()
		if got := testing.AllocsPerRun(50, serve); got > 2 {
			t.Errorf("GET %s: %v allocs per scrape, budget 2", path, got)
		}
	}
}

// BenchmarkMetricsScrape prices a warm scrape of each format at the
// benchmark's scale with 30,000 blocks.
func BenchmarkMetricsScrape(b *testing.B) {
	api := scrapedNode(b, 30000)
	for _, c := range []struct{ name, path string }{
		{"json", "/metrics"},
		{"prometheus", "/metrics?format=prometheus"},
	} {
		b.Run(c.name, func(b *testing.B) {
			serve := scrape(b, api, c.path)
			b.ReportAllocs()
			for b.Loop() {
				serve()
			}
		})
	}
}

// TestMetricsScrapesKeepToTheirNode scrapes two nodes of one process in turn:
// the storage a scrape refills never carries one node's books into the
// other's.
func TestMetricsScrapesKeepToTheirNode(t *testing.T) {
	var apis []*service.API
	for _, dc := range []string{"DC-3", "DC-9"} {
		cfg := testConfig()
		cfg.Datacenters = []string{dc}
		svc, err := service.New(cfg)
		if err != nil {
			t.Fatalf("New %s: %v", dc, err)
		}
		t.Cleanup(svc.Close)
		apis = append(apis, service.NewAPI(svc))
	}
	for i := 0; i < 3; i++ {
		for j, api := range apis {
			w := httptest.NewRecorder()
			api.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
			var doc struct{ Datacenters map[string]json.RawMessage }
			if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
				t.Fatal(err)
			}
			want := []string{"DC-3", "DC-9"}[j]
			if _, ok := doc.Datacenters[want]; !ok || len(doc.Datacenters) != 1 {
				t.Fatalf("scrape %d of the %s node lists %v", i, want, slices.Collect(maps.Keys(doc.Datacenters)))
			}
		}
	}
}
