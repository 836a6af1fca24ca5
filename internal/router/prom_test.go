package router_test

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"harvest/internal/fleettest"
	"harvest/internal/obs"
	"harvest/internal/regproto"
	"harvest/internal/router"
	"harvest/internal/wire"
)

func TestRouterPrometheusExposition(t *testing.T) {
	rt := fleettest.StartRouter(t, router.Config{StaleAfter: time.Minute})

	fb := newFakeBackend(t)
	mustRegister(t, rt.URL, regproto.RegisterRequest{
		ID: "node-a", URL: fb.srv.URL, BinaryAddr: startEchoBackend(t).addr(),
		Datacenters: []wire.ReplDCGen{{DC: "DC-1", Generation: 1}},
	})

	// One proxied JSON request and one relayed binary request so the
	// counters and per-op histograms are live.
	if resp, _ := getBody(t, rt.URL+"/v1/DC-1/classes"); resp.StatusCode != http.StatusOK {
		t.Fatalf("proxy warmup: status %d", resp.StatusCode)
	}
	c := dialBin(t, rt.BinaryAddr)
	if h, _ := c.roundTrip(wire.AppendClassesReq(nil, 5, "DC-1")); h.Op != wire.OpClassesResp {
		t.Fatalf("binary warmup: op %v", h.Op)
	}

	// The default /metrics stays JSON.
	resp, _ := getBody(t, rt.URL+"/metrics")
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("/metrics Content-Type = %q, want JSON", ct)
	}

	resp, body := getBody(t, rt.URL+"/metrics?format=prometheus")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prometheus metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.PromContentType {
		t.Fatalf("prometheus Content-Type = %q", ct)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE harvestrouter_proxied_total counter",
		// Two: the JSON proxy leg and the relayed binary frame both count.
		"harvestrouter_proxied_total 2",
		`harvestrouter_backend_up{backend="node-a"} 1`,
		`harvestrouter_backend_proxied_total{backend="node-a"}`,
		"# TYPE harvestrouter_binary_op_latency_microseconds histogram",
		`harvestrouter_binary_op_latency_microseconds_bucket{op="classes",le="+Inf"} 1`,
		`harvestrouter_binary_op_requests_total{op="classes"} 1`,
		"harvestrouter_binary_forwarded_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("router exposition missing %q:\n%s", want, text)
		}
	}
}

// TestRouterBinaryOpStatsJSON pins the per-op rollup on the JSON /metrics
// shape: the binary front reports request/error counts and latency quantiles
// per opcode.
func TestRouterBinaryOpStatsJSON(t *testing.T) {
	rt := fleettest.StartRouter(t, router.Config{StaleAfter: time.Minute})

	fb := newFakeBackend(t)
	mustRegister(t, rt.URL, regproto.RegisterRequest{
		ID: "node-a", URL: fb.srv.URL, BinaryAddr: startEchoBackend(t).addr(),
		Datacenters: []wire.ReplDCGen{{DC: "DC-1", Generation: 1}},
	})
	c := dialBin(t, rt.BinaryAddr)
	if h, _ := c.roundTrip(wire.AppendClassesReq(nil, 6, "DC-1")); h.Op != wire.OpClassesResp {
		t.Fatalf("classes: op %v", h.Op)
	}
	// A frame for an unowned datacenter is a per-op error, not a transport
	// failure.
	if h, _ := c.roundTrip(wire.AppendClassesReq(nil, 7, "DC-0")); h.Op != wire.OpError {
		t.Fatalf("unknown dc: op %v", h.Op)
	}

	resp, body := getBody(t, rt.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	text := string(body)
	if !strings.Contains(text, `"ops"`) {
		t.Fatalf("/metrics missing binary op rollup: %s", text)
	}
	var stats struct {
		Router struct {
			Binary struct {
				Ops map[string]struct {
					Requests uint64 `json:"requests"`
					Errors   uint64 `json:"errors"`
					P99Us    uint64 `json:"p99_us"`
				} `json:"ops"`
			} `json:"binary"`
		} `json:"router"`
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatalf("unmarshal /metrics: %v", err)
	}
	op := stats.Router.Binary.Ops["classes"]
	if op.Requests != 2 || op.Errors != 1 || op.P99Us == 0 {
		t.Fatalf("classes op stats = %+v, want 2 requests / 1 error / nonzero p99", op)
	}
}

// discardWriter is a ResponseWriter that keeps one header map across runs.
type discardWriter struct {
	h      http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }

// scrapedRouter starts a router with two registered backends and returns a
// Prometheus scrape of it through ServeHTTP into a discarding writer.
func scrapedRouter(tb testing.TB) func() {
	rt := fleettest.StartRouter(tb, router.Config{StaleAfter: time.Minute})
	for _, id := range []string{"node-a", "node-b"} {
		c, err := regproto.Dial(rt.URL, "", 5*time.Second)
		if err != nil {
			tb.Fatalf("register %s: %v", id, err)
		}
		var ack regproto.RegisterResponse
		req := regproto.RegisterRequest{ID: id, URL: "http://" + id + ".invalid", BinaryAddr: rt.BinaryAddr,
			Datacenters: []wire.ReplDCGen{{DC: "DC-" + id, Generation: 1}}}
		if err := c.Beat(&req, &ack); err != nil {
			tb.Fatalf("register %s: %v", id, err)
		}
		c.Close()
	}
	req, err := http.NewRequest(http.MethodGet, "http://harvestrouter/metrics?format=prometheus", nil)
	if err != nil {
		tb.Fatal(err)
	}
	w := &discardWriter{h: http.Header{}}
	return func() {
		clear(w.h)
		w.status = http.StatusOK
		rt.Router.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			tb.Fatalf("scrape answered %d", w.status)
		}
	}
}

// TestMetricsScrapeAllocs is the router's /metrics object budget: a warm
// Prometheus scrape renders through its plan into pooled buffers from a
// pooled response, costing net/http's Content-Length and nothing more.
func TestMetricsScrapeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	serve := scrapedRouter(t)
	serve()
	if got := testing.AllocsPerRun(50, serve); got > 2 {
		t.Errorf("%v allocs per scrape, budget 2", got)
	}
}

func BenchmarkRouterMetricsScrape(b *testing.B) {
	serve := scrapedRouter(b)
	b.ReportAllocs()
	for b.Loop() {
		serve()
	}
}
