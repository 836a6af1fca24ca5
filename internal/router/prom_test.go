package router_test

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"harvest/internal/obs"
	"harvest/internal/router"
	"harvest/internal/wire"
)

func TestRouterPrometheusExposition(t *testing.T) {
	rt, srv := newTestRouter(t, nil)
	binFront := startRouterBinary(t, rt)

	fb := newFakeBackend(t)
	mustRegister(t, srv.URL, router.RegisterRequest{
		ID: "node-a", URL: fb.srv.URL, BinaryAddr: startEchoBackend(t).addr(),
		Datacenters: []router.RegisterDatacenter{{Name: "DC-1", Generation: 1}},
	})

	// One proxied JSON request and one relayed binary request so the
	// counters and per-op histograms are live.
	if resp, _ := getBody(t, srv.URL+"/v1/DC-1/classes"); resp.StatusCode != http.StatusOK {
		t.Fatalf("proxy warmup: status %d", resp.StatusCode)
	}
	c := dialBin(t, binFront)
	if h, _ := c.roundTrip(wire.AppendClassesReq(nil, 5, "DC-1")); h.Op != wire.OpClassesResp {
		t.Fatalf("binary warmup: op %v", h.Op)
	}

	// The default /metrics stays JSON.
	resp, _ := getBody(t, srv.URL+"/metrics")
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("/metrics Content-Type = %q, want JSON", ct)
	}

	resp, body := getBody(t, srv.URL+"/metrics?format=prometheus")
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
	rt, srv := newTestRouter(t, nil)
	binFront := startRouterBinary(t, rt)

	fb := newFakeBackend(t)
	mustRegister(t, srv.URL, router.RegisterRequest{
		ID: "node-a", URL: fb.srv.URL, BinaryAddr: startEchoBackend(t).addr(),
		Datacenters: []router.RegisterDatacenter{{Name: "DC-1", Generation: 1}},
	})
	c := dialBin(t, binFront)
	if h, _ := c.roundTrip(wire.AppendClassesReq(nil, 6, "DC-1")); h.Op != wire.OpClassesResp {
		t.Fatalf("classes: op %v", h.Op)
	}
	// A frame for an unowned datacenter is a per-op error, not a transport
	// failure.
	if h, _ := c.roundTrip(wire.AppendClassesReq(nil, 7, "DC-0")); h.Op != wire.OpError {
		t.Fatalf("unknown dc: op %v", h.Op)
	}

	resp, body := getBody(t, srv.URL+"/metrics")
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
