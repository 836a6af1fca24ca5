package router_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"harvest/internal/fleettest"
	"harvest/internal/regproto"
	"harvest/internal/router"
	"harvest/internal/wire"
)

// fakeBackend records the requests a router forwards to it and answers with a
// canned body.
type fakeBackend struct {
	srv      *httptest.Server
	mu       sync.Mutex
	requests []string // "METHOD path" of each proxied request
	bodies   [][]byte
	headers  []http.Header
	status   atomic.Int32
	reply    atomic.Pointer[string]
}

func newFakeBackend(t *testing.T) *fakeBackend {
	t.Helper()
	fb := &fakeBackend{}
	fb.status.Store(http.StatusOK)
	reply := `{"ok":true}`
	fb.reply.Store(&reply)
	fb.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var buf bytes.Buffer
		buf.ReadFrom(r.Body)
		fb.mu.Lock()
		fb.requests = append(fb.requests, r.Method+" "+r.URL.RequestURI())
		fb.bodies = append(fb.bodies, append([]byte(nil), buf.Bytes()...))
		fb.headers = append(fb.headers, r.Header.Clone())
		fb.mu.Unlock()
		body := *fb.reply.Load()
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", fmt.Sprint(len(body)))
		w.WriteHeader(int(fb.status.Load()))
		w.Write([]byte(body))
	}))
	t.Cleanup(fb.srv.Close)
	return fb
}

func (fb *fakeBackend) seen() []string {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	return append([]string(nil), fb.requests...)
}

// registerAck registers req the way a node does — one beat on a fresh
// upgraded connection — and returns the router's ack and 200, or the status
// the router refused the beat with.
func registerAck(t *testing.T, routerURL string, req regproto.RegisterRequest) (regproto.RegisterResponse, int) {
	t.Helper()
	c, err := regproto.Dial(routerURL, "", 5*time.Second)
	if err != nil {
		t.Fatalf("register %s: %v", req.ID, err)
	}
	defer c.Close()
	var ack regproto.RegisterResponse
	var refused *regproto.RefusedError
	switch err := c.Beat(&req, &ack); {
	case err == nil:
		return ack, http.StatusOK
	case errors.As(err, &refused):
		return ack, refused.Status
	default:
		t.Fatalf("register %s: %v", req.ID, err)
		return ack, 0
	}
}

func register(t *testing.T, routerURL string, req regproto.RegisterRequest) int {
	t.Helper()
	_, status := registerAck(t, routerURL, req)
	return status
}

func mustRegister(t *testing.T, routerURL string, req regproto.RegisterRequest) {
	t.Helper()
	if status := register(t, routerURL, req); status != http.StatusOK {
		t.Fatalf("register %s: status %d, want 200", req.ID, status)
	}
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
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

func datacentersOf(t *testing.T, routerURL string) []string {
	t.Helper()
	resp, body := getBody(t, routerURL+"/v1/datacenters")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/datacenters: status %d", resp.StatusCode)
	}
	var dcl struct {
		Datacenters []string `json:"datacenters"`
	}
	if err := json.Unmarshal(body, &dcl); err != nil {
		t.Fatalf("unmarshal %q: %v", body, err)
	}
	return dcl.Datacenters
}

func newTestRouter(t *testing.T, clock *fleettest.Clock) (*router.Router, *httptest.Server) {
	t.Helper()
	cfg := router.Config{StaleAfter: time.Minute}
	if clock != nil {
		cfg.Clock = clock
	}
	rt := router.New(cfg)
	srv := httptest.NewServer(rt)
	t.Cleanup(srv.Close)
	return rt, srv
}

func TestProxyRoutesToOwningBackend(t *testing.T) {
	a, b := newFakeBackend(t), newFakeBackend(t)
	_, srv := newTestRouter(t, nil)
	mustRegister(t, srv.URL, regproto.RegisterRequest{
		ID: "node-a", URL: a.srv.URL,
		Datacenters: []wire.ReplDCGen{{DC: "DC-A", Generation: 3}},
	})
	mustRegister(t, srv.URL, regproto.RegisterRequest{
		ID: "node-b", URL: b.srv.URL,
		Datacenters: []wire.ReplDCGen{{DC: "DC-B", Generation: 7}},
	})

	resp, body := getBody(t, srv.URL+"/v1/DC-A/classes")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("proxied GET: status %d", resp.StatusCode)
	}
	if string(body) != `{"ok":true}` {
		t.Errorf("proxied body = %q, want the backend's reply", body)
	}
	if resp.Header.Get("Content-Type") != "application/json" {
		t.Errorf("Content-Type not relayed: %q", resp.Header.Get("Content-Type"))
	}
	if got := a.seen(); len(got) != 1 || got[0] != "GET /v1/DC-A/classes" {
		t.Errorf("backend A saw %v, want [GET /v1/DC-A/classes]", got)
	}
	if got := b.seen(); len(got) != 0 {
		t.Errorf("backend B saw %v, want nothing", got)
	}

	// POST bodies and headers travel through untouched.
	req, _ := http.NewRequest("POST", srv.URL+"/v1/DC-B/select", strings.NewReader(`{"max_concurrent_cores":4}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Authorization", "Bearer sekrit")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp2.Body.Close()
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.requests) != 1 || b.requests[0] != "POST /v1/DC-B/select" {
		t.Fatalf("backend B saw %v, want [POST /v1/DC-B/select]", b.requests)
	}
	if string(b.bodies[0]) != `{"max_concurrent_cores":4}` {
		t.Errorf("forwarded body = %q", b.bodies[0])
	}
	if b.headers[0].Get("Authorization") != "Bearer sekrit" {
		t.Errorf("Authorization header not forwarded: %q", b.headers[0].Get("Authorization"))
	}
	if b.headers[0].Get("X-Forwarded-For") == "" {
		t.Errorf("X-Forwarded-For not set")
	}
}

// TestProxyForwardsEscapedPathVerbatim pins that percent-encoded bytes in
// the client's path reach the backend still encoded: a decoded '?' or '#'
// would silently change which resource the backend sees.
func TestProxyForwardsEscapedPathVerbatim(t *testing.T) {
	a := newFakeBackend(t)
	_, srv := newTestRouter(t, nil)
	mustRegister(t, srv.URL, regproto.RegisterRequest{
		ID: "node-a", URL: a.srv.URL,
		Datacenters: []wire.ReplDCGen{{DC: "DC-A"}},
	})
	resp, err := http.Post(srv.URL+"/v1/DC-A/select%3Fdebug=1", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	got := a.seen()
	if len(got) != 1 || got[0] != "POST /v1/DC-A/select%3Fdebug=1" {
		t.Errorf("backend saw %v, want the still-encoded path [POST /v1/DC-A/select%%3Fdebug=1]", got)
	}
}

func TestProxyRelaysBackendStatus(t *testing.T) {
	a := newFakeBackend(t)
	_, srv := newTestRouter(t, nil)
	mustRegister(t, srv.URL, regproto.RegisterRequest{
		ID: "node-a", URL: a.srv.URL,
		Datacenters: []wire.ReplDCGen{{DC: "DC-A"}},
	})
	a.status.Store(http.StatusNotFound)
	notFound := `{"error":"unknown server"}`
	a.reply.Store(&notFound)
	resp, body := getBody(t, srv.URL+"/v1/DC-A/servers/999/class")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status = %d, want backend's 404 relayed", resp.StatusCode)
	}
	if string(body) != notFound {
		t.Errorf("body = %q, want backend's error body", body)
	}
}

// TestProxyBreaksRoutingLoops pins the one-hop cycle breaker: a backend
// registered with the router's own URL must produce a single 508, not a
// self-proxying storm.
func TestProxyBreaksRoutingLoops(t *testing.T) {
	_, srv := newTestRouter(t, nil)
	mustRegister(t, srv.URL, regproto.RegisterRequest{
		ID: "confused", URL: srv.URL,
		Datacenters: []wire.ReplDCGen{{DC: "DC-A"}},
	})
	resp, body := getBody(t, srv.URL+"/v1/DC-A/classes")
	if resp.StatusCode != http.StatusLoopDetected {
		t.Errorf("self-registered router: status %d, want 508 (%s)", resp.StatusCode, body)
	}
	// The /metrics fan-out must not recurse into the self-registered
	// "backend" either: the scrape carries the hop header, the nested router
	// answers 508, and the outer scrape completes with that DC absent.
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, body := getBody(t, srv.URL+"/metrics")
		if resp.StatusCode != http.StatusOK {
			t.Errorf("/metrics with loop backend: status %d (%s)", resp.StatusCode, body)
			return
		}
		var m struct {
			Datacenters map[string]json.RawMessage `json:"datacenters"`
		}
		if err := json.Unmarshal(body, &m); err != nil {
			t.Errorf("unmarshal metrics: %v", err)
			return
		}
		if _, ok := m.Datacenters["DC-A"]; ok {
			t.Errorf("loop backend's DC appeared in the aggregate: %v", m.Datacenters)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("/metrics hung — the fan-out recursed into itself")
	}
}

// TestProxyRelaysRedirectsVerbatim pins reverse-proxy redirect semantics:
// a backend 3xx reaches the client as-is — the router must never chase the
// Location itself (a registered-but-malicious backend could otherwise use
// it to make the router GET arbitrary internal URLs).
func TestProxyRelaysRedirectsVerbatim(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Location", "http://192.0.2.1/elsewhere")
		w.WriteHeader(http.StatusFound)
	}))
	defer backend.Close()
	_, srv := newTestRouter(t, nil)
	mustRegister(t, srv.URL, regproto.RegisterRequest{
		ID: "node-a", URL: backend.URL,
		Datacenters: []wire.ReplDCGen{{DC: "DC-A"}},
	})
	client := &http.Client{CheckRedirect: func(req *http.Request, via []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	resp, err := client.Get(srv.URL + "/v1/DC-A/classes")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusFound {
		t.Errorf("status = %d, want the backend's 302 relayed", resp.StatusCode)
	}
	if got := resp.Header.Get("Location"); got != "http://192.0.2.1/elsewhere" {
		t.Errorf("Location = %q, want the backend's target relayed", got)
	}
}

func TestRegisterUpdatesAndMovesDatacenters(t *testing.T) {
	clock := fleettest.NewClock()
	a, b := newFakeBackend(t), newFakeBackend(t)
	rt := router.New(router.Config{StaleAfter: 10 * time.Second, Clock: clock})
	srv := httptest.NewServer(rt)
	defer srv.Close()
	mustRegister(t, srv.URL, regproto.RegisterRequest{
		ID: "node-a", URL: a.srv.URL,
		Datacenters: []wire.ReplDCGen{{DC: "DC-1"}, {DC: "DC-2"}},
	})
	if got := datacentersOf(t, srv.URL); len(got) != 2 || got[0] != "DC-1" || got[1] != "DC-2" {
		t.Fatalf("datacenters = %v, want [DC-1 DC-2]", got)
	}

	// Ownership is sticky: node-b announcing DC-2 while node-a is alive must
	// NOT take the route — a contested DC would otherwise ping-pong at
	// heartbeat cadence, stranding leases on the shard that issued them.
	mustRegister(t, srv.URL, regproto.RegisterRequest{
		ID: "node-b", URL: b.srv.URL,
		Datacenters: []wire.ReplDCGen{{DC: "DC-2"}},
	})
	getBody(t, srv.URL+"/v1/DC-2/classes")
	if got := a.seen(); len(got) != 1 {
		t.Errorf("contested DC-2 left its live owner: backend A saw %v, want one request", got)
	}
	if got := b.seen(); len(got) != 0 {
		t.Errorf("contested DC-2 moved to the challenger: backend B saw %v, want nothing", got)
	}

	// Once node-a goes stale, node-b's next heartbeat takes DC-2 over.
	clock.Advance(11 * time.Second)
	mustRegister(t, srv.URL, regproto.RegisterRequest{
		ID: "node-b", URL: b.srv.URL,
		Datacenters: []wire.ReplDCGen{{DC: "DC-2"}},
	})
	getBody(t, srv.URL+"/v1/DC-2/classes")
	if got := b.seen(); len(got) != 1 {
		t.Errorf("after the owner went stale, backend B saw %v, want one request", got)
	}

	// node-a re-registers without DC-1: its entry disappears from the table
	// (and the union), while DC-2 stays with node-b.
	mustRegister(t, srv.URL, regproto.RegisterRequest{
		ID: "node-a", URL: a.srv.URL,
		Datacenters: []wire.ReplDCGen{{DC: "DC-3"}},
	})
	if got := datacentersOf(t, srv.URL); len(got) != 2 || got[0] != "DC-2" || got[1] != "DC-3" {
		t.Errorf("datacenters = %v, want [DC-2 DC-3]", got)
	}
	resp, _ := getBody(t, srv.URL+"/v1/DC-1/classes")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("dropped DC-1: status %d, want 404", resp.StatusCode)
	}
	// DC-2 stayed with node-b through node-a's re-registration: node-a no
	// longer announces it, and would not reclaim it from a live owner anyway.
	getBody(t, srv.URL+"/v1/DC-2/classes")
	if got := b.seen(); len(got) != 2 {
		t.Errorf("DC-2 after node-a re-registration: backend B saw %v, want two requests", got)
	}
}

// TestDeadBackendAgesOut pins the garbage collection of long-gone backends:
// past 10 staleness windows a dead node's datacenters fall back to 404
// (unknown) instead of 503ing forever, and the backend row leaves /metrics
// and /healthz.
func TestDeadBackendAgesOut(t *testing.T) {
	clock := fleettest.NewClock()
	a, b := newFakeBackend(t), newFakeBackend(t)
	rt := router.New(router.Config{StaleAfter: 10 * time.Second, Clock: clock})
	srv := httptest.NewServer(rt)
	defer srv.Close()
	mustRegister(t, srv.URL, regproto.RegisterRequest{
		ID: "node-a", URL: a.srv.URL,
		Datacenters: []wire.ReplDCGen{{DC: "DC-A"}},
	})

	// Stale but not yet aged out: 503 (the outage might be transient).
	clock.Advance(50 * time.Second)
	resp, _ := getBody(t, srv.URL+"/v1/DC-A/classes")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("stale backend: status %d, want 503", resp.StatusCode)
	}

	// Past 10×StaleAfter the node is collected on demand by the very next
	// proxy request — no surviving backend needs to heartbeat for the 503s
	// to end.
	clock.Advance(60 * time.Second)
	resp, _ = getBody(t, srv.URL+"/v1/DC-A/classes")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("aged-out backend's DC: status %d, want 404", resp.StatusCode)
	}
	mustRegister(t, srv.URL, regproto.RegisterRequest{
		ID: "node-b", URL: b.srv.URL,
		Datacenters: []wire.ReplDCGen{{DC: "DC-B"}},
	})
	var hz struct {
		Backends int `json:"backends"`
	}
	_, body := getBody(t, srv.URL+"/healthz")
	if err := json.Unmarshal(body, &hz); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	if hz.Backends != 1 {
		t.Errorf("healthz backends = %d after age-out, want 1", hz.Backends)
	}
}

// TestRegisterToken pins the registration-auth contract: with a token
// configured, unauthenticated (or wrongly authenticated) heartbeats cannot
// move routing.
func TestRegisterToken(t *testing.T) {
	a := newFakeBackend(t)
	rt := router.New(router.Config{StaleAfter: time.Minute, RegisterToken: "fleet-secret"})
	srv := httptest.NewServer(rt)
	defer srv.Close()
	defer rt.Close()

	beat := func(token string) error {
		c, err := regproto.Dial(srv.URL, token, 5*time.Second)
		if err != nil {
			return err
		}
		defer c.Close()
		var ack regproto.RegisterResponse
		return c.Beat(&regproto.RegisterRequest{
			ID: "node-a", URL: a.srv.URL,
			Datacenters: []wire.ReplDCGen{{DC: "DC-A"}},
		}, &ack)
	}

	for _, token := range []string{"", "wrong"} {
		if err := beat(token); err == nil || !strings.Contains(err.Error(), "401") {
			t.Errorf("token %q: %v, want a 401 refusal", token, err)
		}
	}
	if got := datacentersOf(t, srv.URL); len(got) != 0 {
		t.Fatalf("unauthenticated registration moved routing: %v", got)
	}
	if err := beat("fleet-secret"); err != nil {
		t.Errorf("correct token: %v", err)
	}
	if got := datacentersOf(t, srv.URL); len(got) != 1 || got[0] != "DC-A" {
		t.Errorf("datacenters after authorized registration = %v, want [DC-A]", got)
	}
}

// TestStaleBackend503sWithRetryAfter: at the default StaleAfter (10 s) a stale
// backend's 503 asks for a retry in one beat, StaleAfter/5.
func TestStaleBackend503sWithRetryAfter(t *testing.T) {
	clock := fleettest.NewClock()
	a := newFakeBackend(t)
	rt := router.New(router.Config{Clock: clock})
	srv := httptest.NewServer(rt)
	defer srv.Close()
	mustRegister(t, srv.URL, regproto.RegisterRequest{
		ID: "node-a", URL: a.srv.URL,
		Datacenters: []wire.ReplDCGen{{DC: "DC-A"}},
	})

	if resp, _ := getBody(t, srv.URL+"/v1/DC-A/classes"); resp.StatusCode != http.StatusOK {
		t.Fatalf("fresh backend: status %d, want 200", resp.StatusCode)
	}
	clock.Advance(11 * time.Second)
	resp, body := getBody(t, srv.URL+"/v1/DC-A/classes")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("stale backend: status %d, want 503 (body %s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") != "2" {
		t.Errorf("Retry-After = %q, want %q", resp.Header.Get("Retry-After"), "2")
	}
	if got := datacentersOf(t, srv.URL); len(got) != 0 {
		t.Errorf("stale backend still in union: %v", got)
	}

	// One heartbeat recovers it.
	mustRegister(t, srv.URL, regproto.RegisterRequest{
		ID: "node-a", URL: a.srv.URL,
		Datacenters: []wire.ReplDCGen{{DC: "DC-A"}},
	})
	if resp, _ := getBody(t, srv.URL+"/v1/DC-A/classes"); resp.StatusCode != http.StatusOK {
		t.Errorf("recovered backend: status %d, want 200", resp.StatusCode)
	}
}

func TestCircuitBreakerOpensAndReprobes(t *testing.T) {
	clock := fleettest.NewClock()
	a := newFakeBackend(t)
	rt := router.New(router.Config{
		StaleAfter:       time.Hour, // isolate the breaker from staleness: the cooldown is 12 minutes
		BreakerThreshold: 2,
		ProxyTimeout:     2 * time.Second,
		Clock:            clock,
	})
	srv := httptest.NewServer(rt)
	defer srv.Close()
	mustRegister(t, srv.URL, regproto.RegisterRequest{
		ID: "node-a", URL: a.srv.URL,
		Datacenters: []wire.ReplDCGen{{DC: "DC-A"}},
	})

	// Kill the backend: transport failures, 503 per attempt.
	a.srv.Close()
	for i := 0; i < 2; i++ {
		resp, _ := getBody(t, srv.URL+"/v1/DC-A/classes")
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("dead backend attempt %d: status %d, want 503", i, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Errorf("dead backend attempt %d: missing Retry-After", i)
		}
	}

	// The circuit is now open: requests are rejected without touching the
	// transport (observable via the metrics counters, which stop moving).
	var m struct {
		Router router.RouterStats `json:"router"`
	}
	_, body := getBody(t, srv.URL+"/metrics")
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("metrics: %v", err)
	}
	st := m.Router.Backends["node-a"]
	if !st.CircuitOpen {
		t.Fatalf("circuit not open after %d failures: %+v", 2, st)
	}
	errorsBefore := st.Errors
	resp, _ := getBody(t, srv.URL+"/v1/DC-A/classes")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("open circuit: status %d, want 503", resp.StatusCode)
	}
	_, body = getBody(t, srv.URL+"/metrics")
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if got := m.Router.Backends["node-a"].Errors; got != errorsBefore {
		t.Errorf("open circuit still hit the transport: errors %d → %d", errorsBefore, got)
	}

	// Past the cooldown a probe goes through (and fails → transport error
	// counted again, circuit re-opens).
	clock.Advance(13 * time.Minute)
	resp, _ = getBody(t, srv.URL+"/v1/DC-A/classes")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("probe: status %d, want 503", resp.StatusCode)
	}
	_, body = getBody(t, srv.URL+"/metrics")
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if got := m.Router.Backends["node-a"].Errors; got != errorsBefore+1 {
		t.Errorf("probe did not hit the transport: errors %d, want %d", got, errorsBefore+1)
	}

	// The node comes back (re-registers with a live URL). A heartbeat alone
	// must NOT close the circuit — beats only prove backend→router
	// reachability — so the route recovers via the next successful probe
	// after the cooldown.
	b := newFakeBackend(t)
	mustRegister(t, srv.URL, regproto.RegisterRequest{
		ID: "node-a", URL: b.srv.URL,
		Datacenters: []wire.ReplDCGen{{DC: "DC-A"}},
	})
	if resp, _ := getBody(t, srv.URL+"/v1/DC-A/classes"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("heartbeat alone closed the circuit: status %d, want 503", resp.StatusCode)
	}
	clock.Advance(13 * time.Minute)
	if resp, _ := getBody(t, srv.URL+"/v1/DC-A/classes"); resp.StatusCode != http.StatusOK {
		t.Errorf("successful probe after recovery: status %d, want 200", resp.StatusCode)
	}
	if resp, _ := getBody(t, srv.URL+"/v1/DC-A/classes"); resp.StatusCode != http.StatusOK {
		t.Errorf("circuit closed after successful probe: status %d, want 200", resp.StatusCode)
	}
}

// TestCircuitBreakerSingleProbe pins the half-open contract: once the
// cooldown elapses, exactly one request (the CAS winner) probes the backend;
// concurrent requests are rejected immediately instead of each paying the
// transport timeout.
func TestCircuitBreakerSingleProbe(t *testing.T) {
	clock := fleettest.NewClock()
	// A listener that accepts connections but never answers: every proxied
	// request burns the full ProxyTimeout and fails.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	var held []net.Conn
	var heldMu sync.Mutex
	defer func() {
		heldMu.Lock()
		for _, c := range held {
			c.Close()
		}
		heldMu.Unlock()
	}()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			heldMu.Lock()
			held = append(held, c)
			heldMu.Unlock()
		}
	}()

	rt := router.New(router.Config{
		StaleAfter:       time.Hour, // the cooldown is 12 minutes
		BreakerThreshold: 1,
		ProxyTimeout:     500 * time.Millisecond,
		Clock:            clock,
	})
	srv := httptest.NewServer(rt)
	defer srv.Close()
	mustRegister(t, srv.URL, regproto.RegisterRequest{
		ID: "node-a", URL: "http://" + ln.Addr().String(),
		Datacenters: []wire.ReplDCGen{{DC: "DC-A"}},
	})

	// The first request times out and opens the circuit.
	if resp, _ := getBody(t, srv.URL+"/v1/DC-A/classes"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("hung backend: status %d, want 503", resp.StatusCode)
	}

	// Half-open: a slow probe holds the slot; a concurrent request must be
	// rejected without touching the transport (i.e. near-instantly).
	clock.Advance(13 * time.Minute)
	probeDone := make(chan int, 1)
	go func() {
		resp, err := http.Get(srv.URL + "/v1/DC-A/classes")
		if err != nil {
			probeDone <- -1
			return
		}
		resp.Body.Close()
		probeDone <- resp.StatusCode
	}()
	time.Sleep(100 * time.Millisecond) // probe is now stuck in its timeout
	start := time.Now()
	resp, body := getBody(t, srv.URL+"/v1/DC-A/classes")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("concurrent with probe: status %d, want 503 (%s)", resp.StatusCode, body)
	}
	if elapsed := time.Since(start); elapsed > 250*time.Millisecond {
		t.Errorf("non-probe request took %v — it waited on the transport instead of failing fast", elapsed)
	}
	if code := <-probeDone; code != http.StatusServiceUnavailable {
		t.Errorf("probe status = %d, want 503", code)
	}
}

// TestRetryTimingsAtDefaultStaleAfter pins the timings derived from the
// default 10 s staleness window: an opened circuit stays open one beat (2 s),
// and a datacenter's elected follower is told to promote at most every 5 s.
func TestRetryTimingsAtDefaultStaleAfter(t *testing.T) {
	t.Run("circuit open 2s", func(t *testing.T) {
		clock := fleettest.NewClock()
		a := newFakeBackend(t)
		rt := router.New(router.Config{BreakerThreshold: 1, Clock: clock})
		srv := newServer(t, rt)
		mustRegister(t, srv.URL, regproto.RegisterRequest{
			ID: "node-a", URL: a.srv.URL,
			Datacenters: []wire.ReplDCGen{{DC: "DC-A"}},
		})
		a.srv.Close()
		getBody(t, srv.URL+"/v1/DC-A/classes") // the failure that opens the circuit
		if resp, _ := getBody(t, srv.URL+"/v1/DC-A/classes"); resp.Header.Get("Retry-After") != "2" {
			t.Errorf("open circuit: status %d, Retry-After %q; want 503, 2", resp.StatusCode, resp.Header.Get("Retry-After"))
		}
		clock.Advance(2*time.Second - time.Millisecond)
		if !routerStats(t, srv.URL).Backends["node-a"].CircuitOpen {
			t.Fatal("the circuit closed before 2 s")
		}
		clock.Advance(2 * time.Millisecond)
		if routerStats(t, srv.URL).Backends["node-a"].CircuitOpen {
			t.Fatal("the circuit is still open past 2 s")
		}
	})

	t.Run("promotions 5s apart", func(t *testing.T) {
		clock := fleettest.NewClock()
		p, f := newFakeBackend(t), newFakeBackend(t)
		rt := router.New(router.Config{Clock: clock})
		srv := newServer(t, rt)
		mustRegister(t, srv.URL, regproto.RegisterRequest{
			ID: "node-p", URL: p.srv.URL, Role: "primary",
			Datacenters: []wire.ReplDCGen{{DC: "DC-A"}},
		})
		clock.Advance(11 * time.Second)
		// The winner keeps beating as a follower — say its promotion did not
		// take — and is told again only half a window later.
		told := func(after time.Duration) bool {
			t.Helper()
			clock.Advance(after)
			ack, status := registerAck(t, srv.URL, regproto.RegisterRequest{
				ID: "node-f", URL: f.srv.URL, Role: "follower", PrimaryID: "node-p",
				Datacenters: []wire.ReplDCGen{{DC: "DC-A"}},
			})
			if status != http.StatusOK {
				t.Fatalf("follower beat: status %d", status)
			}
			return ack.Promote
		}
		if !told(0) {
			t.Fatal("the follower's first beat after the primary went stale was not told to promote")
		}
		if told(5*time.Second - time.Millisecond) {
			t.Error("the follower was told again within 5 s")
		}
		if !told(time.Millisecond) {
			t.Error("the follower was not told again 5 s after the first")
		}
	})
}

func TestMetricsAggregatesAcrossBackends(t *testing.T) {
	_, srv := newTestRouter(t, nil)

	// Backends whose /metrics carry distinguishable per-DC payloads.
	mkBackend := func(dc string, gen uint64) *httptest.Server {
		s := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/metrics" {
				http.NotFound(w, r)
				return
			}
			fmt.Fprintf(w, `{"datacenters":{%q:{"generation":%d,"classes":4}}}`, dc, gen)
		}))
		t.Cleanup(s.Close)
		return s
	}
	sa, sb := mkBackend("DC-A", 5), mkBackend("DC-B", 9)
	mustRegister(t, srv.URL, regproto.RegisterRequest{
		ID: "node-a", URL: sa.URL, Datacenters: []wire.ReplDCGen{{DC: "DC-A", Generation: 5}},
	})
	mustRegister(t, srv.URL, regproto.RegisterRequest{
		ID: "node-b", URL: sb.URL, Datacenters: []wire.ReplDCGen{{DC: "DC-B", Generation: 9}},
	})

	resp, body := getBody(t, srv.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	var m struct {
		Router      router.RouterStats `json:"router"`
		Datacenters map[string]struct {
			Generation uint64 `json:"generation"`
			Classes    int    `json:"classes"`
		} `json:"datacenters"`
	}
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(m.Datacenters) != 2 {
		t.Fatalf("merged datacenters = %v, want DC-A and DC-B", m.Datacenters)
	}
	if m.Datacenters["DC-A"].Generation != 5 || m.Datacenters["DC-B"].Generation != 9 {
		t.Errorf("merged generations = %v", m.Datacenters)
	}
	if m.Router.Registrations != 2 {
		t.Errorf("registrations = %d, want 2", m.Router.Registrations)
	}
	if got := m.Router.Backends["node-a"].Datacenters["DC-A"]; got != 5 {
		t.Errorf("announced generation for node-a/DC-A = %d, want 5", got)
	}
}

// TestRouterErrorPaths pins the router's own status codes (the proxied
// data-plane codes are pinned in internal/service's table): its HTTP
// surfaces, then the beats an upgraded registration connection refuses with
// 400, all on one connection that keeps working through the refusals.
func TestRouterErrorPaths(t *testing.T) {
	a := newFakeBackend(t)
	rt := router.New(router.Config{StaleAfter: time.Minute, RegisterToken: "reg-secret"})
	srv := newServer(t, rt)
	t.Cleanup(rt.Close)
	c, err := regproto.Dial(srv.URL, "reg-secret", 5*time.Second)
	if err != nil {
		t.Fatalf("upgrade: %v", err)
	}
	defer c.Close()
	nodeA := regproto.RegisterRequest{ID: "node-a", URL: a.srv.URL, Datacenters: []wire.ReplDCGen{{DC: "DC-A"}}}
	var ack regproto.RegisterResponse
	if err := c.Beat(&nodeA, &ack); err != nil {
		t.Fatalf("register node-a: %v", err)
	}

	const jsonBeat = `{"id":"n","url":"http://x:1","datacenters":[{"name":"D"}]}`
	cases := []struct {
		name   string
		method string
		path   string
		token  string
		body   string
		want   int
	}{
		{"unknown datacenter", "GET", "/v1/DC-X/classes", "", "", http.StatusNotFound},
		{"unknown datacenter post", "POST", "/v1/DC-X/select", "", `{"max_concurrent_cores":1}`, http.StatusNotFound},
		// A heartbeat is only ever a frame: a POST that does not upgrade is
		// refused unread, once its token checks out.
		{"register json body", "POST", "/v1/register", "reg-secret", jsonBeat, http.StatusUpgradeRequired},
		{"register json body wrong token", "POST", "/v1/register", "wrong", jsonBeat, http.StatusUnauthorized},
		{"register malformed json", "POST", "/v1/register", "reg-secret", `{"id":`, http.StatusUpgradeRequired},
		{"register empty body", "POST", "/v1/register", "reg-secret", ``, http.StatusUpgradeRequired},
		{"healthz wrong method", "POST", "/healthz", "", "", http.StatusMethodNotAllowed},
		{"metrics wrong method", "POST", "/metrics", "", "", http.StatusMethodNotAllowed},
		// Wrong-method requests under /v1/ fall through to the proxy wildcard
		// and resolve the segment as a datacenter name — pinned as 404, not
		// 405 (the method-specific routes only shadow their own methods).
		{"datacenters wrong method", "DELETE", "/v1/datacenters", "", "", http.StatusNotFound},
		{"register wrong method", "GET", "/v1/register", "", "", http.StatusNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, srv.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatalf("new request: %v", err)
			}
			if tc.body != "" {
				req.Header.Set("Content-Type", "application/json")
			}
			if tc.token != "" {
				req.Header.Set("Authorization", "Bearer "+tc.token)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatalf("do: %v", err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("%s %s: status %d, want %d", tc.method, tc.path, resp.StatusCode, tc.want)
			}
			if tc.want == http.StatusUpgradeRequired &&
				(resp.Header.Get("Upgrade") != regproto.UpgradeToken || !strings.Contains(string(body), regproto.UpgradeToken)) {
				t.Errorf("426 with Upgrade %q and body %s, want both to name %s", resp.Header.Get("Upgrade"), body, regproto.UpgradeToken)
			}
		})
	}
	if got := datacentersOf(t, srv.URL); len(got) != 1 || got[0] != "DC-A" {
		t.Errorf("datacenters after the refused POSTs = %v, want [DC-A]", got)
	}

	for _, tc := range badBeats {
		t.Run(tc.name, func(t *testing.T) {
			var refused *regproto.RefusedError
			if err := c.Beat(&tc.beat, &ack); !errors.As(err, &refused) || refused.Status != http.StatusBadRequest {
				t.Errorf("%+v: %v, want a 400 refusal", tc.beat, err)
			}
		})
	}
	if err := c.Beat(&nodeA, &ack); err != nil {
		t.Fatalf("a beat after the refusals: %v", err)
	}
}

func TestDrainingBackendStopsRouting(t *testing.T) {
	clock := fleettest.NewClock()
	a := newFakeBackend(t)
	rt := router.New(router.Config{StaleAfter: 10 * time.Second, Clock: clock})
	srv := httptest.NewServer(rt)
	defer srv.Close()
	beat := regproto.RegisterRequest{
		ID: "node-a", URL: a.srv.URL,
		Datacenters: []wire.ReplDCGen{{DC: "DC-A"}},
	}
	mustRegister(t, srv.URL, beat)

	if resp, _ := getBody(t, srv.URL+"/v1/DC-A/classes"); resp.StatusCode != http.StatusOK {
		t.Fatalf("before drain: status %d, want 200", resp.StatusCode)
	}

	// The drain beat takes the node out of rotation immediately — no
	// staleness window — even though it keeps heartbeating.
	beat.Draining = true
	mustRegister(t, srv.URL, beat)
	served := len(a.seen())
	resp, body := getBody(t, srv.URL+"/v1/DC-A/classes")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining backend: status %d, want 503 (body %s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Errorf("draining 503 missing Retry-After")
	}
	if got := len(a.seen()); got != served {
		t.Errorf("draining backend still proxied to: %d requests, want %d", got, served)
	}
	if got := datacentersOf(t, srv.URL); len(got) != 0 {
		t.Errorf("draining backend still in datacenter union: %v", got)
	}

	// A post-restart beat without the flag puts it straight back.
	beat.Draining = false
	mustRegister(t, srv.URL, beat)
	if resp, _ := getBody(t, srv.URL+"/v1/DC-A/classes"); resp.StatusCode != http.StatusOK {
		t.Errorf("after restart beat: status %d, want 200", resp.StatusCode)
	}
}

func TestFollowerBeatLearnsPrimaryReplicateAddr(t *testing.T) {
	p := newFakeBackend(t)
	f := newFakeBackend(t)
	rt := router.New(router.Config{StaleAfter: time.Minute})
	srv := httptest.NewServer(rt)
	defer srv.Close()
	mustRegister(t, srv.URL, regproto.RegisterRequest{
		ID: "node-p", URL: p.srv.URL, Role: "primary", ReplicateAddr: "127.0.0.1:7079",
		Datacenters: []wire.ReplDCGen{{DC: "DC-A", Generation: 5}},
	})

	ack, status := registerAck(t, srv.URL, regproto.RegisterRequest{
		ID: "node-f", URL: f.srv.URL, Role: "follower", PrimaryID: "node-p",
		Datacenters: []wire.ReplDCGen{{DC: "DC-A", Generation: 5}},
	})
	if status != http.StatusOK || ack.PrimaryReplicateAddr != "127.0.0.1:7079" {
		t.Errorf("follower ack: status %d, primary_replicate_addr %q; want 200, %q", status, ack.PrimaryReplicateAddr, "127.0.0.1:7079")
	}

	// The primary's own ack never carries it.
	ack, status = registerAck(t, srv.URL, regproto.RegisterRequest{
		ID: "node-p", URL: p.srv.URL, Role: "primary", ReplicateAddr: "127.0.0.1:7079",
		Datacenters: []wire.ReplDCGen{{DC: "DC-A", Generation: 6}},
	})
	if status != http.StatusOK || ack.PrimaryReplicateAddr != "" {
		t.Errorf("primary ack: status %d, primary_replicate_addr %q; want 200 and none", status, ack.PrimaryReplicateAddr)
	}
}
