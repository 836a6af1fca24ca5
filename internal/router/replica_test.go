package router_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"harvest/internal/fleettest"
	"harvest/internal/regproto"
	"harvest/internal/router"
	"harvest/internal/wire"
)

func newServer(t *testing.T, rt *router.Router) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(rt)
	t.Cleanup(srv.Close)
	return srv
}

// countBy tallies a fakeBackend's proxied requests by "METHOD path".
func countBy(fb *fakeBackend, want string) int {
	n := 0
	for _, r := range fb.seen() {
		if r == want {
			n++
		}
	}
	return n
}

// TestReadSpreadAcrossFollowers pins the tentpole's read path: GETs and
// advisory dry-run selects spread across the primary and its
// generation-fresh followers, while state-moving requests stay pinned to the
// primary, and every proxied response names its serving replica.
func TestReadSpreadAcrossFollowers(t *testing.T) {
	p, f1, f2 := newFakeBackend(t), newFakeBackend(t), newFakeBackend(t)
	_, srv := newTestRouter(t, nil)
	mustRegister(t, srv.URL, regproto.RegisterRequest{
		ID: "node-p", URL: p.srv.URL, Role: "primary",
		Datacenters: []wire.ReplDCGen{{DC: "DC-A", Generation: 10}},
	})
	mustRegister(t, srv.URL, regproto.RegisterRequest{
		ID: "node-f1", URL: f1.srv.URL, Role: "follower", PrimaryID: "node-p",
		Datacenters: []wire.ReplDCGen{{DC: "DC-A", Generation: 10}},
	})
	mustRegister(t, srv.URL, regproto.RegisterRequest{
		ID: "node-f2", URL: f2.srv.URL, Role: "follower", PrimaryID: "node-p",
		Datacenters: []wire.ReplDCGen{{DC: "DC-A", Generation: 9}},
	})

	const reads = 120
	served := map[string]int{}
	for i := 0; i < reads; i++ {
		resp, _ := getBody(t, srv.URL+"/v1/DC-A/classes")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("read %d: status %d", i, resp.StatusCode)
		}
		served[resp.Header.Get("X-Harvest-Backend")]++
	}
	for _, id := range []string{"node-p", "node-f1", "node-f2"} {
		if served[id] == 0 {
			t.Errorf("backend %s served no reads out of %d: %v", id, reads, served)
		}
	}
	if served["node-p"]+served["node-f1"]+served["node-f2"] != reads {
		t.Errorf("served map does not account for every read: %v", served)
	}

	// Reserving selects are writes: pinned to the primary, never a follower.
	for i := 0; i < 20; i++ {
		resp, err := http.Post(srv.URL+"/v1/DC-A/select", "application/json",
			strings.NewReader(`{"max_concurrent_cores":1}`))
		if err != nil {
			t.Fatalf("select %d: %v", i, err)
		}
		if got := resp.Header.Get("X-Harvest-Backend"); got != "node-p" {
			t.Fatalf("reserving select %d served by %q, want the primary", i, got)
		}
		resp.Body.Close()
	}
	if got := countBy(p, "POST /v1/DC-A/select"); got != 20 {
		t.Errorf("primary saw %d reserving selects, want 20", got)
	}
	if got := countBy(f1, "POST /v1/DC-A/select") + countBy(f2, "POST /v1/DC-A/select"); got != 0 {
		t.Errorf("followers saw %d reserving selects, want 0", got)
	}

	// Dry-run selects are advisory — classified as reads and spread.
	followerDry := 0
	for i := 0; i < 60; i++ {
		resp, err := http.Post(srv.URL+"/v1/DC-A/select", "application/json",
			strings.NewReader(`{"max_concurrent_cores":1,"dry_run":true}`))
		if err != nil {
			t.Fatalf("dry-run select %d: %v", i, err)
		}
		if id := resp.Header.Get("X-Harvest-Backend"); id == "node-f1" || id == "node-f2" {
			followerDry++
		}
		resp.Body.Close()
	}
	if followerDry == 0 {
		t.Errorf("no dry-run select reached a follower out of 60")
	}

	// Per-backend read accounting surfaces on /metrics.
	var m struct {
		Router router.RouterStats `json:"router"`
	}
	_, body := getBody(t, srv.URL+"/metrics")
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("metrics: %v", err)
	}
	for _, id := range []string{"node-f1", "node-f2"} {
		st := m.Router.Backends[id]
		if st.Role != "follower" || st.PrimaryID != "node-p" {
			t.Errorf("backend %s role/primary = %q/%q, want follower/node-p", id, st.Role, st.PrimaryID)
		}
		if st.Reads == 0 {
			t.Errorf("backend %s reads counter is zero", id)
		}
		if st.Latency.Requests == 0 {
			t.Errorf("backend %s latency histogram saw no requests", id)
		}
	}
}

// TestStaleFollowerSkipped pins the staleness gate: a follower trailing the
// primary's announced generation by more than MaxGenLag serves nothing.
func TestStaleFollowerSkipped(t *testing.T) {
	p, f := newFakeBackend(t), newFakeBackend(t)
	rt := router.New(router.Config{StaleAfter: time.Minute, MaxGenLag: 2})
	srv := newServer(t, rt)
	mustRegister(t, srv.URL, regproto.RegisterRequest{
		ID: "node-p", URL: p.srv.URL, Role: "primary",
		Datacenters: []wire.ReplDCGen{{DC: "DC-A", Generation: 10}},
	})
	mustRegister(t, srv.URL, regproto.RegisterRequest{
		ID: "node-f", URL: f.srv.URL, Role: "follower", PrimaryID: "node-p",
		Datacenters: []wire.ReplDCGen{{DC: "DC-A", Generation: 5}},
	})
	for i := 0; i < 40; i++ {
		resp, _ := getBody(t, srv.URL+"/v1/DC-A/classes")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("read %d: status %d", i, resp.StatusCode)
		}
		if got := resp.Header.Get("X-Harvest-Backend"); got != "node-p" {
			t.Fatalf("read %d served by %q — the gen-5 follower should be gated at gen 10", i, got)
		}
	}
	if got := len(f.seen()); got != 0 {
		t.Errorf("stale follower saw %d requests, want 0", got)
	}

	// Once the follower catches up (within the lag window), it serves.
	mustRegister(t, srv.URL, regproto.RegisterRequest{
		ID: "node-f", URL: f.srv.URL, Role: "follower", PrimaryID: "node-p",
		Datacenters: []wire.ReplDCGen{{DC: "DC-A", Generation: 9}},
	})
	for i := 0; i < 60 && len(f.seen()) == 0; i++ {
		getBody(t, srv.URL+"/v1/DC-A/classes")
	}
	if len(f.seen()) == 0 {
		t.Errorf("caught-up follower served nothing out of 60 reads")
	}
}

// TestFollowerNeverClaimsOwnership pins registration semantics: a follower
// registering first — the common startup race — must not become the write
// target or trigger a promotion; it serves reads until its primary's first
// beat claims the route.
func TestFollowerNeverClaimsOwnership(t *testing.T) {
	p, f := newFakeBackend(t), newFakeBackend(t)
	_, srv := newTestRouter(t, nil)
	fBeat := regproto.RegisterRequest{
		ID: "node-f", URL: f.srv.URL, Role: "follower", PrimaryID: "node-p",
		Datacenters: []wire.ReplDCGen{{DC: "DC-A", Generation: 4}},
	}
	mustRegister(t, srv.URL, fBeat)

	// Reads are served by the follower even with no primary known.
	resp, _ := getBody(t, srv.URL+"/v1/DC-A/classes")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("read with follower only: status %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Harvest-Backend"); got != "node-f" {
		t.Errorf("read served by %q, want the lone follower", got)
	}

	// The datacenter stays discoverable with only the follower alive — a
	// client arriving mid-failover must still find the fleet.
	dresp, dbody := getBody(t, srv.URL+"/v1/datacenters")
	if dresp.StatusCode != http.StatusOK || !strings.Contains(string(dbody), "DC-A") {
		t.Errorf("datacenters with follower only: status %d body %q, want DC-A listed",
			dresp.StatusCode, dbody)
	}

	// Writes have no owner: 404, and crucially no promotion of the follower
	// (its primary is healthy, just not registered yet).
	wresp, err := http.Post(srv.URL+"/v1/DC-A/select", "application/json",
		strings.NewReader(`{"max_concurrent_cores":1}`))
	if err != nil {
		t.Fatalf("select: %v", err)
	}
	wresp.Body.Close()
	if wresp.StatusCode != http.StatusNotFound {
		t.Errorf("write with follower only: status %d, want 404", wresp.StatusCode)
	}
	if ack, status := registerAck(t, srv.URL, fBeat); status != http.StatusOK || ack.Promote {
		t.Errorf("lone follower's beat: status %d, promote %v — the startup race split the brain", status, ack.Promote)
	}

	// The primary's first beat takes the route; writes flow to it.
	mustRegister(t, srv.URL, regproto.RegisterRequest{
		ID: "node-p", URL: p.srv.URL, Role: "primary",
		Datacenters: []wire.ReplDCGen{{DC: "DC-A", Generation: 5}},
	})
	wresp2, err := http.Post(srv.URL+"/v1/DC-A/select", "application/json",
		strings.NewReader(`{"max_concurrent_cores":1}`))
	if err != nil {
		t.Fatalf("select: %v", err)
	}
	wresp2.Body.Close()
	if got := wresp2.Header.Get("X-Harvest-Backend"); got != "node-p" {
		t.Errorf("write after primary registered served by %q, want node-p", got)
	}
}

// TestPromotionElectsFreshestFollower pins the failover contract: once the
// primary stops beating, the follower with the highest announced generation —
// never a staler one, even one that beats first — is told to promote in the
// acknowledgement of its own beat, exactly once, and its next beat, as
// primary, takes the route and serves the writes.
func TestPromotionElectsFreshestFollower(t *testing.T) {
	clock := fleettest.NewClock()
	p, f1, f2 := newFakeBackend(t), newFakeBackend(t), newFakeBackend(t)
	rt := router.New(router.Config{StaleAfter: 10 * time.Second, Clock: clock})
	srv := newServer(t, rt)
	f1Beat := regproto.RegisterRequest{
		ID: "node-f1", URL: f1.srv.URL, Role: "follower", PrimaryID: "node-p",
		Datacenters: []wire.ReplDCGen{{DC: "DC-A", Generation: 9}},
	}
	f2Beat := regproto.RegisterRequest{
		ID: "node-f2", URL: f2.srv.URL, Role: "follower", PrimaryID: "node-p",
		Datacenters: []wire.ReplDCGen{{DC: "DC-A", Generation: 7}},
	}
	told := func(beat regproto.RegisterRequest) bool {
		t.Helper()
		ack, status := registerAck(t, srv.URL, beat)
		if status != http.StatusOK {
			t.Fatalf("beat of %s: status %d", beat.ID, status)
		}
		return ack.Promote
	}
	// A follower with no known owner is never told: its primary is healthy,
	// just not registered yet.
	if told(f1Beat) {
		t.Fatal("a lone follower was told to promote — the startup race split the brain")
	}
	mustRegister(t, srv.URL, regproto.RegisterRequest{
		ID: "node-p", URL: p.srv.URL, Role: "primary",
		Datacenters: []wire.ReplDCGen{{DC: "DC-A", Generation: 10}},
	})
	// The primary dies; the followers keep beating.
	clock.Advance(6 * time.Second)
	if told(f2Beat) || told(f1Beat) {
		t.Fatal("a follower was told to promote while its primary was alive")
	}
	clock.Advance(5 * time.Second)
	if told(f2Beat) {
		t.Fatal("the staler follower was told to promote — gen 7 must never beat gen 9")
	}
	if !told(f1Beat) {
		t.Fatal("the freshest follower was not told to promote after the primary went stale")
	}
	// A follower beat composed before the promotion landed is not told again.
	if told(f1Beat) || told(f2Beat) {
		t.Error("a second beat was told to promote within the window")
	}

	// The winner's next beat, as primary, takes the route: writes go to it.
	f1Beat.Role, f1Beat.PrimaryID = "primary", ""
	mustRegister(t, srv.URL, f1Beat)
	resp, err := http.Post(srv.URL+"/v1/DC-A/select", "application/json",
		strings.NewReader(`{"max_concurrent_cores":1}`))
	if err != nil {
		t.Fatalf("select: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("write after failover: status %d, want 200 from the promoted follower", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Harvest-Backend"); got != "node-f1" {
		t.Errorf("failover write served by %q, want the freshest follower node-f1", got)
	}

	st := routerStats(t, srv.URL)
	if st.Promotions != 1 {
		t.Errorf("promotions counter = %d, want 1", st.Promotions)
	}
	if got := st.Backends["node-f1"].Role; got != "primary" {
		t.Errorf("promoted backend role = %q, want primary", got)
	}
}

// TestPromotionWaitsForTheWinnersBeat: of two followers equally fresh, the
// smaller id wins, so routers converge; the other beating first is not told,
// and does not use up the window the winner's beat is told in.
func TestPromotionWaitsForTheWinnersBeat(t *testing.T) {
	clock := fleettest.NewClock()
	rt := router.New(router.Config{StaleAfter: 10 * time.Second, Clock: clock})
	srv := newServer(t, rt)
	beat := func(id, role string) regproto.RegisterRequest {
		return regproto.RegisterRequest{
			ID: id, URL: newFakeBackend(t).srv.URL, Role: role, PrimaryID: "node-p",
			Datacenters: []wire.ReplDCGen{{DC: "DC-A", Generation: 9}},
		}
	}
	mustRegister(t, srv.URL, beat("node-p", "primary"))
	a, b := beat("node-a", "follower"), beat("node-b", "follower")
	clock.Advance(6 * time.Second)
	mustRegister(t, srv.URL, a)
	mustRegister(t, srv.URL, b)
	clock.Advance(5 * time.Second)
	for i := 0; i < 3; i++ {
		if ack, _ := registerAck(t, srv.URL, b); ack.Promote {
			t.Fatal("node-b was told to promote, but node-a ties it on generation with the smaller id")
		}
	}
	if ack, _ := registerAck(t, srv.URL, a); !ack.Promote {
		t.Fatal("node-a was not told to promote after node-b's beats")
	}
}

// TestRegisterRejectsUnknownRole pins the registration validation added with
// replication roles.
func TestRegisterRejectsUnknownRole(t *testing.T) {
	a := newFakeBackend(t)
	_, srv := newTestRouter(t, nil)
	if status := register(t, srv.URL, regproto.RegisterRequest{
		ID: "node-a", URL: a.srv.URL, Role: "coordinator",
		Datacenters: []wire.ReplDCGen{{DC: "DC-A"}},
	}); status != http.StatusBadRequest {
		t.Errorf("unknown role: status %d, want 400", status)
	}
}
