package router_test

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"harvest/internal/regproto"
	"harvest/internal/router"
)

// TestUpgradedRegistration: a node whose POST /v1/register upgrades beats in
// frames on that one connection, under the register token checked once. A
// beat the JSON endpoint would answer 400 is refused with that status and the
// connection carries on; Close ends it.
func TestUpgradedRegistration(t *testing.T) {
	rt := router.New(router.Config{StaleAfter: time.Minute, RegisterToken: "reg-secret"})
	srv := httptest.NewServer(rt)
	defer srv.Close()
	defer rt.Close()

	if _, err := regproto.Dial(srv.URL, "wrong", 5*time.Second); err == nil || !strings.Contains(err.Error(), "401") {
		t.Fatalf("upgrade with a wrong token: %v, want a 401 refusal", err)
	}
	c, err := regproto.Dial(srv.URL, "reg-secret", 5*time.Second)
	if err != nil {
		t.Fatalf("upgrade: %v", err)
	}
	defer c.Close()

	// stats reads the router's own view of the connection and of node-a.
	stats := func() (conns int64, gen uint64) {
		t.Helper()
		resp, body := getBody(t, srv.URL+"/metrics")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/metrics: status %d", resp.StatusCode)
		}
		var m struct {
			Router struct {
				RegisterConns int64 `json:"register_conns"`
				Backends      map[string]struct {
					Datacenters map[string]uint64 `json:"datacenters"`
				} `json:"backends"`
			} `json:"router"`
		}
		if err := json.Unmarshal(body, &m); err != nil {
			t.Fatalf("/metrics: %v", err)
		}
		return m.Router.RegisterConns, m.Router.Backends["node-a"].Datacenters["DC-A"]
	}

	fb := newFakeBackend(t)
	beat := router.RegisterRequest{ID: "node-a", URL: fb.srv.URL, Datacenters: []router.RegisterDatacenter{{Name: "DC-A", Generation: 3}}}
	var ack router.RegisterResponse
	if err := c.Beat(&beat, &ack); err != nil || ack.Status != "ok" || ack.Backends != 1 || ack.StaleAfterSeconds != 60 {
		t.Fatalf("beat: %+v, %v", ack, err)
	}
	if resp, _ := getBody(t, srv.URL+"/v1/DC-A/classes"); resp.StatusCode != http.StatusOK {
		t.Fatalf("a datacenter registered in frames: status %d, want 200", resp.StatusCode)
	}
	if conns, gen := stats(); conns != 1 || gen != 3 {
		t.Fatalf("register_conns %d, generation %d; want 1, 3", conns, gen)
	}

	bad := beat
	bad.Role = "leader"
	var refused *regproto.RefusedError
	if err := c.Beat(&bad, &ack); !errors.As(err, &refused) || refused.Status != http.StatusBadRequest {
		t.Fatalf("a beat with an unknown role: %v, want a 400 refusal", err)
	}
	beat.Datacenters[0].Generation = 4
	if err := c.Beat(&beat, &ack); err != nil {
		t.Fatalf("a beat after a refusal: %v", err)
	}
	if _, gen := stats(); gen != 4 {
		t.Fatalf("generation %d after the beat that announced 4", gen)
	}

	rt.Close()
	if err := c.Beat(&beat, &ack); err == nil {
		t.Fatal("a beat after Close was answered")
	}
	if conns, _ := stats(); conns != 0 {
		t.Fatalf("register_conns %d after Close, want 0", conns)
	}
}

// TestRegisterFormsRefuseAlike: a beat the JSON endpoint refuses is refused
// on the upgraded connection too, with the same status and message — both
// forms validate in one place.
func TestRegisterFormsRefuseAlike(t *testing.T) {
	_, srv := newTestRouter(t, nil)
	c, err := regproto.Dial(srv.URL, "", 5*time.Second)
	if err != nil {
		t.Fatalf("upgrade: %v", err)
	}
	defer c.Close()
	dcs := []router.RegisterDatacenter{{Name: "D"}}
	for _, beat := range []router.RegisterRequest{
		{URL: "http://x:1", Datacenters: dcs},
		{ID: "n", Datacenters: dcs},
		{ID: "n", URL: "x:1", Datacenters: dcs},
		{ID: "n", URL: "http://x:1/api", Datacenters: dcs},
		{ID: "n", URL: "http://x:1?env=prod", Datacenters: dcs},
		{ID: "n", URL: "http://x:1"},
		{ID: "n", URL: "http://x:1", Datacenters: []router.RegisterDatacenter{{Name: ""}}},
		{ID: "n", URL: "http://x:1", Role: "leader", Datacenters: dcs},
		{ID: "n", URL: "http://x:1", BinaryAddr: "x", Datacenters: dcs},
		{ID: "n", URL: "http://x:1", ReplicateAddr: "x", Datacenters: dcs},
	} {
		body, _ := json.Marshal(beat)
		resp, err := http.Post(srv.URL+"/v1/register", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		var refusal struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&refusal)
		resp.Body.Close()
		var ack router.RegisterResponse
		var refused *regproto.RefusedError
		if err := c.Beat(&beat, &ack); !errors.As(err, &refused) || refused.Status != resp.StatusCode || refused.Message != refusal.Error {
			t.Errorf("%s: the frame got %v; the JSON body got %d %q", body, err, resp.StatusCode, refusal.Error)
		}
	}
}
