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
	"harvest/internal/wire"
)

// TestUpgradedRegistration: a node whose POST /v1/register upgrades beats in
// frames on that one connection, under the register token checked once. A
// beat that fails validation is refused with 400 and the connection carries
// on; Close ends it.
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
	beat := regproto.RegisterRequest{ID: "node-a", URL: fb.srv.URL, Datacenters: []wire.ReplDCGen{{DC: "DC-A", Generation: 3}}}
	var ack regproto.RegisterResponse
	if err := c.Beat(&beat, &ack); err != nil || ack != (regproto.RegisterResponse{}) {
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

// badBeats are beats the router refuses with 400, each for one reason.
var badBeats = func() []struct {
	name string
	beat regproto.RegisterRequest
} {
	dcs := []wire.ReplDCGen{{DC: "D"}}
	return []struct {
		name string
		beat regproto.RegisterRequest
	}{
		{"register missing id", regproto.RegisterRequest{URL: "http://x:1", Datacenters: dcs}},
		{"register missing url", regproto.RegisterRequest{ID: "n", Datacenters: dcs}},
		{"register relative url", regproto.RegisterRequest{ID: "n", URL: "x:1", Datacenters: dcs}},
		{"register url with path", regproto.RegisterRequest{ID: "n", URL: "http://x:1/api", Datacenters: dcs}},
		{"register url with query", regproto.RegisterRequest{ID: "n", URL: "http://x:1?env=prod", Datacenters: dcs}},
		{"register no datacenters", regproto.RegisterRequest{ID: "n", URL: "http://x:1"}},
		{"register unnamed datacenter", regproto.RegisterRequest{ID: "n", URL: "http://x:1", Datacenters: []wire.ReplDCGen{{DC: ""}}}},
		{"register unknown role", regproto.RegisterRequest{ID: "n", URL: "http://x:1", Role: "leader", Datacenters: dcs}},
		{"register bad binary addr", regproto.RegisterRequest{ID: "n", URL: "http://x:1", BinaryAddr: "x", Datacenters: dcs}},
		{"register bad replicate addr", regproto.RegisterRequest{ID: "n", URL: "http://x:1", ReplicateAddr: "x", Datacenters: dcs}},
	}
}()

// TestRegisterFormsRefuseAlike: a bad beat is refused with 400 and the same
// message whether it is a connection's first beat, whose URL is parsed, or
// follows an accepted beat from the same URL, whose parse is skipped — and
// either connection keeps working after the refusal.
func TestRegisterFormsRefuseAlike(t *testing.T) {
	_, srv := newTestRouter(t, nil)
	good := regproto.RegisterRequest{ID: "n", URL: "http://x:1", Datacenters: []wire.ReplDCGen{{DC: "D"}}}
	steady, err := regproto.Dial(srv.URL, "", 5*time.Second)
	if err != nil {
		t.Fatalf("upgrade: %v", err)
	}
	defer steady.Close()
	var ack regproto.RegisterResponse
	if err := steady.Beat(&good, &ack); err != nil {
		t.Fatalf("accepted beat: %v", err)
	}
	for _, tc := range badBeats {
		first, err := regproto.Dial(srv.URL, "", 5*time.Second)
		if err != nil {
			t.Fatalf("upgrade: %v", err)
		}
		var onFirst, onSteady *regproto.RefusedError
		errFirst := first.Beat(&tc.beat, &ack)
		errSteady := steady.Beat(&tc.beat, &ack)
		if !errors.As(errFirst, &onFirst) || !errors.As(errSteady, &onSteady) ||
			onFirst.Status != http.StatusBadRequest || *onFirst != *onSteady {
			t.Errorf("%s: a first beat got %v; a steady beat got %v; want one 400 refusal", tc.name, errFirst, errSteady)
		}
		if err := first.Beat(&good, &ack); err != nil {
			t.Errorf("%s: a beat after the refusal on a fresh connection: %v", tc.name, err)
		}
		first.Close()
		if err := steady.Beat(&good, &ack); err != nil {
			t.Errorf("%s: a beat after the refusal on a steady connection: %v", tc.name, err)
		}
	}
}
