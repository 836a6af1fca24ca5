package service_test

import (
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"harvest/internal/fleettest"
	"harvest/internal/router"
	"harvest/internal/service"
)

// TestAnnouncerBeatAllocs is registration's object budget across both tiers
// (DESIGN.md "Hot paths"): once the upgraded connection is up and its buffers
// have grown, a beat — the announcer reading the node's state into its frame,
// the router decoding, applying and acknowledging it, the announcer decoding
// the acknowledgement — costs the process no heap object, from a primary and
// from a follower whose primary is alive.
func TestAnnouncerBeatAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	rt := fleettest.StartRouter(t, router.Config{StaleAfter: time.Minute})
	announce := func(svc *service.Service, id string) *service.Announcer {
		t.Helper()
		ann, err := service.StartAnnouncer(svc, service.AnnouncerConfig{
			RouterURL: rt.URL, SelfURL: "http://127.0.0.1:1", BinaryAddr: "127.0.0.1:2", ReplicateAddr: "127.0.0.1:3",
			ID: id, Interval: time.Hour,
		})
		if err != nil {
			t.Fatalf("StartAnnouncer: %v", err)
		}
		t.Cleanup(ann.Close)
		for i := 0; i < 3; i++ {
			if err := ann.Announce(); err != nil {
				t.Fatalf("beat: %v", err)
			}
		}
		return ann
	}
	svc := newTestService(t)
	defer svc.Close()
	// Not started: a follower that dials no primary, whose router-side
	// primary is the node above.
	fcfg := testConfig()
	fcfg.NodeID, fcfg.FollowAddr = "f1", "127.0.0.1:3"
	follower, err := service.New(fcfg)
	if err != nil {
		t.Fatalf("New follower: %v", err)
	}
	defer follower.Close()
	for _, row := range []struct {
		name string
		ann  *service.Announcer
	}{
		{"primary", announce(svc, "n1")},
		{"follower", announce(follower, "f1")},
	} {
		n := testing.AllocsPerRun(200, func() {
			if err := row.ann.Announce(); err != nil {
				t.Fatalf("beat: %v", err)
			}
		})
		if n != 0 {
			t.Errorf("a %s's registration beat costs %v heap objects, want 0", row.name, n)
		}
	}
	if follower.Role() != "follower" {
		t.Errorf("the follower beating beside a live primary became %s", follower.Role())
	}
}

// TestAnnouncerPromotesOnItsAck: a follower whose beat's acknowledgement
// elects it to replace a primary that stopped beating promotes itself and
// beats again at once, as primary, within the one announce.
func TestAnnouncerPromotesOnItsAck(t *testing.T) {
	clk := fleettest.NewClock()
	rt := fleettest.StartRouter(t, router.Config{StaleAfter: 10 * time.Second, Clock: clk})
	stats := func() router.RouterStats {
		t.Helper()
		var m struct {
			Router router.RouterStats `json:"router"`
		}
		resp, err := http.Get(rt.URL + "/metrics")
		if err != nil {
			t.Fatalf("/metrics: %v", err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatalf("/metrics: %v", err)
		}
		return m.Router
	}
	primary := newTestService(t)
	defer primary.Close()
	fcfg := testConfig()
	fcfg.NodeID, fcfg.FollowAddr = "f1", "127.0.0.1:3"
	follower, err := service.New(fcfg)
	if err != nil {
		t.Fatalf("New follower: %v", err)
	}
	defer follower.Close()
	var anns []*service.Announcer
	for _, n := range []struct {
		svc *service.Service
		id  string
	}{{primary, "p"}, {follower, "f1"}} {
		ann, err := service.StartAnnouncer(n.svc, service.AnnouncerConfig{RouterURL: rt.URL, SelfURL: "http://127.0.0.1:1", ID: n.id, Interval: time.Hour})
		if err != nil {
			t.Fatalf("StartAnnouncer: %v", err)
		}
		defer ann.Close()
		anns = append(anns, ann)
	}
	// Each announcer's first beat, from its loop, is in before the clock moves.
	fleettest.WaitFor(t, "both nodes to register", func() bool { return stats().Registrations == 2 })

	clk.Advance(11 * time.Second)
	if err := anns[1].Announce(); err != nil {
		t.Fatalf("beat: %v", err)
	}
	if follower.Role() != "primary" {
		t.Fatalf("the follower told to promote is %s", follower.Role())
	}
	st := stats()
	if st.Registrations != 4 || st.Promotions != 1 || st.Backends["f1"].Role != "primary" {
		t.Errorf("after one announce: %d beats, %d promotions, f1 %q at the router; want 4, 1, primary",
			st.Registrations, st.Promotions, st.Backends["f1"].Role)
	}
}

// TestAnnouncerRedialsAtOnce: a beat whose connection the router dropped —
// here for idling past ten staleness windows — is sent again at once on a
// fresh one, not an interval later.
func TestAnnouncerRedialsAtOnce(t *testing.T) {
	svc := newTestService(t)
	defer svc.Close()
	rt := fleettest.StartRouter(t, router.Config{StaleAfter: 10 * time.Millisecond})
	ann, err := service.StartAnnouncer(svc, service.AnnouncerConfig{RouterURL: rt.URL, SelfURL: "http://127.0.0.1:1", ID: "n1", Interval: time.Hour})
	if err != nil {
		t.Fatalf("StartAnnouncer: %v", err)
	}
	defer ann.Close()
	if err := ann.Announce(); err != nil {
		t.Fatalf("beat: %v", err)
	}
	fleettest.WaitFor(t, "the router to drop the idle connection", func() bool {
		var m struct {
			Router struct {
				RegisterConns int64 `json:"register_conns"`
			} `json:"router"`
		}
		resp, err := http.Get(rt.URL + "/metrics")
		if err != nil {
			t.Fatalf("/metrics: %v", err)
		}
		defer resp.Body.Close()
		return json.NewDecoder(resp.Body).Decode(&m) == nil && m.Router.RegisterConns == 0
	})
	if err := ann.Announce(); err != nil {
		t.Fatalf("the beat after the router dropped its connection: %v", err)
	}
}
