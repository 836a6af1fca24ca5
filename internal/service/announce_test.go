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
// the acknowledgement — costs the process no heap object.
func TestAnnouncerBeatAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	svc := newTestService(t)
	defer svc.Close()
	rt := fleettest.StartRouter(t, router.Config{StaleAfter: time.Minute})
	ann, err := service.StartAnnouncer(svc, service.AnnouncerConfig{
		RouterURL: rt.URL, SelfURL: "http://127.0.0.1:1", BinaryAddr: "127.0.0.1:2", ReplicateAddr: "127.0.0.1:3",
		ID: "n1", Interval: time.Hour,
	})
	if err != nil {
		t.Fatalf("StartAnnouncer: %v", err)
	}
	defer ann.Close()
	for i := 0; i < 3; i++ {
		if err := ann.Announce(); err != nil {
			t.Fatalf("beat: %v", err)
		}
	}
	n := testing.AllocsPerRun(200, func() {
		if err := ann.Announce(); err != nil {
			t.Fatalf("beat: %v", err)
		}
	})
	if n != 0 {
		t.Errorf("a registration beat costs %v heap objects, want 0", n)
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
