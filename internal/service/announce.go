package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"harvest/internal/regproto"
)

// AnnouncerConfig wires a service into a harvestrouter front end.
type AnnouncerConfig struct {
	// RouterURL is the router's base URL (POST {RouterURL}/v1/register).
	RouterURL string
	// SelfURL is this node's externally reachable base URL — what the router
	// proxies to.
	SelfURL string
	// BinaryAddr is this node's binary frame listener (host:port), when one
	// is serving: where the router's binary front relays this node's frames.
	// Without it the router serves this node's datacenters on JSON only.
	BinaryAddr string
	// ID is the stable backend identity; re-registrations under the same ID
	// update the existing entry. Empty means SelfURL.
	ID string
	// Interval is the heartbeat cadence. Zero means 2 seconds (a fifth of the
	// router's default staleness window).
	Interval time.Duration
	// Token is the router's shared register token (sent as a bearer token),
	// when the router requires one.
	Token string
	// ReplicateAddr is this node's replication listener (host:port) — live on
	// a primary, armed for promotion on a follower. Announced so the router
	// can point orphaned followers at whichever node currently owns the
	// primary role.
	ReplicateAddr string
}

// Announcer is the registration client: a background loop that heartbeats
// this node's datacenter set and per-DC snapshot generations to a
// harvestrouter, so the router's routing table (and its staleness marking)
// tracks this node's liveness. Registration is idempotent — every beat
// carries the full state — so the router needs no catch-up protocol after
// either side restarts.
type Announcer struct {
	svc    *Service
	cfg    AnnouncerConfig
	client *http.Client

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	lastErr  atomic.Pointer[string]
	draining atomic.Bool
}

// StartAnnouncer validates the config and starts the heartbeat loop, which
// registers immediately and then beats every Interval. The first beat runs
// on the loop goroutine — an unreachable router must not delay the caller's
// serving path by a client timeout. Call Close to stop announcing.
func StartAnnouncer(svc *Service, cfg AnnouncerConfig) (*Announcer, error) {
	if cfg.RouterURL == "" {
		return nil, fmt.Errorf("announcer: RouterURL is required")
	}
	if cfg.SelfURL == "" {
		return nil, fmt.Errorf("announcer: SelfURL is required")
	}
	if cfg.ID == "" {
		cfg.ID = cfg.SelfURL
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 2 * time.Second
	}
	a := &Announcer{
		svc:    svc,
		cfg:    cfg,
		client: &http.Client{Timeout: 5 * time.Second},
		stop:   make(chan struct{}),
	}
	a.wg.Add(1)
	go a.loop()
	return a, nil
}

func (a *Announcer) loop() {
	defer a.wg.Done()
	if err := a.announce(); err != nil {
		slogger.Warn("initial registration failed, will retry",
			"router", a.cfg.RouterURL, "interval", a.cfg.Interval, "err", err)
	}
	ticker := time.NewTicker(a.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-a.stop:
			return
		case <-ticker.C:
			// Capture the previous state before announce overwrites it: log
			// on state changes only, not every missed beat — a router restart
			// would otherwise flood the log at heartbeat cadence.
			wasFailing := a.lastErr.Load() != nil
			if err := a.announce(); err != nil {
				if !wasFailing {
					slogger.Warn("registration failing", "router", a.cfg.RouterURL, "err", err)
				}
			} else if wasFailing {
				slogger.Info("registration recovered", "router", a.cfg.RouterURL)
			}
		}
	}
}

// announce sends one registration beat carrying the current per-DC snapshot
// generations.
func (a *Announcer) announce() error {
	gens := a.svc.Generations()
	req := regproto.RegisterRequest{
		ID:            a.cfg.ID,
		URL:           a.cfg.SelfURL,
		BinaryAddr:    a.cfg.BinaryAddr,
		Role:          a.svc.Role(),
		ReplicateAddr: a.cfg.ReplicateAddr,
		Draining:      a.draining.Load(),
		Datacenters:   make([]regproto.RegisterDatacenter, 0, len(gens)),
	}
	follower := a.svc.IsFollower()
	if follower {
		// The role is read per beat, not captured at start: a promotion flips
		// the very next heartbeat to "primary" and the router hands ownership
		// over without either process restarting.
		req.PrimaryID = a.svc.PrimaryID()
	}
	for _, dc := range a.svc.Datacenters() {
		req.Datacenters = append(req.Datacenters, regproto.RegisterDatacenter{Name: dc, Generation: gens[dc]})
	}
	body, err := json.Marshal(req)
	if err == nil {
		var hreq *http.Request
		hreq, err = http.NewRequest("POST", a.cfg.RouterURL+"/v1/register", bytes.NewReader(body))
		if err == nil {
			hreq.Header.Set("Content-Type", "application/json")
			if a.cfg.Token != "" {
				hreq.Header.Set("Authorization", "Bearer "+a.cfg.Token)
			}
			var resp *http.Response
			resp, err = a.client.Do(hreq)
			if err == nil {
				var ack regproto.RegisterResponse
				decErr := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&ack)
				// Drain before closing so the keep-alive connection goes
				// back to the pool — beats must not cost a TCP handshake
				// each.
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("router returned %s", resp.Status)
				} else if decErr == nil && follower && ack.PrimaryReplicateAddr != "" {
					// The router's view of who owns our datacenters — if the
					// primary died and a sibling follower was promoted, this is
					// the promoted node's replication listener and the follow
					// loop re-dials it.
					a.svc.SetFollowAddr(ack.PrimaryReplicateAddr)
				}
			}
		}
	}
	if err != nil {
		msg := err.Error()
		a.lastErr.Store(&msg)
		return err
	}
	a.lastErr.Store(nil)
	return nil
}

// Deregister sends one final heartbeat marked draining, telling the router to
// stop routing to this node right now rather than waiting out the staleness
// window. Called on SIGTERM before the listeners close, so planned restarts
// never serve a 503 out of the router. Best-effort: an unreachable router
// just falls back to staleness marking. Safe to call once, before Close.
func (a *Announcer) Deregister() {
	a.draining.Store(true)
	if err := a.announce(); err != nil {
		slogger.Warn("drain beat failed; router will age this node out", "router", a.cfg.RouterURL, "err", err)
	} else {
		slogger.Info("deregistered from router", "router", a.cfg.RouterURL)
	}
}

// Close stops the heartbeat loop. The router will mark this node stale one
// staleness window after the last beat.
func (a *Announcer) Close() {
	a.stopOnce.Do(func() { close(a.stop) })
	a.wg.Wait()
}
