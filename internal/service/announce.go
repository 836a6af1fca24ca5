package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"harvest/internal/regproto"
	"harvest/internal/wire"
)

// AnnouncerConfig wires a service into a harvestrouter front end.
type AnnouncerConfig struct {
	// RouterURL is the router's http(s) base URL; the announcer upgrades a
	// POST {RouterURL}/v1/register to its registration connection.
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
	// ReplicateAddr is this node's replication listener (host:port), which
	// streams once the node is primary. Announced so the router
	// can point orphaned followers at whichever node currently owns the
	// primary role.
	ReplicateAddr string
}

// Announcer is the registration client: a background job that heartbeats
// this node's datacenter set and per-DC snapshot generations to a
// harvestrouter, so the router's routing table (and its staleness marking)
// tracks this node's liveness. Registration is idempotent — every beat
// carries the full state — so the router needs no catch-up protocol after
// either side restarts. The beats are frames on one upgraded connection
// (internal/regproto), built in storage the announcer keeps, so a steady
// node heartbeats without allocating.
type Announcer struct {
	svc  *Service
	cfg  AnnouncerConfig
	stop func() // ends the announce job and waits for it

	draining atomic.Bool

	// mu serializes the beats of the job and Deregister over conn, the
	// connection to the router (nil until dialed, and after it broke), and
	// the beat and acknowledgement every beat refills.
	mu   sync.Mutex
	conn *regproto.Conn
	beat regproto.RegisterRequest
	ack  regproto.RegisterResponse
}

// beatTimeout bounds dialing the router and each beat's round trip.
const beatTimeout = 5 * time.Second

// StartAnnouncer validates the config and starts the announce job: a beat at
// once, on the job's goroutine (an unreachable router must not delay the
// caller by a dial timeout), then every Interval, and when a follower learns a
// new primary. Close, or the service's Close, stops announcing.
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
	for _, s := range []string{cfg.ID, cfg.SelfURL, cfg.BinaryAddr, cfg.ReplicateAddr} {
		if len(s) > wire.MaxStr8 {
			return nil, fmt.Errorf("announcer: %.32q... is longer than a beat carries (%d bytes)", s, wire.MaxStr8)
		}
	}
	a := &Announcer{
		svc: svc,
		cfg: cfg,
		beat: regproto.RegisterRequest{
			ID:            cfg.ID,
			URL:           cfg.SelfURL,
			BinaryAddr:    cfg.BinaryAddr,
			ReplicateAddr: cfg.ReplicateAddr,
		},
	}
	for _, dc := range svc.Datacenters() {
		a.beat.Datacenters = append(a.beat.Datacenters, wire.ReplDCGen{DC: dc})
	}
	// The job logs a beat's failure on state changes only, not every missed
	// beat: a router restart would otherwise flood the log at heartbeat cadence.
	failing := false
	a.stop = svc.jobs.spawn(job{name: "announce " + cfg.RouterURL, every: cfg.Interval, now: true, wakes: true, run: func(context.Context) time.Duration {
		if err := a.announce(); err != nil && !failing {
			slogger.Warn("registration failing, will retry", "router", a.cfg.RouterURL, "interval", a.cfg.Interval, "err", err)
			failing = true
		} else if err == nil && failing {
			slogger.Info("registration recovered", "router", a.cfg.RouterURL)
			failing = false
		}
		return 0
	}})
	return a, nil
}

// announce sends one registration beat carrying the current per-DC snapshot
// generations. A follower whose acknowledgement elects it to replace its
// primary promotes itself and beats again at once, as primary, which takes
// the routes.
func (a *Announcer) announce() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	for {
		// The role is read per beat, not captured at start: a promotion flips
		// the very next heartbeat to "primary" and the router hands ownership
		// over without either process restarting.
		a.beat.Role = a.svc.Role()
		follower := a.beat.Role == "follower"
		a.beat.PrimaryID = ""
		if follower {
			a.beat.PrimaryID = a.svc.PrimaryID()
		}
		a.beat.Draining = a.draining.Load()
		for i := range a.beat.Datacenters {
			dc := &a.beat.Datacenters[i]
			dc.Generation = a.svc.Generation(dc.DC)
		}
		if err := a.send(); err != nil {
			return err
		}
		if !follower {
			return nil
		}
		if a.ack.Promote {
			a.svc.Promote()
			continue
		}
		// The router's view of who owns our datacenters — if the primary died
		// and a sibling follower was promoted, this is the promoted node's
		// replication listener and the follow job re-dials it.
		a.svc.SetFollowAddr(a.ack.PrimaryReplicateAddr)
		return nil
	}
}

// send beats on the router connection, dialing one when there is none. A
// connection that breaks mid-beat is dropped, and when it had carried beats
// before — the router restarted, say — the beat is retried at once on a
// fresh one rather than a whole interval later. A refused beat leaves the
// connection as it is.
func (a *Announcer) send() error {
	for {
		fresh := a.conn == nil
		if fresh {
			c, err := regproto.Dial(a.cfg.RouterURL, a.cfg.Token, beatTimeout)
			if err != nil {
				return err
			}
			a.conn = c
		}
		err := a.conn.Beat(&a.beat, &a.ack)
		if err == nil {
			return nil
		}
		if refused := (*regproto.RefusedError)(nil); errors.As(err, &refused) {
			return err
		}
		a.conn.Close()
		a.conn = nil
		if fresh {
			return err
		}
	}
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

// Close stops the announce job and closes the router connection. The router
// will mark this node stale one staleness window after the last beat.
func (a *Announcer) Close() {
	a.stop()
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.conn != nil {
		a.conn.Close()
		a.conn = nil
	}
}
