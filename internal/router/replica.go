package router

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand/v2"
	"net/http"
	"time"

	"harvest/internal/wire"
)

// Read fan-out across replicas. A primary harvestd ships its snapshots and
// ledger occupancy to read-only followers (internal/service replication);
// both register here, followers announcing role "follower" plus the primary
// they track. The router pins every state-moving request to the datacenter's
// owning primary and spreads the read-only ones — class queries, placement,
// advisory dry-run selects — across the primary and its generation-fresh
// followers, picking by power-of-two-choices on in-flight count. A follower
// whose announced generation trails the primary's by more than MaxGenLag is
// skipped until it catches up, so a stalled replica can never serve
// arbitrarily stale characterizations.
//
// When a primary stops beating, the router elects the freshest alive
// follower of that primary and POSTs its /v1/promote endpoint; the promoted
// node keeps the replicated ledger, so outstanding leases survive the
// handoff and release exactly once under their original ids.

// backendHeader names the replica that actually served a routed request. The
// router stamps it on every proxied JSON response so load generators and the
// CI smoke job can attribute read share per backend.
const backendHeader = "X-Harvest-Backend"

// promoteTimeout bounds the inline promotion POST: it runs on a request
// path, so it must fail fast rather than ride the full proxy timeout.
const promoteTimeout = 2 * time.Second

// isReadRequest classifies one proxied JSON request. Reads are safe on a
// generation-fresh follower: GETs (classes, server class, leases, metrics)
// and what the op table marks as reads — placement (pure computation against
// the snapshot) and advisory dry-run selects. Everything that moves ledger or
// telemetry state stays pinned to the primary.
func isReadRequest(method, rest string, body []byte) bool {
	if method == http.MethodGet {
		return true
	}
	info := wire.OpForRoute(method, rest)
	if info == nil {
		return false
	}
	if info.Access == wire.ReadIfDryRun {
		var probe struct {
			DryRun bool `json:"dry_run"`
		}
		return json.Unmarshal(body, &probe) == nil && probe.DryRun
	}
	return info.Access == wire.Read
}

// pickBackend resolves the backend for one request. Writes go to the table
// owner, with a promotion attempt when the owner stopped beating; reads
// spread across the owner and its eligible followers. Never returns a
// follower for a write. A nil return means the datacenter is unknown.
func (rt *Router) pickBackend(dc string, read bool, now time.Time) *backend {
	rt.mu.RLock()
	owner := rt.table[dc].owner
	rt.mu.RUnlock()
	if owner != nil && !rt.routable(owner, now) {
		// A known owner stopped beating — or announced a planned drain:
		// elect a replacement. On success the promoted node serves this very
		// request — writes recover without waiting a heartbeat. A nil owner
		// deliberately does NOT promote: at startup a follower often
		// registers before its primary's first beat, and promoting it then
		// would split the brain against a perfectly healthy primary.
		// Followers still serve reads below.
		if promoted := rt.maybePromote(dc, owner, now); promoted != nil {
			owner = promoted
		}
	}
	if !read || rt.cfg.MaxGenLag < 0 {
		return owner
	}
	if b := rt.pickReadReplica(dc, owner, now); b != nil {
		return b
	}
	return owner
}

// pickReadReplica picks a read target among the owner and the alive,
// circuit-closed followers within MaxGenLag generations of the primary's
// announced generation: two random candidates, fewer in-flight requests
// wins. Returns nil when nothing is eligible (caller falls back to the
// owner and its usual staleness/breaker handling). It runs on every relayed
// read, so the candidates are sampled as the backends are walked, not listed.
func (rt *Router) pickReadReplica(dc string, owner *backend, now time.Time) *backend {
	nowNanos := now.UnixNano()
	lag := uint64(rt.cfg.MaxGenLag)
	usable := func(b *backend) bool {
		return rt.routable(b, now) && b.openUntil.Load() <= nowNanos
	}
	// follower reports a usable follower serving this route, and the
	// generation it announced for dc.
	follower := func(b *backend) (gen uint64, ok bool) {
		if b.role != "follower" || b == owner {
			return 0, false
		}
		// Followers of a *different* primary may announce the same DC during
		// a migration; their books are someone else's, so they never serve
		// this route.
		if owner != nil && b.primaryID != "" && b.primaryID != owner.id {
			return 0, false
		}
		gen, serves := b.dcs[dc]
		return gen, serves && usable(b)
	}
	// Reservoir sampling of size two: every pair of candidates is equally
	// likely to be the one compared.
	var first, second *backend
	n := 0
	consider := func(b *backend) {
		n++
		switch {
		case n == 1:
			first = b
		case n == 2:
			second = b
		default:
			switch rand.IntN(n) {
			case 0:
				first = b
			case 1:
				second = b
			}
		}
	}

	rt.mu.RLock()
	var refGen uint64
	if owner != nil {
		refGen = owner.dcs[dc]
	} else {
		// No primary to anchor staleness on: gate followers against the
		// freshest of themselves, so a replica that stalled before the
		// primary died still cannot serve arbitrarily old state.
		for _, b := range rt.backends {
			if g, ok := follower(b); ok && g > refGen {
				refGen = g
			}
		}
	}
	for _, b := range rt.backends {
		if g, ok := follower(b); ok && g+lag >= refGen {
			consider(b)
		}
	}
	if owner != nil && usable(owner) {
		consider(owner)
	}
	rt.mu.RUnlock()

	if second == nil {
		return first // the only candidate, or none
	}
	// Which of the two a tie goes to must be random too: the owner is always
	// considered last.
	if rand.IntN(2) == 0 {
		first, second = second, first
	}
	if second.inflight.Load() < first.inflight.Load() {
		return second
	}
	return first
}

// maybePromote elects a replacement when a datacenter's owner stopped
// beating: the freshest alive follower of the missing primary — highest
// announced generation, lexicographically smallest id on ties so concurrent
// routers converge on one winner — gets POST /v1/promote. On success the
// winner takes over every datacenter it announces that the dead owner
// stranded. Attempts are cooldown-limited per datacenter so a flapping
// primary cannot trigger a promotion storm.
func (rt *Router) maybePromote(dc string, dead *backend, now time.Time) *backend {
	rt.promoteMu.Lock()
	if last, ok := rt.lastPromote[dc]; ok && now.Sub(last) < rt.cfg.PromoteCooldown {
		rt.promoteMu.Unlock()
		return nil
	}
	rt.lastPromote[dc] = now
	rt.promoteMu.Unlock()

	var winner *backend
	var winURL string
	var winGen uint64
	rt.mu.RLock()
	for _, b := range rt.backends {
		if b.role != "follower" || !rt.routable(b, now) {
			continue
		}
		// Only followers of the backend that actually went missing: a
		// follower replicating some other primary holds the wrong books.
		if dead != nil && b.primaryID != "" && b.primaryID != dead.id {
			continue
		}
		gen, serves := b.dcs[dc]
		if !serves {
			continue
		}
		if winner == nil || gen > winGen || (gen == winGen && b.id < winner.id) {
			winner, winURL, winGen = b, b.url, gen
		}
	}
	rt.mu.RUnlock()
	if winner == nil {
		return nil
	}

	deadID := "(none)"
	if dead != nil {
		deadID = dead.id
	}
	ctx, cancel := context.WithTimeout(context.Background(), promoteTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, winURL+"/v1/promote", bytes.NewReader([]byte("{}")))
	if err != nil {
		return nil
	}
	req.Header.Set("Content-Type", "application/json")
	if rt.cfg.PromoteToken != "" {
		req.Header.Set("Authorization", "Bearer "+rt.cfg.PromoteToken)
	}
	req.Header.Set(hopHeader, "1")
	resp, err := rt.client.Do(req)
	if err != nil {
		rlog.Warn("promotion attempt failed", "dc", dc, "candidate", winner.id, "err", err)
		return nil
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		rlog.Warn("promotion rejected", "dc", dc, "candidate", winner.id, "status", resp.Status)
		return nil
	}

	// The winner is a primary now. Flip its role and the stranded routes
	// immediately rather than waiting for its next heartbeat to confirm —
	// writes recover on this very request. Its own beats (which read the
	// role live) say "primary" from here on.
	rt.mu.Lock()
	winner.role = "primary"
	winner.primaryID = ""
	for name := range winner.dcs {
		if prev := rt.table[name].owner; prev == nil || prev == dead || !rt.routable(prev, now) {
			rt.table[name] = route{name: name, owner: winner}
		}
	}
	rt.mu.Unlock()
	rt.promotions.Add(1)
	rlog.Info("promoted follower to primary", "dc", dc, "backend", winner.id,
		"generation", winGen, "dead_primary", deadID)
	return winner
}
