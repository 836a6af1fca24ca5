package router

import (
	"encoding/json"
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
// follower of that primary and tells it so in the acknowledgement of its own
// beat (promoteWinner); the node promotes itself, keeping the replicated
// ledger, so outstanding leases survive the handoff and release exactly once
// under their original ids.

// backendHeader names the replica that actually served a routed request. The
// router stamps it on every proxied JSON response so load generators and
// TestFailoverChainThroughTheRouter can attribute read share per backend.
const backendHeader = "X-Harvest-Backend"

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
// owner; reads spread across the owner and its eligible followers — for a
// binary request, only those that announced a binary listener. Never returns
// a follower for a write. A nil return means the datacenter is unknown.
func (rt *Router) pickBackend(dc string, read, binary bool, now time.Time) *backend {
	// Owner and replicas in one read of the table: a promoted follower's claim
	// between two reads left a read only the dead old owner, and a 503.
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	owner := rt.table[dc].owner
	if !read || rt.cfg.MaxGenLag < 0 {
		return owner
	}
	if b := rt.pickReadReplica(dc, owner, binary, now); b != nil {
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
// A binary read skips followers with no binary listener: the binary front
// could only refuse it there, and a follower that refuses instantly has
// nothing in flight, so power-of-two-choices would favour it. The caller holds
// rt.mu for reading.
func (rt *Router) pickReadReplica(dc string, owner *backend, binary bool, now time.Time) *backend {
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
		if g, ok := follower(b); ok && g+lag >= refGen && (!binary || b.binAddr != "") {
			consider(b)
		}
	}
	if owner != nil && usable(owner) {
		consider(owner)
	}

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

// promoteWinner reports whether the beating follower b is the one to replace
// an owner that stopped beating — or announced a planned drain — for some
// datacenter b announces: of the dead owner's alive followers serving it, the
// highest announced generation, then the lexicographically smallest id, so
// concurrent routers converge on one winner. A datacenter with no owner
// deliberately elects nobody: at startup a follower often registers before
// its primary's first beat, and promoting it then would split the brain
// against a perfectly healthy primary. The winner is told at most once per
// StaleAfter/2 for one datacenter, so a flapping primary cannot trigger a
// promotion storm; a loser's beat leaves that window untouched. The caller
// holds rt.mu for writing.
func (rt *Router) promoteWinner(b *backend, now time.Time) bool {
	won := false
	for dc, gen := range b.dcs {
		dead := rt.table[dc].owner
		if dead == nil || rt.routable(dead, now) {
			continue
		}
		if last, ok := rt.lastPromote[dc]; ok && now.Sub(last) < rt.cfg.StaleAfter/2 {
			continue
		}
		if rt.freshestFollower(dc, dead, now) != b {
			continue
		}
		rt.lastPromote[dc] = now
		won = true
		rlog.Info("promoting follower to primary", "dc", dc, "backend", b.id,
			"generation", gen, "dead_primary", dead.id)
	}
	return won
}

// freshestFollower elects among dead's alive followers serving dc: a follower
// replicating some other primary holds the wrong books. The caller holds
// rt.mu.
func (rt *Router) freshestFollower(dc string, dead *backend, now time.Time) *backend {
	var winner *backend
	var winGen uint64
	for _, f := range rt.backends {
		if f.role != "follower" || !rt.routable(f, now) || (f.primaryID != "" && f.primaryID != dead.id) {
			continue
		}
		gen, serves := f.dcs[dc]
		if !serves {
			continue
		}
		if winner == nil || gen > winGen || (gen == winGen && f.id < winner.id) {
			winner, winGen = f, gen
		}
	}
	return winner
}
