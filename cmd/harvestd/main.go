// Command harvestd runs the cluster characterization service as a daemon: it
// bootstraps the configured datacenters, seeds each tenant's telemetry ring
// from the generated trace, then serves the utilization classes plus the
// class-selection (Alg. 1) and replica-placement (Alg. 2) algorithms over an
// HTTP JSON API while live telemetry arrives via POST /v1/{dc}/telemetry.
// Each refresh re-clusters from ring contents, warm-starting from the
// previous generation's centroids (every -full-every-th refresh rebuilds
// from scratch as the correctness backstop).
//
// Satisfiable selects reserve their cores in the live allocation ledger and
// return a lease; POST /v1/{dc}/release returns the cores, and a background
// sweep reclaims leases whose holder died (-lease-ttl).
//
// Usage:
//
//	harvestd [-listen :7077] [-binary-addr :7078] [-dcs DC-9,DC-3 | -dcs all]
//	         [-scale 0.05] [-refresh 30s] [-ring-slots 21600] [-full-every 24]
//	         [-persist DIR] [-seed 1]
//	         [-lease-ttl 2m] [-tenant-stale-after 0]
//	         [-ingest-token TOKEN] [-ingest-rate 0]
//	         [-announce http://router:7070] [-announce-interval 2s]
//	         [-advertise http://host:7077] [-node-id NAME]
//	         [-announce-token TOKEN] [-debug-addr 127.0.0.1:7177]
//	         [-replicate-addr :7079] [-follow primary:7079] [-repl-interval 250ms]
//
// With -announce, the daemon heartbeats its datacenter set and per-DC
// snapshot generations to a harvestrouter front end (cmd/harvestrouter), so
// one trace can be split across nodes (-dcs picks this node's subset) behind
// one routing surface.
//
// With -replicate-addr, the daemon is a replication primary: it streams
// (snapshot, ledger-occupancy, block-book) generations to every follower that
// connects. With -follow, it runs as a read-only follower of that primary
// instead — it serves class queries, placement, and advisory dry-run selects
// from the replicated state (writes get a retryable 503) until POST
// /v1/promote flips it to primary. A follower may carry -replicate-addr too:
// the listener stays armed but idle, and promotion starts serving replication
// on it, so the promoted node can feed the remaining followers (which learn
// the new address from the router's register acknowledgements). Both modes
// require an explicit -node-id: the follower announces its primary's identity
// to the router, and the names must match the primary's own registration for
// read spreading and failover to engage.
//
// With -binary-addr, a second listener speaks the binary frame protocol
// (internal/wire) for the select/release/place/classes hot path — same
// semantics as the JSON API at a fraction of the per-request cost. The
// address is advertised on /v1/datacenters (and, with -announce, to the
// router) so clients and routers discover it instead of configuring it.
//
// See README.md for the API routes; `cmd/loadgen` drives it (and its
// -telemetry mode feeds it live samples).
package main

import (
	"flag"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"harvest/internal/experiments"
	"harvest/internal/obs"
	"harvest/internal/service"
)

// logger is the daemon's structured logger (component=harvestd).
var logger = obs.NewLogger("harvestd")

// splitNonEmpty splits a comma-separated flag value, dropping empty entries
// (so an unset flag yields nil, not [""]).
func splitNonEmpty(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// advertisedURL derives a router-reachable base URL from the bound listener
// address: a wildcard host becomes the loopback address (the single-machine
// default; multi-host deployments pass -advertise explicitly).
func advertisedURL(addr net.Addr) string {
	host, port, err := net.SplitHostPort(addr.String())
	if err != nil {
		return "http://" + addr.String()
	}
	switch host {
	case "", "::", "0.0.0.0":
		host = "127.0.0.1"
	}
	return "http://" + net.JoinHostPort(host, port)
}

// advertisedHostPort derives an externally reachable host:port for a bound
// auxiliary listener: the host comes from -advertise when set (the node
// already knows its public name), otherwise from the listener with wildcard
// hosts mapped to loopback; the port is always the bound one.
func advertisedHostPort(bound net.Addr, advertise string) string {
	_, port, err := net.SplitHostPort(bound.String())
	if err != nil {
		return bound.String()
	}
	host := ""
	if advertise != "" {
		if u, err := url.Parse(advertise); err == nil {
			host = u.Hostname()
		}
	}
	if host == "" {
		if h, _, err := net.SplitHostPort(bound.String()); err == nil {
			host = h
		}
	}
	switch host {
	case "", "::", "0.0.0.0":
		host = "127.0.0.1"
	}
	return net.JoinHostPort(host, port)
}

func main() {
	listen := flag.String("listen", ":7077", "address to serve the HTTP API on")
	binaryAddr := flag.String("binary-addr", "", "address to serve the binary frame protocol on (empty disables)")
	dcs := flag.String("dcs", "all", "comma-separated datacenters to serve, or \"all\"")
	scaleFactor := flag.Float64("scale", 0.05, "datacenter scale relative to the paper's setup")
	refresh := flag.Duration("refresh", 30*time.Second, "wall-clock period between snapshot rebuilds (0 disables)")
	ringSlots := flag.Int("ring-slots", 0, "per-tenant telemetry ring capacity in 2-minute samples (0 = one month)")
	fullEvery := flag.Int("full-every", 24, "re-cluster from scratch every Nth refresh (negative = always warm-start)")
	persist := flag.String("persist", "", "directory to persist snapshots and the allocation ledger to (and restore from at boot)")
	seed := flag.Int64("seed", 1, "random seed")
	leaseTTL := flag.Duration("lease-ttl", 2*time.Minute, "default select-reservation lifetime before the expiry sweep reclaims it (negative disables expiry)")
	staleAfter := flag.Duration("tenant-stale-after", 0, "evict telemetry rings of tenants silent for this long (0 disables)")
	ingestToken := flag.String("ingest-token", "", "require this bearer token on POST /v1/{dc}/telemetry")
	ingestRate := flag.Float64("ingest-rate", 0, "per-source telemetry POSTs per second (0 = unlimited)")
	announce := flag.String("announce", "", "comma-separated harvestrouter base URLs to register this node's datacenters with (one heartbeat loop each — list every router replica)")
	announceEvery := flag.Duration("announce-interval", 2*time.Second, "registration heartbeat cadence when -announce is set")
	advertise := flag.String("advertise", "", "externally reachable base URL of this node (default: derived from -listen)")
	nodeID := flag.String("node-id", "", "stable backend identity for router registration (default: the advertised URL)")
	announceToken := flag.String("announce-token", "", "bearer token for router registration (must match the router's -register-token)")
	trustedProxies := flag.String("trusted-proxies", "", "comma-separated router IPs/CIDRs whose X-Forwarded-For keys the per-source ingest rate limit (the header is ignored from all other peers)")
	debugAddr := flag.String("debug-addr", "", "address for the operator debug listener (pprof, expvar, /debug/traces); empty disables. Keep it off the data-plane address.")
	replicateAddr := flag.String("replicate-addr", "", "address to stream replication frames to followers on (live on a primary, armed for promotion on a follower; empty disables)")
	follow := flag.String("follow", "", "primary's replication address (host:port) to follow as a read-only replica")
	replInterval := flag.Duration("repl-interval", 0, "replication ship cadence on the primary (0 = 250ms)")
	flag.Parse()

	cfg := service.DefaultConfig()
	cfg.Scale = experiments.Scale{Datacenter: *scaleFactor, Seed: *seed}
	cfg.RefreshPeriod = *refresh
	cfg.RingSlots = *ringSlots
	cfg.FullRebuildEvery = *fullEvery
	cfg.PersistDir = *persist
	cfg.Seed = *seed
	cfg.LeaseTTL = *leaseTTL
	cfg.TenantStaleAfter = *staleAfter
	if (*follow != "" || *replicateAddr != "") && *nodeID == "" {
		// Replication identity rides the router's registration: the follower
		// announces primary_id=<primary's -node-id>, and the router only
		// spreads reads to (and promotes) followers whose primary id matches
		// the primary's registration id. Without explicit names the two
		// default to different strings and the mesh silently never engages.
		obs.Fatal(logger, "-node-id is required with -follow or -replicate-addr")
	}
	if *nodeID != "" {
		cfg.NodeID = *nodeID
	}
	cfg.FollowAddr = *follow
	if *replInterval > 0 {
		cfg.ReplInterval = *replInterval
	} else {
		cfg.ReplInterval = 250 * time.Millisecond
	}
	if *dcs != "" && *dcs != "all" {
		cfg.Datacenters = splitNonEmpty(*dcs)
		if len(cfg.Datacenters) == 0 {
			// An empty cfg.Datacenters means "serve everything" — a typo'd
			// -dcs must not silently boot (and announce) every datacenter.
			obs.Fatal(logger, "-dcs selects no datacenters", "dcs", *dcs)
		}
	}

	start := time.Now()
	svc, err := service.New(cfg)
	if err != nil {
		obs.Fatal(logger, "boot failed", "err", err)
	}
	for _, dc := range svc.Datacenters() {
		st, _ := svc.Stats(dc)
		logger.Info("datacenter ready", "dc", dc, "classes", st.Classes, "servers", st.Servers,
			"tenants", st.Tenants, "generation", st.Generation, "build", time.Duration(st.BuildMs)*time.Millisecond)
	}
	svc.Start()
	defer svc.Close()
	logger.Info("bootstrapped", "datacenters", len(svc.Datacenters()),
		"took", time.Since(start).Round(time.Millisecond), "refresh", *refresh, "full_every", *fullEvery)

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		obs.Fatal(logger, "listen failed", "addr", *listen, "err", err)
	}
	api := service.NewAPIWith(svc, service.APIOptions{
		IngestToken:         *ingestToken,
		IngestRatePerSource: *ingestRate,
		TrustedProxies:      splitNonEmpty(*trustedProxies),
	})
	var binAdvertise string
	var binErrs <-chan error
	if *binaryAddr != "" {
		bs := service.NewBinaryServer(svc)
		bound, errc, err := bs.ListenAndServe(*binaryAddr)
		if err != nil {
			obs.Fatal(logger, "binary listener failed", "addr", *binaryAddr, "err", err)
		}
		defer bs.Close()
		binErrs = errc
		binAdvertise = advertisedHostPort(bound, *advertise)
		api.AttachBinary(bs, binAdvertise)
		logger.Info("binary protocol listening", "addr", bound.String(), "advertised", binAdvertise)
	}
	var replAdvertise string
	if *replicateAddr != "" {
		rln, err := net.Listen("tcp", *replicateAddr)
		if err != nil {
			obs.Fatal(logger, "replication listener failed", "addr", *replicateAddr, "err", err)
		}
		// The service owns the listener from here; svc.Close shuts it down.
		// On a primary it serves immediately; on a follower it stays armed
		// until promotion.
		svc.ArmReplicationListener(rln)
		replAdvertise = advertisedHostPort(rln.Addr(), *advertise)
		if *follow != "" {
			logger.Info("replication listener armed for promotion", "addr", rln.Addr().String())
		} else {
			logger.Info("replicating to followers", "addr", rln.Addr().String(), "interval", cfg.ReplInterval)
		}
	}
	if *follow != "" {
		logger.Info("following primary", "addr", *follow, "node", cfg.NodeID)
	}
	if *debugAddr != "" {
		// The debug surface (pprof, expvar, build info, the trace viewer)
		// lives on its own listener so it is never reachable through the
		// data-plane address a router or client is pointed at.
		bound, err := obs.ServeDebug(*debugAddr, "harvestd", api.Recorder())
		if err != nil {
			obs.Fatal(logger, "debug listener failed", "addr", *debugAddr, "err", err)
		}
		logger.Info("debug listener on", "addr", bound)
	}
	var announcers []*service.Announcer
	if *announce != "" {
		selfURL := *advertise
		if selfURL == "" {
			selfURL = advertisedURL(ln.Addr())
		}
		routers := splitNonEmpty(*announce)
		if len(routers) == 0 {
			obs.Fatal(logger, "-announce selects no routers", "announce", *announce)
		}
		for _, routerURL := range routers {
			ann, err := service.StartAnnouncer(svc, service.AnnouncerConfig{
				RouterURL:     strings.TrimRight(routerURL, "/"),
				SelfURL:       selfURL,
				BinaryAddr:    binAdvertise,
				ReplicateAddr: replAdvertise,
				ID:            *nodeID,
				Interval:      *announceEvery,
				Token:         *announceToken,
			})
			if err != nil {
				obs.Fatal(logger, "announcer failed", "router", routerURL, "err", err)
			}
			announcers = append(announcers, ann)
			defer ann.Close()
		}
		logger.Info("announcing", "datacenters", strings.Join(svc.Datacenters(), ","),
			"self", selfURL, "routers", *announce, "interval", *announceEvery)
	}
	// BatchListener coalesces pipelined responses into one write syscall per
	// batch; see internal/service/batchconn.go. The timeouts reclaim
	// goroutines from clients that stall mid-header or idle forever.
	server := &http.Server{
		Handler:           api,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errs := make(chan error, 1)
	go func() { errs <- server.Serve(service.BatchListener{Listener: ln}) }()
	logger.Info("serving", "addr", *listen)

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigs:
		logger.Info("shutting down", "signal", sig.String())
		// Drain first, close second: the final heartbeat tells every router
		// to take this node out of rotation *before* the listeners go away,
		// so a planned restart never bounces a request off a closed socket.
		for _, ann := range announcers {
			ann.Deregister()
		}
		server.Close()
	case err := <-errs:
		obs.Fatal(logger, "server failed", "err", err)
	case err := <-binErrs:
		// A node that announces a binary_addr nobody accepts on must not stay up.
		obs.Fatal(logger, "binary listener failed", "err", err)
	}
}
