// Command harvestrouter fronts a fleet of harvestd shards: each harvestd
// serves a subset of datacenters (-dcs) and announces itself here
// (-announce), and the router proxies /v1/{dc}/... to the owning node with
// keep-alive connection reuse and per-backend circuit breaking. The union
// surface — /v1/datacenters, /healthz, /metrics — aggregates across live
// backends, so clients (cmd/loadgen included) talk to the router exactly as
// they would to a single harvestd.
//
// Usage:
//
//	harvestrouter [-listen :7070] [-binary-listen :7071]
//	              [-stale-after 10s] [-breaker-fails 3]
//	              [-register-token TOKEN] [-debug-addr 127.0.0.1:7170]
//	              [-max-gen-lag 2]
//
// -stale-after sets the retry timings too: a 503's Retry-After hint and an
// open circuit's cooldown are a fifth of it, and a datacenter's elected
// follower is told to promote at most once per half of it.
//
// Pair it with backends like:
//
//	harvestd -listen :7081 -binary-addr :7091 -dcs DC-9 -announce http://127.0.0.1:7070
//	harvestd -listen :7082 -binary-addr :7092 -dcs DC-8 -announce http://127.0.0.1:7070
//
// Backends that announce role=follower (harvestd -follow) never own routes;
// the router spreads read-only requests — GETs, placement, dry-run selects —
// across the primary and its generation-fresh followers (-max-gen-lag bounds
// how far a follower may trail; negative pins all reads to the primary) and
// pins every state-moving request to the primary. When a primary misses its
// heartbeats, the router elects the freshest follower and tells it in the
// acknowledgement of its next beat; the follower promotes itself and its
// following beat, as primary, takes the routes.
//
// -binary-listen adds a second listener speaking the length-prefixed binary
// frame dialect (internal/wire) for the data-plane endpoints; it is
// advertised as binary_addr on /v1/datacenters. Frames are relayed over pooled
// connections to the binary listener their backend announced (harvestd
// -binary-addr). A backend that announced none is JSON-only: its datacenters
// are served on -listen as always, and a frame for one is answered with a 503
// error frame naming the backend and the missing -binary-addr.
package main

import (
	"flag"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"harvest/internal/obs"
	"harvest/internal/regproto"
	"harvest/internal/router"
	"harvest/internal/service"
)

// logger is the daemon's structured logger (component=harvestrouter).
var logger = obs.NewLogger("harvestrouter")

func main() {
	listen := flag.String("listen", ":7070", "address to serve on")
	binaryListen := flag.String("binary-listen", "", "also serve the binary frame dialect on this address (empty disables)")
	binaryAdvertise := flag.String("binary-advertise", "", "host:port to advertise as binary_addr on /v1/datacenters (default: derived from -binary-listen)")
	staleAfter := flag.Duration("stale-after", 10*time.Second, "mark a backend stale (503 its datacenters) after this long without a heartbeat; a fifth of it is the 503s' Retry-After and the breaker's cooldown")
	breakerFails := flag.Int("breaker-fails", 3, "consecutive transport failures that open a backend's circuit (negative disables)")
	registerToken := flag.String("register-token", "", "require this bearer token on POST /v1/register (registration moves routing — protect it on shared networks)")
	debugAddr := flag.String("debug-addr", "", "address for the operator debug listener (pprof, expvar, /debug/traces); empty disables. Keep it off the data-plane address.")
	maxGenLag := flag.Int("max-gen-lag", 2, "skip followers trailing the primary by more than this many generations for reads (negative pins all reads to the primary)")
	flag.Parse()

	rt := router.New(router.Config{
		StaleAfter:       *staleAfter,
		BreakerThreshold: *breakerFails,
		RegisterToken:    *registerToken,
		MaxGenLag:        *maxGenLag,
	})

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		obs.Fatal(logger, "listen failed", "addr", *listen, "err", err)
	}
	if *debugAddr != "" {
		// The debug surface stays off the data-plane listener: routing and
		// registration share -listen, operators get their own port.
		bound, err := obs.ServeDebug(*debugAddr, "harvestrouter", rt.Recorder())
		if err != nil {
			obs.Fatal(logger, "debug listener failed", "addr", *debugAddr, "err", err)
		}
		logger.Info("debug listener on", "addr", bound)
	}

	var binErrs <-chan error
	if *binaryListen != "" {
		binAddr, errc, err := rt.ListenAndServeBinary(*binaryListen)
		if err != nil {
			obs.Fatal(logger, "binary listener failed", "addr", *binaryListen, "err", err)
		}
		defer rt.CloseBinary()
		binErrs = errc
		advertise := *binaryAdvertise
		if advertise == "" {
			advertise = regproto.AdvertiseAddr(binAddr, "")
		}
		rt.SetBinaryAdvertise(advertise)
		logger.Info("binary dialect listening", "addr", binAddr.String(), "advertised", advertise)
	}
	server := obs.NewServer(rt)
	errs := make(chan error, 1)
	go func() { errs <- server.Serve(service.BatchListener{Listener: ln}) }()
	logger.Info("serving", "addr", *listen, "stale_after", *staleAfter)

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigs:
		logger.Info("shutting down", "signal", sig.String())
		server.Close()
		rt.Close()
	case err := <-errs:
		obs.Fatal(logger, "server failed", "err", err)
	case err := <-binErrs:
		obs.Fatal(logger, "binary listener failed", "err", err)
	}
}
