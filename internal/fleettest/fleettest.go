// Package fleettest boots harvestd nodes and harvestrouter fronts inside one
// test process, on loopback, wired the way cmd/harvestd and cmd/harvestrouter
// wire them. Like net/http/httptest it is imported only by tests. It takes
// service.Config and router.Config as they are and has no options of its own:
// every node gets the same listeners, every router both fronts, and
// everything is torn down through t.Cleanup.
package fleettest

import (
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	"harvest/internal/router"
	"harvest/internal/service"
)

// Node is one started harvestd with every listener set: its JSON API, the
// binary frame server attached to that API, and a replication listener,
// which streams while the node is primary and refuses hellos while it follows.
type Node struct {
	Service       *service.Service
	API           *service.API
	URL           string // the JSON API's base URL
	BinaryAddr    string
	ReplicateAddr string

	stopHTTP func()
	bin      *service.BinaryServer
	anns     []*service.Announcer
	killed   sync.Once
}

// StartNode builds the service for cfg, starts it and its three listeners,
// and kills it when the test ends.
func StartNode(t testing.TB, cfg service.Config) *Node {
	t.Helper()
	svc, err := service.New(cfg)
	if err != nil {
		t.Fatalf("fleettest: booting node %q: %v", cfg.NodeID, err)
	}
	n := &Node{Service: svc, API: service.NewAPI(svc), bin: service.NewBinaryServer(svc)}
	t.Cleanup(n.Kill)
	svc.Start()

	bound, _, err := n.bin.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatalf("fleettest: binary listener: %v", err)
	}
	n.BinaryAddr = bound.String()
	n.API.AttachBinary(n.bin, n.BinaryAddr)

	rln := listen(t)
	svc.ArmReplicationListener(rln)
	n.ReplicateAddr = rln.Addr().String()

	n.URL, n.stopHTTP = serveHTTP(t, n.API)
	return n
}

// Announce heartbeats the node to the router at routerURL every 50 ms, under
// its node id, with its URL, binary address and replication address, until
// Kill.
func (n *Node) Announce(t testing.TB, routerURL string) {
	t.Helper()
	a, err := service.StartAnnouncer(n.Service, service.AnnouncerConfig{
		RouterURL: routerURL, SelfURL: n.URL, BinaryAddr: n.BinaryAddr, ReplicateAddr: n.ReplicateAddr,
		ID: n.Service.NodeID(), Interval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("fleettest: announcing %s: %v", n.Service.NodeID(), err)
	}
	n.anns = append(n.anns, a)
}

// Kill does to the node what SIGKILL does to a harvestd: no drain beat is
// sent, the announcers stop, and the listeners and every connection on them
// close with the service. Calls after the first do nothing.
func (n *Node) Kill() {
	n.killed.Do(func() {
		for _, a := range n.anns {
			a.Close()
		}
		if n.stopHTTP != nil {
			n.stopHTTP()
		}
		n.bin.Close()
		n.Service.Close()
	})
}

// Router is one started harvestrouter serving both of its fronts.
type Router struct {
	Router     *router.Router
	URL        string // the JSON front's base URL
	BinaryAddr string // the binary front, advertised on /v1/datacenters
}

// StartRouter builds the router for cfg and serves its JSON and binary fronts
// until the test ends.
func StartRouter(t testing.TB, cfg router.Config) *Router {
	t.Helper()
	rt := &Router{Router: router.New(cfg)}
	var stop func()
	rt.URL, stop = serveHTTP(t, rt.Router)
	t.Cleanup(func() {
		stop()
		rt.Router.Close()
	})
	addr, _, err := rt.Router.ListenAndServeBinary("127.0.0.1:0")
	if err != nil {
		t.Fatalf("fleettest: router binary front: %v", err)
	}
	t.Cleanup(rt.Router.CloseBinary)
	rt.BinaryAddr = addr.String()
	rt.Router.SetBinaryAdvertise(rt.BinaryAddr)
	return rt
}

// WaitFor polls cond every 10 ms until it holds, and fails the test naming
// what it waited for if 20 s pass first.
func WaitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(20 * time.Second); !cond(); time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// serveHTTP serves h on a loopback listener as both commands serve their
// JSON fronts. It returns the base URL and a stop function that closes the
// listener and every connection and waits for Serve to return.
func serveHTTP(t testing.TB, h http.Handler) (url string, stop func()) {
	ln := listen(t)
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(service.BatchListener{Listener: ln})
	}()
	return "http://" + ln.Addr().String(), func() {
		srv.Close()
		<-done
	}
}

func listen(t testing.TB) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("fleettest: listen: %v", err)
	}
	return ln
}
