// Package fleettest boots harvestd nodes and harvestrouter fronts inside one
// test process, on loopback, wired the way cmd/harvestd and cmd/harvestrouter
// wire them. Like net/http/httptest it is imported only by tests. It takes
// service.Config and router.Config as they are and has no options of its own:
// every node gets the same listeners, every router both fronts, and
// everything is torn down through t.Cleanup. Nodes and routers whose configs
// name one Clock run their background work when the test steps it.
package fleettest

import (
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	"harvest/internal/clock"
	"harvest/internal/obs"
	"harvest/internal/router"
	"harvest/internal/service"
	"harvest/internal/simulator"
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
	srv := obs.NewServer(h)
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

// Clock is a stepped clock.Clock for the nodes and routers of one test. Time
// stands still until Step or Advance moves it, and a background job sleeping
// on it runs only when a step releases it: one job at a time, in deadline
// order, and at one instant in name order ("node job"), so a test steps its
// fleet in the same order on every run while sockets stay real. Deadlines are
// the events of a simulator.Engine. A job that ran outside any step (at its
// start, or on a stream breaking) is seen once it waits (Parked); a released
// job that does not wait again, such as a follow job whose redial joins a
// live primary, holds its step until it does. One goroutine steps a Clock.
type Clock struct {
	mu      sync.Mutex
	moved   sync.Cond // a waiter parked or stopped
	eng     *simulator.Engine
	epoch   time.Time
	waiters map[*waiter]bool
	stepped string // the waiter the running Step released
}

type waiter struct {
	c       *Clock
	name    string
	parked  bool          // false from its making, and from a release, until it waits
	at      time.Duration // the deadline it is parked on
	wake    <-chan struct{}
	release chan struct{}
}

// NewClock returns a stepped clock that reads the wall time it was made at.
func NewClock() *Clock {
	c := &Clock{eng: simulator.New(), epoch: time.Now(), waiters: map[*waiter]bool{}}
	c.moved.L = &c.mu
	return c
}

// Now is the clock's time.
func (c *Clock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch.Add(c.eng.Now())
}

// Waiter makes a job's waiter, which counts as running until it first waits.
func (c *Clock) Waiter(name string) clock.Waiter {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := &waiter{c: c, name: name, release: make(chan struct{}, 1)}
	c.waiters[w] = true
	return w
}

// Step releases the job due first, moving time to its deadline, and returns
// the name of its waiter once the job waits again or has ended ("" when no
// job waits). Before that, and after, it lets each job a wake holds a token
// for run in turn, without moving time, and waits for every job it or they
// started to wait.
func (c *Clock) Step() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.settle()
	for c.stepped = ""; c.stepped == "" && c.eng.Step(); {
	}
	return c.stepped
}

// Advance steps every job due within d, in order, and moves time on by d.
func (c *Clock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.settle()
	c.eng.Run(c.eng.Now() + d)
}

// Parked waits until a waiter of each name waits.
func (c *Clock) Parked(names ...string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, name := range names {
		for !c.parked(name) {
			c.moved.Wait()
		}
	}
}

func (c *Clock) parked(name string) bool {
	for w := range c.waiters {
		if w.name == name && w.parked {
			return true
		}
	}
	return false
}

// fire is the event of a deadline at: it releases the waiter parked on at
// with the least name, if one still is, and waits for the step to settle.
// Each wait schedules one event, so every waiter parked on at is released
// before time passes it.
func (c *Clock) fire(at time.Duration) {
	var next *waiter
	for w := range c.waiters {
		if w.parked && w.at == at && (next == nil || w.name < next.name) {
			next = w
		}
	}
	if next != nil {
		c.stepped = next.name
		c.release(next)
		c.settle()
	}
}

// release runs w's job once, which serves a wake it holds a token for too.
func (c *Clock) release(w *waiter) {
	w.parked = false
	select {
	case <-w.wake:
	default:
	}
	select {
	case w.release <- struct{}{}:
	default:
	}
}

// settle waits until every job waits, releasing one a wake holds a token
// for, in name order, whenever none runs.
func (c *Clock) settle() {
	for {
		running, woken := false, (*waiter)(nil)
		for w := range c.waiters {
			if !w.parked {
				running = true
			} else if len(w.wake) > 0 && (woken == nil || w.name < woken.name) {
				woken = w
			}
		}
		switch {
		case running:
			c.moved.Wait()
		case woken != nil:
			c.release(woken)
		default:
			return
		}
	}
}

func (w *waiter) Wait(deadline time.Time, wake, done <-chan struct{}) {
	c := w.c
	c.mu.Lock()
	w.parked, w.wake = true, wake
	w.at = max(deadline.Sub(c.epoch), c.eng.Now())
	c.eng.Schedule(w.at, c.fire)
	c.moved.Broadcast()
	c.mu.Unlock()
	select {
	case <-w.release:
	case <-done:
	}
}

func (w *waiter) Stop() {
	c := w.c
	c.mu.Lock()
	delete(c.waiters, w)
	c.moved.Broadcast()
	c.mu.Unlock()
}
