package router_test

import (
	"bufio"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"harvest/internal/router"
	"harvest/internal/service"
	"harvest/internal/wire"
)

// binConn is a minimal sequential binary client for router tests.
type binConn struct {
	t       *testing.T
	c       net.Conn
	br      *bufio.Reader
	scratch []byte
}

func dialBin(t *testing.T, addr string) *binConn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	t.Cleanup(func() { c.Close() })
	return &binConn{t: t, c: c, br: bufio.NewReader(c)}
}

func (b *binConn) roundTrip(frame []byte) (wire.Header, []byte) {
	b.t.Helper()
	if _, err := b.c.Write(frame); err != nil {
		b.t.Fatalf("write: %v", err)
	}
	h, payload, err := wire.ReadFrame(b.br, &b.scratch)
	if err != nil {
		b.t.Fatalf("read frame: %v", err)
	}
	return h, payload
}

// startRouterBinary attaches a binary front end to rt on a loopback port.
func startRouterBinary(t *testing.T, rt *router.Router) string {
	t.Helper()
	addr, _, err := rt.ListenAndServeBinary("127.0.0.1:0")
	if err != nil {
		t.Fatalf("binary listen: %v", err)
	}
	t.Cleanup(rt.CloseBinary)
	rt.SetBinaryAdvertise(addr.String())
	return addr.String()
}

// echoBackend is a fake binary backend: every frame is answered with its
// response opcode and its own payload, under the id it arrived with — until
// hold is set, from when it reads frames, counts them in held and answers
// nothing.
type echoBackend struct {
	ln    net.Listener
	mu    sync.Mutex
	conns []net.Conn
	hold  atomic.Bool
	held  atomic.Int64
}

func startEchoBackend(t *testing.T) *echoBackend {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	eb := &echoBackend{ln: ln}
	t.Cleanup(eb.kill)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			eb.mu.Lock()
			eb.conns = append(eb.conns, c)
			eb.mu.Unlock()
			go func() {
				defer c.Close()
				br := bufio.NewReader(c)
				var scratch []byte
				for {
					h, payload, err := wire.ReadFrame(br, &scratch)
					if err != nil {
						return
					}
					if eb.hold.Load() {
						eb.held.Add(1)
						continue
					}
					_, rest, _ := wire.SplitTrace(h, payload)
					c.Write(wire.AppendFrame(nil, h.Op.Resp(), h.ID, rest))
				}
			}()
		}
	}()
	return eb
}

func (eb *echoBackend) addr() string { return eb.ln.Addr().String() }

// kill closes the listener and every accepted connection.
func (eb *echoBackend) kill() {
	eb.ln.Close()
	eb.mu.Lock()
	defer eb.mu.Unlock()
	for _, c := range eb.conns {
		c.Close()
	}
}

// routerStats fetches the router's own /metrics section.
func routerStats(t *testing.T, routerURL string) router.RouterStats {
	t.Helper()
	var m struct {
		Router router.RouterStats `json:"router"`
	}
	_, body := getBody(t, routerURL+"/metrics")
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("metrics: %v", err)
	}
	return m.Router
}

// TestBinaryRelayEndToEnd drives the binary dialect through the router to a
// real shard's binary listener, and the shard's books must balance afterwards.
func TestBinaryRelayEndToEnd(t *testing.T) {
	rt, srv := newTestRouter(t, nil)
	binFront := startRouterBinary(t, rt)

	svc := newBackendService(t, "DC-9")
	api := httptest.NewServer(service.NewAPI(svc))
	t.Cleanup(api.Close)
	bs := service.NewBinaryServer(svc)
	bsAddr, _, err := bs.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatalf("backend binary listen: %v", err)
	}
	t.Cleanup(bs.Close)
	mustRegister(t, srv.URL, router.RegisterRequest{
		ID: "node-bin", URL: api.URL, BinaryAddr: bsAddr.String(),
		Datacenters: []router.RegisterDatacenter{{Name: "DC-9", Generation: 1}},
	})

	c := dialBin(t, binFront)
	h, payload := c.roundTrip(wire.AppendSelectReq(nil, 100, "DC-9",
		wire.SelectReq{Job: wire.JobShort, MaxCores: 2}))
	if h.Op != wire.OpSelectResp || h.ID != 100 {
		t.Fatalf("select: header %+v payload %x", h, payload)
	}
	var sel wire.SelectResp
	if err := sel.Decode(payload); err != nil {
		t.Fatalf("select decode: %v", err)
	}
	if !sel.Satisfiable || sel.Lease == 0 {
		t.Fatalf("select unsatisfied: %+v", sel)
	}

	h, payload = c.roundTrip(wire.AppendClassesReq(nil, 110, "DC-9"))
	if h.Op != wire.OpClassesResp {
		t.Fatalf("classes: op %v", h.Op)
	}
	var classes wire.ClassesResp
	if err := classes.Decode(payload); err != nil || len(classes.Classes) == 0 {
		t.Fatalf("classes: %+v err %v", classes, err)
	}

	h, payload = c.roundTrip(wire.AppendReleaseReq(nil, 120, "DC-9", sel.Lease))
	if h.Op != wire.OpReleaseResp {
		t.Fatalf("release: op %v payload %x", h.Op, payload)
	}
	var rel wire.ReleaseResp
	if err := rel.Decode(payload); err != nil || rel.TotalMillis <= 0 {
		t.Fatalf("release: %+v err %v", rel, err)
	}

	// A frame for a datacenter nobody serves answers 404 without closing.
	h, payload = c.roundTrip(wire.AppendClassesReq(nil, 999, "DC-0"))
	var e wire.ErrorResp
	if h.Op != wire.OpError || e.Decode(payload) != nil || e.Code != 404 {
		t.Fatalf("unknown dc: op %v code %d", h.Op, e.Code)
	}

	// The books balance: everything reserved came back.
	st, ok := svc.LedgerStats("DC-9")
	if !ok {
		t.Fatal("no ledger stats")
	}
	if st.OutstandingMillis != 0 || st.ReservedMillis == 0 || st.ReservedMillis != st.ReleasedMillis {
		t.Fatalf("books unbalanced: %+v", st)
	}
}

// TestBinaryFrontRejectsJSONOnlyBackend pins what a backend that announced no
// binary_addr gets on the binary front: a 503 error frame that names it and
// the missing flag, on a connection that stays usable, without feeding its
// breaker — while the JSON front keeps serving its datacenters.
func TestBinaryFrontRejectsJSONOnlyBackend(t *testing.T) {
	rt, srv := newTestRouter(t, nil)
	binFront := startRouterBinary(t, rt)

	svc := newBackendService(t, "DC-8")
	api := httptest.NewServer(service.NewAPI(svc))
	t.Cleanup(api.Close)
	mustRegister(t, srv.URL, router.RegisterRequest{
		ID: "node-json", URL: api.URL,
		Datacenters: []router.RegisterDatacenter{{Name: "DC-8", Generation: 1}},
	})

	c := dialBin(t, binFront)
	const frames = 4 // past the default breaker threshold of 3
	for i := uint64(0); i < frames; i++ {
		h, payload := c.roundTrip(wire.AppendSelectReq(nil, 200+i, "DC-8",
			wire.SelectReq{Job: wire.JobShort, MaxCores: 2}))
		var e wire.ErrorResp
		if h.Op != wire.OpError || h.ID != 200+i || e.Decode(payload) != nil || e.Code != 503 {
			t.Fatalf("frame %d: header %+v code %d, want a 503 error frame", i, h, e.Code)
		}
		if msg := string(e.Message); !strings.Contains(msg, "node-json") || !strings.Contains(msg, "-binary-addr") {
			t.Fatalf("frame %d: message %q does not name the backend and the missing -binary-addr", i, msg)
		}
	}

	st := routerStats(t, srv.URL)
	be := st.Backends["node-json"]
	if be.ConsecutiveFailures != 0 || be.CircuitOpen || be.Errors != 0 {
		t.Fatalf("rejected frames fed the breaker: %+v", be)
	}
	if st.Unavailable != frames {
		t.Fatalf("unavailable_503s = %d, want %d", st.Unavailable, frames)
	}

	// The JSON front still serves the datacenter.
	resp, body := postJSON(t, srv.URL+"/v1/DC-8/select", `{"job_type":"short","max_concurrent_cores":2}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("JSON select for the same datacenter: %d %s", resp.StatusCode, body)
	}
	if st, _ := svc.LedgerStats("DC-8"); st.Reserves != 1 {
		t.Fatalf("JSON select did not reach the shard: %+v", st)
	}
}

// TestAdmissionGateSharedByBothFronts drives one backend's breaker through
// open → half-open → closed with failures and probes arriving on either front:
// the gate is one function over one state, so what one front learns the other
// obeys.
func TestAdmissionGateSharedByBothFronts(t *testing.T) {
	for _, probeFront := range []string{"json", "binary"} {
		t.Run(probeFront+" probes", func(t *testing.T) {
			clock := newTestClock()
			rt := router.New(router.Config{
				StaleAfter:       time.Hour, // isolate the breaker from staleness
				BreakerThreshold: 2,
				BreakerCooldown:  5 * time.Second,
				ProxyTimeout:     2 * time.Second,
				Now:              clock.Now,
			})
			srv := httptest.NewServer(rt)
			defer srv.Close()
			c := dialBin(t, startRouterBinary(t, rt))

			fb, eb := newFakeBackend(t), startEchoBackend(t)
			beat := func() {
				mustRegister(t, srv.URL, router.RegisterRequest{
					ID: "node-a", URL: fb.srv.URL, BinaryAddr: eb.addr(),
					Datacenters: []router.RegisterDatacenter{{Name: "DC-A"}},
				})
			}
			beat()

			fronts := map[string]func() int{
				"json": func() int {
					resp, _ := getBody(t, srv.URL+"/v1/DC-A/classes")
					return resp.StatusCode
				},
				"binary": func() int {
					h, payload := c.roundTrip(wire.AppendClassesReq(nil, 1, "DC-A"))
					if h.Op == wire.OpClassesResp {
						return http.StatusOK
					}
					var e wire.ErrorResp
					if h.Op != wire.OpError || e.Decode(payload) != nil {
						t.Fatalf("binary front answered op %v", h.Op)
					}
					return int(e.Code)
				},
			}
			probe := fronts[probeFront]
			delete(fronts, probeFront)
			var other func() int
			for _, f := range fronts {
				other = f
			}
			want := func(what string, got, status int) {
				t.Helper()
				if got != status {
					t.Fatalf("%s: status %d, want %d", what, got, status)
				}
			}
			backend := func() router.BackendStats { return routerStats(t, srv.URL).Backends["node-a"] }

			want("closed circuit, probing front", probe(), 200)
			want("closed circuit, other front", other(), 200)

			// Closed → open: one transport failure from each front.
			fb.srv.Close()
			eb.kill()
			want("dead backend, other front", other(), 503)
			want("dead backend, probing front", probe(), 503)
			if st := backend(); !st.CircuitOpen || st.Errors != 2 {
				t.Fatalf("one failure per front did not open the circuit: %+v", st)
			}

			// Open: both fronts are refused without touching the transport.
			want("open circuit, probing front", probe(), 503)
			want("open circuit, other front", other(), 503)
			if st := backend(); st.Errors != 2 {
				t.Fatalf("an open circuit still hit the transport: %+v", st)
			}

			// Half-open with the backend still dead: one probe goes through,
			// fails, and the circuit is open again for both.
			clock.Advance(6 * time.Second)
			want("failed probe", probe(), 503)
			want("re-opened circuit, other front", other(), 503)
			if st := backend(); !st.CircuitOpen || st.Errors != 3 {
				t.Fatalf("failed probe: %+v, want the circuit re-opened by exactly one more transport error", st)
			}

			// The backend returns. A heartbeat alone does not close the circuit;
			// past the cooldown one front's probe closes it for both.
			fb, eb = newFakeBackend(t), startEchoBackend(t)
			beat()
			want("heartbeat alone, other front", other(), 503)
			clock.Advance(6 * time.Second)
			want("successful probe", probe(), 200)
			want("closed circuit, other front", other(), 200)
			if st := backend(); st.CircuitOpen || st.ConsecutiveFailures != 0 {
				t.Fatalf("successful probe left the breaker %+v", st)
			}
		})
	}
}

// TestBinaryPipelinedRelay proves the native relay is no longer lock-step: a
// client pipelining N frames on one connection has them in flight against
// the backend concurrently, and the responses come back in request order
// even though the backend completes them out of order. The fake backend also
// asserts the relay discipline itself: every forwarded frame must carry a
// router-minted unique id plus the client's original id as a FlagTrace
// payload prefix (client ids may collide across the frames sharing a pipe,
// so the header id cannot be the client's).
func TestBinaryPipelinedRelay(t *testing.T) {
	const (
		frames = 8
		delay  = 300 * time.Millisecond
	)
	rt, srv := newTestRouter(t, nil)
	binFront := startRouterBinary(t, rt)

	// A slow binary backend: each frame is answered after delay, on its own
	// goroutine, so responses complete concurrently and out of order.
	var (
		mu       sync.Mutex
		relayIDs = map[uint64]int{}
		traceIDs = map[uint64]int{}
	)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				br := bufio.NewReader(c)
				var wmu sync.Mutex
				var scratch []byte
				for {
					h, payload, err := wire.ReadFrame(br, &scratch)
					if err != nil {
						return
					}
					traceID, rest, ok := wire.SplitTrace(h, payload)
					mu.Lock()
					if !ok || h.Flags&wire.FlagTrace == 0 {
						t.Errorf("forwarded frame id %d missing the trace prefix", h.ID)
					}
					relayIDs[h.ID]++
					traceIDs[traceID]++
					mu.Unlock()
					resp := wire.AppendFrame(nil, h.Op.Resp(), h.ID, rest)
					go func() {
						time.Sleep(delay)
						wmu.Lock()
						defer wmu.Unlock()
						c.Write(resp)
					}()
				}
			}(c)
		}
	}()

	fb := newFakeBackend(t)
	mustRegister(t, srv.URL, router.RegisterRequest{
		ID: "node-slow", URL: fb.srv.URL, BinaryAddr: ln.Addr().String(),
		Datacenters: []router.RegisterDatacenter{{Name: "DC-1", Generation: 1}},
	})

	c := dialBin(t, binFront)
	var batch []byte
	for i := 0; i < frames; i++ {
		batch = wire.AppendClassesReq(batch, uint64(100+i), "DC-1")
	}
	start := time.Now()
	if _, err := c.c.Write(batch); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < frames; i++ {
		h, _, err := wire.ReadFrame(c.br, &c.scratch)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if h.Op != wire.OpClassesResp {
			t.Fatalf("response %d: op %v", i, h.Op)
		}
		if h.ID != uint64(100+i) {
			t.Fatalf("response %d carries id %d, want %d: client-facing responses must keep request order", i, h.ID, 100+i)
		}
	}
	elapsed := time.Since(start)
	// Lock-step relay would take frames×delay (2.4 s); concurrent in-flight
	// frames overlap the waits. The generous bound keeps slow CI hosts green
	// while still being impossible for a serial relay to meet.
	if limit := frames * delay / 2; elapsed >= limit {
		t.Fatalf("%d pipelined frames of %v backend latency took %v (≥ %v): relay is lock-step", frames, delay, elapsed, limit)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(relayIDs) != frames {
		t.Fatalf("backend saw %d distinct relay ids for %d frames: %v", len(relayIDs), frames, relayIDs)
	}
	for i := 0; i < frames; i++ {
		if traceIDs[uint64(100+i)] != 1 {
			t.Fatalf("client id %d not carried as a trace prefix exactly once: %v", 100+i, traceIDs)
		}
	}
}

// TestBinaryPerLeaseOrdering pins the relay's ordering contract: release and
// renew frames are keyed onto a backend pipe by lease id, so two operations
// on the same lease arrive at the backend in the order the client issued
// them even though unrelated frames fan out across pipes. A client that
// pipelines renew(L) then release(L) must never have the backend observe the
// release first (the race that made renews 404 against an already-released
// lease).
func TestBinaryPerLeaseOrdering(t *testing.T) {
	const leases = 200
	rt, srv := newTestRouter(t, nil)
	binFront := startRouterBinary(t, rt)

	// A recording binary backend: frames on each conn are handled
	// sequentially (like the real shard server), and every renew/release is
	// appended to one global arrival log.
	type arrival struct {
		op    wire.Op
		lease uint64
	}
	var (
		mu  sync.Mutex
		log []arrival
	)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				br := bufio.NewReader(c)
				var scratch []byte
				for {
					h, payload, err := wire.ReadFrame(br, &scratch)
					if err != nil {
						return
					}
					_, rest, _ := wire.SplitTrace(h, payload)
					if lease, ok := wire.PeekLease(rest); ok {
						mu.Lock()
						log = append(log, arrival{h.Op, lease})
						mu.Unlock()
					}
					c.Write(wire.AppendFrame(nil, h.Op.Resp(), h.ID, rest))
				}
			}(c)
		}
	}()

	fb := newFakeBackend(t)
	mustRegister(t, srv.URL, router.RegisterRequest{
		ID: "node-order", URL: fb.srv.URL, BinaryAddr: ln.Addr().String(),
		Datacenters: []router.RegisterDatacenter{{Name: "DC-1", Generation: 1}},
	})

	c := dialBin(t, binFront)
	var batch []byte
	for l := uint64(1); l <= leases; l++ {
		batch = wire.AppendRenewReq(batch, 2*l, "DC-1", wire.RenewReq{Lease: l, HoldMillis: 1000})
		batch = wire.AppendReleaseReq(batch, 2*l+1, "DC-1", l)
	}
	if _, err := c.c.Write(batch); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*leases; i++ {
		h, _, err := wire.ReadFrame(c.br, &c.scratch)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if h.Op == wire.OpError {
			t.Fatalf("response %d: unexpected error frame", i)
		}
	}

	mu.Lock()
	defer mu.Unlock()
	if len(log) != 2*leases {
		t.Fatalf("backend recorded %d frames, want %d", len(log), 2*leases)
	}
	renewSeen := map[uint64]bool{}
	for i, a := range log {
		switch a.op {
		case wire.OpRenew:
			renewSeen[a.lease] = true
		case wire.OpRelease:
			if !renewSeen[a.lease] {
				t.Fatalf("arrival %d: release of lease %d overtook its renew — per-lease order violated", i, a.lease)
			}
		}
	}
}

// TestBinaryBackendDesyncDetected proves the router validates the echoed
// request id on natively forwarded frames: a backend answering with the
// wrong id gets its pooled conn dropped and the client sees an error frame,
// not a mismatched response.
func TestBinaryBackendDesyncDetected(t *testing.T) {
	rt, srv := newTestRouter(t, nil)
	binFront := startRouterBinary(t, rt)

	// A fake binary backend that echoes every frame with id+1.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				br := bufio.NewReader(c)
				var scratch []byte
				for {
					h, payload, err := wire.ReadFrame(br, &scratch)
					if err != nil {
						return
					}
					c.Write(wire.AppendFrame(nil, h.Op.Resp(), h.ID+1, payload))
				}
			}(c)
		}
	}()

	fb := newFakeBackend(t)
	mustRegister(t, srv.URL, router.RegisterRequest{
		ID: "node-desync", URL: fb.srv.URL, BinaryAddr: ln.Addr().String(),
		Datacenters: []router.RegisterDatacenter{{Name: "DC-1", Generation: 1}},
	})

	c := dialBin(t, binFront)
	h, payload := c.roundTrip(wire.AppendClassesReq(nil, 7, "DC-1"))
	var e wire.ErrorResp
	if h.Op != wire.OpError || h.ID != 7 || e.Decode(payload) != nil || e.Code != 503 {
		t.Fatalf("desync response: op %v id %d code %d", h.Op, h.ID, e.Code)
	}
}

// forgedReplHeader is a frame header alone, claiming a 2 MiB replication
// snapshot: legal on the replication listener, refused on a public port before
// any payload is awaited.
func forgedReplHeader() []byte {
	h := wire.BeginFrame(nil, wire.OpReplSnap, 7)
	h[6] = 0x20 // length field, little-endian: 0x00200000
	return h
}

// TestBinaryFrontClosesOnGarbage mirrors the backend server's framing
// discipline: a non-frame byte stream is dropped without a response.
func TestBinaryFrontClosesOnGarbage(t *testing.T) {
	rt, srv := newTestRouter(t, nil)
	binFront := startRouterBinary(t, rt)

	for name, garbage := range map[string][]byte{
		"http accident":             []byte("GET / HTTP/1.1\r\n\r\n"),
		"forged replication header": forgedReplHeader(),
	} {
		before := routerStats(t, srv.URL).Binary.FramingErrors
		c := dialBin(t, binFront)
		if _, err := c.c.Write(garbage); err != nil {
			t.Fatal(err)
		}
		c.c.SetReadDeadline(time.Now().Add(5 * time.Second))
		if b, err := c.br.ReadByte(); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("%s: router answered %#x, %v instead of closing", name, b, err)
		}
		if got := routerStats(t, srv.URL).Binary.FramingErrors - before; got != 1 {
			t.Errorf("%s: framing_errors moved by %d, want 1", name, got)
		}
	}
}
