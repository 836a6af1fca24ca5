package router_test

import (
	"errors"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"harvest/internal/router"
	"harvest/internal/service"
	"harvest/internal/wire"
)

// TestRelayAllocs is the serving path's object budget on the router (DESIGN.md
// "Hot paths"): a forwarded frame rides a slot of its connection's relay ring,
// the pipe's own write buffer and a lent trace, so it costs the heap nothing.
// Router, shard and client share this process and the count is the process's,
// so the client reuses its buffers and the mix is the shard's allocation-free
// operations (TestBinaryDispatchAllocs): what is left is an upper bound on the
// router's share.
func TestRelayAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const dc = "DC-9"
	rt, srv := newTestRouter(t, nil)
	binFront := startRouterBinary(t, rt)
	svc := newBackendService(t, dc)
	api := service.NewAPI(svc)
	apiSrv := httptest.NewServer(api)
	t.Cleanup(apiSrv.Close)
	bs := service.NewBinaryServer(svc)
	bsAddr, _, err := bs.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatalf("backend binary listen: %v", err)
	}
	t.Cleanup(bs.Close)
	api.AttachBinary(bs, bsAddr.String())
	mustRegister(t, srv.URL, router.RegisterRequest{
		ID: "node-bin", URL: apiSrv.URL, BinaryAddr: bsAddr.String(),
		Datacenters: []router.RegisterDatacenter{{Name: dc, Generation: 1}},
	})

	c := dialBin(t, binFront)
	h, payload := c.roundTrip(wire.AppendSelectReq(nil, 1, dc, wire.SelectReq{Job: wire.JobMedium, MaxCores: 2}))
	var held wire.SelectResp
	if h.Op != wire.OpSelectResp || held.Decode(payload) != nil || held.Lease == 0 {
		t.Fatalf("standing select: header %+v, %+v", h, held)
	}
	var classes wire.ClassesResp
	if h, payload = c.roundTrip(wire.AppendClassesReq(nil, 1, dc)); h.Op != wire.OpClassesResp || classes.Decode(payload) != nil {
		t.Fatalf("classes: header %+v", h)
	}

	// One pipelined burst, under the relay window: reads that spread and a
	// lease-keyed write that is pinned to its pipe.
	const perBatch = 48
	var batch []byte
	for i := 0; i < perBatch/4; i++ {
		batch = wire.AppendSelectReq(batch, 7, dc, wire.SelectReq{Job: wire.JobShort, Flags: wire.SelectFlagDryRun, MaxCores: 2})
		batch = wire.AppendClassesReq(batch, 7, dc)
		batch = wire.AppendPlaceReq(batch, 7, dc, wire.PlaceReq{Replication: 3, Writer: -1})
		batch = wire.AppendRenewReq(batch, 7, dc, wire.RenewReq{Lease: held.Lease, HoldMillis: 30_000})
	}
	burst := func() {
		if _, err := c.c.Write(batch); err != nil {
			t.Fatalf("write: %v", err)
		}
		for i := 0; i < perBatch; i++ {
			h, payload, err := wire.ReadFrame(c.br, &c.scratch)
			if err != nil || h.Op == wire.OpError || h.ID != 7 {
				t.Fatalf("response %d of a burst: header %+v, payload %q, err %v", i, h, payload, err)
			}
		}
	}
	for i := 0; i < 20; i++ {
		burst() // dial the pipes, grow every buffer
	}
	const bursts = 250 // 12,000 frames
	forwardedBefore := routerStats(t, srv.URL).Binary.Forwarded
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < bursts; i++ {
		burst()
	}
	runtime.ReadMemStats(&after)
	if got := routerStats(t, srv.URL).Binary.Forwarded - forwardedBefore; got != bursts*perBatch {
		t.Fatalf("router forwarded %d frames, want %d", got, bursts*perBatch)
	}
	per := float64(after.Mallocs-before.Mallocs) / (bursts * perBatch)
	t.Logf("%.4f heap objects per forwarded frame (%d over %d frames)", per, after.Mallocs-before.Mallocs, bursts*perBatch)
	if per >= 0.1 {
		t.Errorf("%.3f heap objects per forwarded frame, budget < 0.1", per)
	}
}

// TestBinaryRelayBackendDeathMidBurst kills the backend under a pipelining
// client, over and over on one client connection so its relay slots are
// recycled across failures. Each request carries a number no other request
// carries, as its frame id and inside its payload, and the backend echoes
// payloads: so every request must be answered exactly once, in request order,
// by either its own echo or a 503 under its own id — never by bytes an earlier
// occupant of its slot left behind. A round either kills the backend while it
// is echoing a long burst, or with the relay window full of frames it is
// sitting on: then everything in flight must come back 503.
func TestBinaryRelayBackendDeathMidBurst(t *testing.T) {
	const dc = "DC-1"
	// No breaker: a round's failures must not have the next round refused.
	rt := router.New(router.Config{StaleAfter: time.Minute, BreakerThreshold: -1})
	srv := httptest.NewServer(rt)
	t.Cleanup(srv.Close)
	binFront := startRouterBinary(t, rt)
	fb := newFakeBackend(t)
	c := dialBin(t, binFront)

	// expect reads n responses for the requests numbered from first, returning
	// how many were echoes. afterEach runs after each response.
	expect := func(first uint64, n int, afterEach func(i int)) (echoes int) {
		t.Helper()
		for i := 0; i < n; i++ {
			want := first + uint64(i)
			c.c.SetReadDeadline(time.Now().Add(10 * time.Second))
			h, payload, err := wire.ReadFrame(c.br, &c.scratch)
			if err != nil {
				t.Fatalf("response to request %d: %v", want, err)
			}
			if h.ID != want {
				t.Fatalf("response %d of the burst carries id %d, want %d: responses must keep request order, one each", i, h.ID, want)
			}
			switch h.Op {
			case wire.OpServerClassResp:
				var m wire.ServerClassReq // the echo is the request's own payload
				if err := m.Decode(payload); err != nil || uint64(m.Server) != want || string(m.DC) != dc {
					t.Fatalf("request %d answered with another request's bytes: server %d dc %q (%v)", want, m.Server, m.DC, err)
				}
				echoes++
			case wire.OpError:
				var e wire.ErrorResp
				if err := e.Decode(payload); err != nil || e.Code != 503 {
					t.Fatalf("request %d answered with error %d %q (%v), want 503", want, e.Code, e.Message, err)
				}
			default:
				t.Fatalf("request %d answered with op %v", want, h.Op)
			}
			if afterEach != nil {
				afterEach(i)
			}
		}
		return echoes
	}
	// quiet asserts the connection has nothing more to say: no request was
	// answered twice.
	quiet := func() {
		t.Helper()
		c.c.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
		if b, err := c.br.ReadByte(); !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("the connection had more to say after every request was answered: byte %#x, err %v", b, err)
		}
	}
	send := func(first uint64, n int) *sync.WaitGroup {
		var batch []byte
		for i := 0; i < n; i++ {
			batch = wire.AppendServerClassReq(batch, first+uint64(i), dc, int64(first)+int64(i))
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.c.Write(batch); err != nil {
				t.Errorf("write: %v", err)
			}
		}()
		return &wg
	}

	next := uint64(1)
	for round := 0; round < 6; round++ {
		gb := startEchoBackend(t)
		mustRegister(t, srv.URL, router.RegisterRequest{
			ID: "node-gated", URL: fb.srv.URL, BinaryAddr: gb.addr(),
			Datacenters: []router.RegisterDatacenter{{Name: dc, Generation: 1}},
		})

		// A healthy backend first: every slot delivers its own echo.
		const healthy = 3 * router.BinRelayWindow
		wg := send(next, healthy)
		if echoes := expect(next, healthy, nil); echoes != healthy {
			t.Fatalf("round %d: %d of %d requests to a healthy backend echoed", round, echoes, healthy)
		}
		wg.Wait()
		next += healthy

		if round%2 == 0 {
			// Killed while echoing: what was answered before the kill is an
			// echo, what was in flight or came later is a 503.
			const burst = 2000
			wg := send(next, burst)
			echoes := expect(next, burst, func(i int) {
				if i == burst/4 {
					gb.kill()
				}
			})
			wg.Wait()
			if echoes <= burst/4 || echoes == burst {
				t.Fatalf("round %d: %d of %d echoes around a kill after response %d", round, echoes, burst, burst/4)
			}
			next += burst
		} else {
			// Killed with the window full: the backend sits on every frame the
			// router lets through, the router's reader stops at the window with
			// the rest of the burst unread, and the kill must answer all of it.
			const burst = router.BinRelayWindow + 40
			gb.hold.Store(true)
			wg := send(next, burst)
			for deadline := time.Now().Add(10 * time.Second); gb.held.Load() < router.BinRelayWindow; {
				if time.Now().After(deadline) {
					t.Fatalf("round %d: backend holds %d frames, want the whole window of %d", round, gb.held.Load(), router.BinRelayWindow)
				}
				time.Sleep(time.Millisecond)
			}
			gb.kill()
			if echoes := expect(next, burst, nil); echoes != 0 {
				t.Fatalf("round %d: %d echoes from a backend that answered nothing", round, echoes)
			}
			wg.Wait()
			if got := gb.held.Load(); got != router.BinRelayWindow {
				t.Fatalf("round %d: backend saw %d frames, want exactly the window of %d", round, got, router.BinRelayWindow)
			}
			next += burst
		}
		quiet()
	}
}
