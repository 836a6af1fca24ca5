package loadgen

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"harvest/internal/experiments"
	"harvest/internal/router"
	"harvest/internal/service"
	"harvest/internal/wire"
)

const (
	testScale = 0.05
	testSeed  = 1
	fullMix   = "select=30,dryselect=10,release=25,renew=5,place=20,classes=5,server=5"
)

// node is one in-process harvestd: the service, its JSON API on an httptest
// listener and its binary frame server, wired as cmd/harvestd wires them. The
// tests share one (booting it is most of a test's cost under -race), so they
// assert on what their own run added to its books.
type node struct {
	svc   *service.Service
	url   string
	close func()
}

var shared struct {
	once sync.Once
	n    *node
	err  error
}

func TestMain(m *testing.M) {
	code := m.Run()
	if shared.n != nil {
		shared.n.close()
	}
	os.Exit(code)
}

func sharedNode(t *testing.T) *node {
	t.Helper()
	shared.once.Do(func() {
		cfg := service.DefaultConfig()
		cfg.Datacenters = []string{"DC-9"}
		cfg.Scale = experiments.Scale{Datacenter: testScale, Seed: testSeed}
		cfg.RefreshPeriod = 0
		svc, err := service.New(cfg)
		if err != nil {
			shared.err = err
			return
		}
		svc.Start() // the lease sweeper and the re-replicator
		api := service.NewAPI(svc)
		bs := service.NewBinaryServer(svc)
		bound, _, err := bs.ListenAndServe("127.0.0.1:0")
		if err != nil {
			svc.Close()
			shared.err = err
			return
		}
		api.AttachBinary(bs, bound.String())
		srv := httptest.NewServer(api)
		shared.n = &node{svc: svc, url: srv.URL, close: func() { srv.Close(); bs.Close(); svc.Close() }}
	})
	if shared.err != nil {
		t.Fatalf("booting the node: %v", shared.err)
	}
	return shared.n
}

// serve puts a second JSON front with its own options on the node's service.
func (n *node) serve(t *testing.T, opts service.APIOptions) string {
	srv := httptest.NewServer(service.NewAPIWith(n.svc, opts))
	t.Cleanup(srv.Close)
	return srv.URL
}

func (n *node) reserves(t *testing.T) uint64 {
	st, ok := n.svc.LedgerStats("DC-9")
	if !ok {
		t.Fatal("no ledger for DC-9")
	}
	return st.Reserves
}

// checkDrained asserts what a finished run must leave behind on the node: it
// reserved something (more than the before reading), every lease is gone
// again, and the books balance.
func (n *node) checkDrained(t *testing.T, before uint64) {
	t.Helper()
	st, _ := n.svc.LedgerStats("DC-9")
	if st.Reserves <= before {
		t.Error("the run reserved nothing")
	}
	if st.ActiveLeases != 0 || st.OutstandingMillis != 0 {
		t.Errorf("held leases not drained: %d active, %d millicores outstanding", st.ActiveLeases, st.OutstandingMillis)
	}
	if st.ConservationErrorMillis != 0 {
		t.Errorf("conservation_error_millis = %d", st.ConservationErrorMillis)
	}
}

func checkReport(t *testing.T, rep *Report, wantMode string) {
	t.Helper()
	if rep.Mode != wantMode {
		t.Errorf("mode = %q, want %q", rep.Mode, wantMode)
	}
	if rep.Errors != 0 || rep.Reconnects != 0 {
		t.Errorf("%d errors, %d reconnects, want none", rep.Errors, rep.Reconnects)
	}
	var sum uint64
	for _, name := range OpNames() {
		if rep.Ops[name].Requests == 0 {
			t.Errorf("op %s was never sent", name)
		}
		sum += rep.Ops[name].Requests
	}
	if sum != rep.Requests || !(rep.QPS > 0) {
		t.Errorf("requests = %d, ops sum to %d, qps = %g", rep.Requests, sum, rep.QPS)
	}
	if len(rep.TraceSample) != 16 {
		t.Errorf("trace_sample = %q, want 16 hex digits", rep.TraceSample)
	}
	if rep.LatencyUs.Max == 0 || rep.LatencyUs.P50 > rep.LatencyUs.P99 {
		t.Errorf("latency = %+v", rep.LatencyUs)
	}
}

// Both dialects, closed and open loop, against one node: every op flows, none
// errs, and the drain leaves the ledger empty and balanced. A dialect that
// stops harvesting leases fails here twice over — releases and renews degrade
// to classes queries (never sent), or the books do not drain.
func TestRunDialectsAndLoops(t *testing.T) {
	n := sharedNode(t)
	for _, proto := range []string{"json", "binary"} {
		for _, rate := range []float64{0, 2000} {
			mode := "closed-loop"
			if rate > 0 {
				mode = "open-loop"
			}
			t.Run(proto+"/"+mode, func(t *testing.T) {
				before := n.reserves(t)
				rep, err := Run(Config{
					Target: n.url, Proto: proto, Workers: 2, Pipeline: 16,
					Duration: time.Second, Rate: rate, Mix: fullMix, Seed: 3,
				})
				if err != nil {
					t.Fatal(err)
				}
				checkReport(t, rep, mode)
				if rep.Proto != proto {
					t.Errorf("proto = %q, want %q", rep.Proto, proto)
				}
				if rate > 0 && rep.Requests > uint64(rate) {
					t.Errorf("open loop sent %d requests in 1 s at %g/s", rep.Requests, rate)
				}
				n.checkDrained(t, before)
			})
		}
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	for _, cfg := range []Config{
		{Target: "127.0.0.1:1", Proto: "json", Mix: "select=0"},
		{Target: "127.0.0.1:1", Proto: "json", Mix: "teleport=1"},
		{Target: "127.0.0.1:1", Proto: "grpc", Mix: "select=1"},
		{Target: "127.0.0.1:1", Proto: "json", Mix: "select=1"}, // nothing listens: discovery fails, no wait
	} {
		if rep, err := Run(cfg); err == nil {
			t.Errorf("Run(%+v) = %+v, want an error", cfg, rep)
		}
	}
}

// A JSON target that advertises no binary listener cannot serve -proto binary.
func TestRunBinaryNeedsAdvertisedListener(t *testing.T) {
	plain := sharedNode(t).serve(t, service.APIOptions{})
	_, err := Run(Config{Target: plain, Proto: "binary", Workers: 1, Mix: "classes=1", Duration: 10 * time.Millisecond})
	if err == nil || !strings.Contains(err.Error(), "does not advertise a binary listener") {
		t.Fatalf("err = %v, want the missing-listener error", err)
	}
}

// Through a router: discovery waits out the registration, leases round-trip to
// the owning shard, and the report attributes replies to the backend the
// router names and carries the trace id it echoed.
func TestRunThroughRouter(t *testing.T) {
	n := sharedNode(t)
	before := n.reserves(t)
	rt := router.New(router.Config{StaleAfter: 5 * time.Second, RetryAfter: time.Second})
	rsrv := httptest.NewServer(rt)
	defer rsrv.Close()
	done := make(chan *Report, 1)
	go func() {
		rep, err := Run(Config{
			Target: rsrv.URL, Proto: "json", Workers: 2, Pipeline: 8,
			Duration: 500 * time.Millisecond, Mix: fullMix, Seed: 5, Wait: 10 * time.Second,
		})
		if err != nil {
			t.Error(err)
		}
		done <- rep
	}()
	// Register only once the run is already retrying its discovery.
	time.Sleep(100 * time.Millisecond)
	ann, err := service.StartAnnouncer(n.svc, service.AnnouncerConfig{
		RouterURL: rsrv.URL, SelfURL: n.url, ID: "node-a", Interval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ann.Close()
	rep := <-done
	if rep == nil {
		t.FailNow()
	}
	checkReport(t, rep, "closed-loop")
	if got := rep.Backends["node-a"]; got != rep.Requests || len(rep.Backends) != 1 {
		t.Errorf("backends = %v, want all %d replies from node-a", rep.Backends, rep.Requests)
	}
	n.checkDrained(t, before)
}

// testConn is a connection with no socket: enough to resolve and encode.
func testConn(d dialect, st *stream, dcs []string) *conn {
	return &conn{d: d, dcs: dcs, st: st, stats: new(stats),
		held: make([][]uint64, len(dcs)), servers: make([][]int64, len(dcs))}
}

// decoded is a request as the server side of either dialect would parse it.
type decoded struct {
	route string // wire.Ops name
	dc    string
	job   string
	cores float64
	dry   bool
	lease uint64
	hold  float64 // seconds
	srv   int64
	repl  int
}

func decodeJSONRequest(t *testing.T, raw []byte) decoded {
	t.Helper()
	req, err := http.ReadRequest(bufio.NewReader(bytes.NewReader(raw)))
	if err != nil {
		t.Fatalf("unparsable HTTP request %q: %v", raw, err)
	}
	parts := strings.Split(strings.TrimPrefix(req.URL.Path, "/v1/"), "/")
	d := decoded{dc: parts[0]}
	var body struct {
		JobType string  `json:"job_type"`
		Cores   float64 `json:"max_concurrent_cores"`
		Dry     bool    `json:"dry_run"`
		Lease   uint64  `json:"lease"`
		Hold    float64 `json:"hold_seconds"`
		Repl    int     `json:"replication"`
	}
	if req.Method == "POST" {
		dec := json.NewDecoder(req.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&body); err != nil {
			t.Fatalf("bad body in %q: %v", raw, err)
		}
	}
	d.job, d.cores, d.dry, d.lease, d.hold, d.repl = body.JobType, body.Cores, body.Dry, body.Lease, body.Hold, body.Repl
	switch {
	case len(parts) == 4 && parts[1] == "servers" && parts[3] == "class":
		d.route = "server_class"
		fmt.Sscan(parts[2], &d.srv)
	case len(parts) == 2:
		d.route = parts[1]
	default:
		t.Fatalf("unexpected path %q", req.URL.Path)
	}
	return d
}

func decodeBinaryRequest(t *testing.T, raw []byte, wantID uint64) decoded {
	t.Helper()
	var scratch []byte
	h, payload, err := wire.ReadFrame(bytes.NewReader(raw), &scratch)
	if err != nil || int(wire.HeaderSize+h.Len) != len(raw) {
		t.Fatalf("bad frame %x: %v", raw, err)
	}
	if h.ID != wantID {
		t.Fatalf("frame id %d, want %d", h.ID, wantID)
	}
	d := decoded{route: wire.Ops[wire.OpIndex(h.Op)].Name}
	jobs := []string{"short", "medium", "long"}
	switch h.Op {
	case wire.OpSelect:
		var m wire.SelectReq
		err = m.Decode(payload)
		d.dc, d.job, d.cores, d.dry = string(m.DC), jobs[m.Job], m.MaxCores, m.Flags&wire.SelectFlagDryRun != 0
	case wire.OpRelease:
		var m wire.ReleaseReq
		err = m.Decode(payload)
		d.dc, d.lease = string(m.DC), m.Lease
	case wire.OpRenew:
		var m wire.RenewReq
		err = m.Decode(payload)
		d.dc, d.lease, d.hold = string(m.DC), m.Lease, float64(m.HoldMillis)/1000
	case wire.OpPlace:
		var m wire.PlaceReq
		err = m.Decode(payload)
		d.dc, d.repl = string(m.DC), int(m.Replication)
	case wire.OpClasses:
		var m wire.ClassesReq
		err = m.Decode(payload)
		d.dc = string(m.DC)
	case wire.OpServerClass:
		var m wire.ServerClassReq
		err = m.Decode(payload)
		d.dc, d.srv = string(m.DC), m.Server
	default:
		t.Fatalf("unexpected opcode %v", h.Op)
	}
	if err != nil {
		t.Fatalf("undecodable %v payload: %v", h.Op, err)
	}
	return d
}

// The same (seed, connection, mix) yields the same request sequence whatever
// the dialect, and the two encoders put the same logical request on the wire.
func TestStreamIsDialectFree(t *testing.T) {
	m, err := parseMix(fullMix)
	if err != nil {
		t.Fatal(err)
	}
	dcs := []string{"DC-8", "DC-9"}
	const frameID = 7
	j := testConn(protos["json"].new(frameID), newStream(11, 0, m, len(dcs)), dcs)
	b := testConn(protos["binary"].new(frameID), newStream(11, 0, m, len(dcs)), dcs)
	other := newStream(11, 1, m, len(dcs))
	for _, c := range []*conn{j, b} {
		c.servers[1] = []int64{40, 41, 42} // DC-8 knows no server: its lookups degrade
	}
	seen := map[string]int{}
	differs := false
	nextLease := uint64(100)
	for i := 0; i < 4000; i++ {
		gen := j.st.next()
		if gb := b.st.next(); gb != gen {
			t.Fatalf("request %d: streams diverged: %+v vs %+v", i, gen, gb)
		}
		differs = differs || other.next() != gen
		rj, rb := j.resolve(gen), b.resolve(gen)
		if rj != rb {
			t.Fatalf("request %d resolved to %+v and %+v", i, rj, rb)
		}
		pj, pb := j.enqueue(rj, time.Time{}), b.enqueue(rb, time.Time{})
		if pj != pb || pj.kind != rj.Kind || pj.dc != rj.DC {
			t.Fatalf("request %d: pending %+v vs %+v for %+v", i, pj, pb, rj)
		}
		dj, db := decodeJSONRequest(t, j.out), decodeBinaryRequest(t, b.out, frameID)
		if dj != db || dj.dc != dcs[rj.DC] {
			t.Fatalf("request %d (%+v):\n json   %+v\n binary %+v", i, rj, dj, db)
		}
		j.out, b.out = j.out[:0], b.out[:0]
		seen[rj.Kind.String()]++
		if rj.Kind == opSelect { // every other select is granted a lease
			if nextLease++; nextLease%2 == 0 {
				j.held[rj.DC] = append(j.held[rj.DC], nextLease)
				b.held[rb.DC] = append(b.held[rb.DC], nextLease)
			}
		}
	}
	if !differs {
		t.Error("connection 1 drew connection 0's stream")
	}
	for _, name := range OpNames() {
		if seen[name] == 0 {
			t.Errorf("4000 draws never produced a %s", name)
		}
	}
}

func TestResolve(t *testing.T) {
	c := testConn(nil, nil, []string{"DC-9"})
	for _, k := range []opKind{opRelease, opRenew, opServer} {
		if r := c.resolve(request{Kind: k}); r.Kind != opClasses {
			t.Errorf("%v against empty pools resolved to %v, want classes", k, r.Kind)
		}
	}
	c.held[0] = []uint64{5, 6, 7}
	c.servers[0] = []int64{10, 11}
	if r := c.resolve(request{Kind: opRenew}); r.Arg != 7 || len(c.held[0]) != 3 {
		t.Errorf("renew = %+v with %v held, want the newest lease left in place", r, c.held[0])
	}
	if r := c.resolve(request{Kind: opRelease}); r.Arg != 5 || len(c.held[0]) != 2 {
		t.Errorf("release = %+v with %v held, want the oldest lease taken", r, c.held[0])
	}
	if r := c.resolve(request{Kind: opServer, Pick: 3}); r.Arg != 11 {
		t.Errorf("server lookup = %+v, want server 11", r)
	}
	if r := c.resolve(request{Kind: opSelect, Cores: 8}); r != (request{Kind: opSelect, Cores: 8}) {
		t.Errorf("select changed in resolve: %+v", r)
	}
}

func TestParseMix(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want mix
		err  string
	}{
		{in: "select=30,release=25", want: mix{opSelect: 30, opRelease: 25}},
		{in: "select=30,,select=0,place=1", want: mix{opPlace: 1}}, // a repeat overrides
		{in: "dryselect=1,renew=2,classes=3,server=4", want: mix{opDrySelect: 1, opRenew: 2, opClasses: 3, opServer: 4}},
		{in: "select=1,select=0", err: "selects no operations"}, // validated over the final weights
		{in: "", err: "selects no operations"},
		{in: "select", err: "want name=weight"},
		{in: "select=-1", err: "bad mix weight"},
		{in: "select=many", err: "bad mix weight"},
		{in: "reimage=1", err: "unknown mix operation"},
	} {
		got, err := parseMix(tc.in)
		switch {
		case tc.err == "" && (err != nil || got != tc.want):
			t.Errorf("parseMix(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
			t.Errorf("parseMix(%q) error = %v, want %q", tc.in, err, tc.err)
		}
	}
}

func TestReadResponse(t *testing.T) {
	const ok = "HTTP/1.1 200 OK\r\n"
	for _, tc := range []struct {
		name, in      string
		status        int
		body, err     string
		trace, served string
	}{
		{name: "plain", in: ok + "Content-Length: 2\r\n\r\n{}", status: 200, body: "{}"},
		{name: "error status, empty body", in: "HTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\n\r\n", status: 503},
		{name: "tier headers", in: ok + "X-Harvest-Trace: 00ab34cd56ef7890\r\nContent-Type: application/json\r\n" +
			"X-Harvest-Backend: node-f1\r\nContent-Length: 4\r\n\r\nnull", status: 200, body: "null",
			trace: "00ab34cd56ef7890", served: "node-f1"},
		{name: "trace of the wrong width is ignored", in: ok + "X-Harvest-Trace: abc\r\nContent-Length: 0\r\n\r\n", status: 200},
		{name: "at the cap", in: ok + "Content-Length: 8388608\r\n\r\n" + strings.Repeat("x", maxResponseBody), status: 200,
			body: strings.Repeat("x", maxResponseBody)},
		{name: "missing length", in: ok + "Content-Type: application/json\r\n\r\n{}", err: "without Content-Length"},
		{name: "non-digit length", in: ok + "Content-Length: 12a\r\n\r\n", err: "Content-Length"},
		{name: "negative length", in: ok + "Content-Length: -1\r\n\r\n", err: "Content-Length"},
		{name: "empty length", in: ok + "Content-Length: \r\n\r\n", err: "Content-Length"},
		{name: "one over the cap", in: ok + "Content-Length: 8388609\r\n\r\n", err: "oversize"},
		{name: "ten digits", in: ok + "Content-Length: 4294967296\r\n\r\n", err: "oversize"},
		{name: "overflows uint64", in: ok + "Content-Length: 18446744073709551617\r\n\r\n", err: "oversize"},
		{name: "bad status line", in: "HTTP/1.0 200 OK\r\nContent-Length: 0\r\n\r\n", err: "malformed status"},
		{name: "bad status code", in: "HTTP/1.1 2x0 OK\r\nContent-Length: 0\r\n\r\n", err: "malformed status"},
		{name: "short body", in: ok + "Content-Length: 5\r\n\r\n{}", err: "EOF"},
		{name: "cut in the headers", in: ok + "Content-Le", err: "EOF"},
	} {
		// Every case is read whole and again one byte per Read, so each header
		// line arrives split across reads.
		for _, split := range []bool{false, true} {
			if split && len(tc.in) > 1<<20 {
				continue // a byte at a time, 8 MiB is seconds under -race
			}
			src := strings.NewReader(tc.in)
			br := bufio.NewReaderSize(src, 64<<10)
			if split {
				br = bufio.NewReaderSize(iotest.OneByteReader(src), 64<<10)
			}
			var rep reply
			status, body, err := readResponse(br, make([]byte, 0, 16), &rep)
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Errorf("%s (split=%v): err = %v, want %q", tc.name, split, err, tc.err)
				}
				continue
			}
			if err != nil || status != tc.status || string(body) != tc.body {
				t.Errorf("%s (split=%v): = %d, %d-byte body, %v; want %d, %d bytes", tc.name, split, status, len(body), err, tc.status, len(tc.body))
			}
			gotTrace := ""
			if rep.trace[0] != 0 {
				gotTrace = string(rep.trace[:])
			}
			if gotTrace != tc.trace || string(rep.backend) != tc.served {
				t.Errorf("%s (split=%v): trace %q backend %q, want %q %q", tc.name, split, gotTrace, rep.backend, tc.trace, tc.served)
			}
		}
	}
}

// A peer that announces a body past the cap fails the connection as a
// transport error: nothing is counted as a reply and nothing is allocated for
// the body it claimed.
func TestOversizeReplyIsATransportError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		bufio.NewReader(nc).ReadString('\n')
		fmt.Fprint(nc, "HTTP/1.1 200 OK\r\nContent-Length: 99999999999999999999\r\n\r\n")
		time.Sleep(time.Second) // the client must give up on the header, not on EOF
	}()
	c := testConn(&jsonDialect{}, nil, []string{"DC-9"})
	c.addr = ln.Addr().String()
	if err := c.dial(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	defer c.nc.Close()
	start := time.Now()
	err = c.roundTrip([]pending{c.enqueue(request{Kind: opClasses}, start)})
	if err == nil || !strings.Contains(err.Error(), "oversize") {
		t.Fatalf("roundTrip = %v, want the oversize Content-Length error", err)
	}
	if took := time.Since(start); took > 900*time.Millisecond {
		t.Errorf("gave up after %v: waited for the body", took)
	}
	if got := c.stats.transport.Load(); got != 1 || c.stats.requests[opClasses] != 0 {
		t.Errorf("transport = %d, classes replies = %d; want 1, 0", got, c.stats.requests[opClasses])
	}
}

// The open loop's clock starts at the scheduled instant. A schedule that
// began 300 ms ago is sent late, in one burst; timed from the send its
// latencies would be a round trip, timed from when each request was due the
// first is at least those 300 ms.
func TestOpenLoopTimesFromSchedule(t *testing.T) {
	n := sharedNode(t)
	m, _ := parseMix("classes=1")
	c := testConn(&jsonDialect{}, newStream(1, 0, m, 1), []string{"DC-9"})
	c.addr = strings.TrimPrefix(n.url, "http://")
	const late, interval = 300 * time.Millisecond, 10 * time.Millisecond
	now := time.Now()
	c.runOpen(now.Add(-late), now.Add(50*time.Millisecond), interval)
	st := c.stats
	if want := uint64((late + 50*time.Millisecond) / interval); st.requests[opClasses] != want || st.transport.Load() != 0 {
		t.Fatalf("%d replies, %d transport errors; want %d, 0", st.requests[opClasses], st.transport.Load(), want)
	}
	if max := time.Duration(st.latency.MaxMicros()) * time.Microsecond; max < late {
		t.Errorf("max latency %v: timed from the send, not from the %v-old schedule", max, late)
	}
	// The on-time tail of the schedule keeps the median a round trip.
	if p50 := time.Duration(st.latency.QuantileMicros(0.1)) * time.Microsecond; p50 >= late {
		t.Errorf("p10 latency %v: every request was charged the backlog", p50)
	}
}

func TestPickWave(t *testing.T) {
	// 200 servers; the 20 replica holders have the lowest reimage rates, which
	// is what Alg. 2 makes of them — an unbiased rate-weighted wave misses them.
	rates := make(map[int64]float64)
	holders := make(map[int64]bool)
	for id := int64(0); id < 200; id++ {
		rates[id] = 4
		if id%10 == 0 {
			rates[id], holders[id] = 0, true
		}
	}
	ids := func(seed int64, size int) []int64 {
		var out []int64
		for _, s := range pickWave(rates, holders, size, rand.New(rand.NewSource(seed))) {
			out = append(out, s.id)
		}
		return out
	}
	a, b, other := ids(1, 40), ids(1, 40), ids(2, 40)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Errorf("same seed, different waves:\n%v\n%v", a, b)
	}
	if fmt.Sprint(a) == fmt.Sprint(other) {
		t.Error("seeds 1 and 2 drew the same wave")
	}
	seen := make(map[int64]bool)
	held := 0
	for _, id := range a {
		if seen[id] {
			t.Errorf("server %d picked twice", id)
		}
		seen[id] = true
		if holders[id] {
			held++
		}
	}
	if len(a) != 40 || held < 40/5 {
		t.Errorf("wave of %d with %d replica holders, want 40 with at least %d", len(a), held, 40/5)
	}
	if got := ids(1, 1000); len(got) != len(rates) {
		t.Errorf("a wave larger than the datacenter has %d servers, want all %d", len(got), len(rates))
	}
	// Rate-weighted: with no holders to favour, the zero-rate servers (a tenth
	// of the population) are all but absent from a 25 % sample.
	cold := 0
	for _, s := range pickWave(rates, nil, 50, rand.New(rand.NewSource(3))) {
		if s.rate == 0 {
			cold++
		}
	}
	if cold > 1 {
		t.Errorf("%d of 50 picks have rate 0: the sample ignores the rates", cold)
	}
}

func TestEmitLandsSamples(t *testing.T) {
	n := sharedNode(t)
	before, _ := n.svc.Stats("DC-9")
	cfg := EmitConfig{
		Target: n.url, Scale: testScale, Seed: testSeed,
		Duration: 300 * time.Millisecond, Interval: 50 * time.Millisecond,
	}
	rep, err := Emit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != "telemetry" || rep.Datacenters != 1 || rep.Batches == 0 || rep.Samples == 0 || rep.Rejected != 0 || rep.Errors != 0 {
		t.Fatalf("report = %+v, want batches and samples landed, none rejected", rep)
	}
	if st, _ := n.svc.Stats("DC-9"); st.IngestedSamples-before.IngestedSamples != rep.Samples {
		t.Errorf("node ingested %d samples, emitter says %d were accepted", st.IngestedSamples-before.IngestedSamples, rep.Samples)
	}
	// Until a refresh moves the node's clock the emitter resumes at the same
	// slot; the node refuses the replayed samples and the report must say so.
	cfg.Duration = 50 * time.Millisecond
	if rep, err = Emit(cfg); err != nil || rep.Samples != 0 || rep.Rejected == 0 {
		t.Errorf("replaying ingested slots = %+v, %v; want every sample rejected", rep, err)
	}
	if err := n.svc.Refresh("DC-9"); err != nil {
		t.Fatal(err)
	}
}

func TestWaveQuiesces(t *testing.T) {
	n := sharedNode(t)
	before, _ := n.svc.BlockStats("DC-9")
	cfg := WaveConfig{
		Target: n.serve(t, service.APIOptions{IngestToken: "wave-secret"}), IngestToken: "wave-secret",
		Blocks: 60, Replication: 3, ReimageFraction: 0.1,
		Scale: testScale, Seed: testSeed, QuiesceTimeout: 30 * time.Second,
	}
	rep, err := Wave(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != "storage" || rep.BlocksPlaced != 60 || rep.Errors != 0 || rep.ServersReimaged == 0 {
		t.Fatalf("report = %+v, want 60 blocks placed and a wave", rep)
	}
	if !rep.Conserved || !rep.Quiesced || len(rep.Datacenters) != 1 || rep.Datacenters[0].HoldersReimaged == 0 {
		t.Fatalf("report = %+v, want conserved, quiesced, replica holders hit", rep)
	}
	st, _ := n.svc.BlockStats("DC-9")
	if st.Pending != 0 || st.RepairQueue != 0 || st.ConservationErrorSlots != 0 {
		t.Errorf("node books = %+v, want nothing pending and no conservation error", st)
	}
	if st.ReplicaSlots-before.ReplicaSlots != 60*3 || st.Lost <= before.Lost || st.Replaced != st.Lost {
		t.Errorf("node books = %+v after %+v, want 180 more slots and lost replicas, all replaced", st, before)
	}
	if rep.LostReplicas != st.Lost || rep.Datacenters[0].Ledger != st {
		t.Errorf("report carries %d lost, books %+v; the node says %+v", rep.LostReplicas, rep.Datacenters[0].Ledger, st)
	}

	// Without the bearer every reimage is refused and counted, and nothing is lost.
	cfg.IngestToken, cfg.Blocks = "", 5
	rep, err = Wave(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ServersReimaged != 0 || rep.Errors == 0 || rep.Errors != rep.Datacenters[0].ReimageErrors || rep.LostReplicas != st.Lost {
		t.Errorf("unauthorised wave = %+v, want only reimage errors", rep)
	}
}
