package service_test

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"harvest/internal/core"
	"harvest/internal/ledger"
	"harvest/internal/service"
	"harvest/internal/signalproc"
	"harvest/internal/wire"
)

// binClient is a minimal sequential binary-dialect client for tests: one
// frame out, one frame in.
type binClient struct {
	t       *testing.T
	conn    net.Conn
	br      *bufio.Reader
	scratch []byte
	nextID  uint64
}

func dialBinary(t *testing.T, addr string) *binClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial binary %s: %v", addr, err)
	}
	t.Cleanup(func() { conn.Close() })
	return &binClient{t: t, conn: conn, br: bufio.NewReader(conn)}
}

// roundTrip sends one pre-built frame and reads one response frame.
func (c *binClient) roundTrip(frame []byte) (wire.Header, []byte) {
	c.t.Helper()
	if _, err := c.conn.Write(frame); err != nil {
		c.t.Fatalf("write frame: %v", err)
	}
	h, payload, err := wire.ReadFrame(c.br, &c.scratch)
	if err != nil {
		c.t.Fatalf("read frame: %v", err)
	}
	return h, payload
}

func (c *binClient) id() uint64 {
	c.nextID++
	return c.nextID
}

func startBinaryServer(t *testing.T, svc *service.Service) string {
	t.Helper()
	bs := service.NewBinaryServer(svc)
	addr, _, err := bs.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatalf("binary listen: %v", err)
	}
	t.Cleanup(bs.Close)
	return addr.String()
}

func TestBinaryServerBasics(t *testing.T) {
	svc := newTestService(t)
	defer svc.Close()
	addr := startBinaryServer(t, svc)
	c := dialBinary(t, addr)

	// Request id echo + classes round trip.
	h, payload := c.roundTrip(wire.AppendClassesReq(nil, 42, "DC-9"))
	if h.Op != wire.OpClassesResp || h.ID != 42 {
		t.Fatalf("classes response header %+v", h)
	}
	var classes wire.ClassesResp
	if err := classes.Decode(payload); err != nil {
		t.Fatalf("decode classes: %v", err)
	}
	if len(classes.Classes) == 0 || classes.Generation == 0 {
		t.Fatalf("empty classes response %+v", classes)
	}

	// Unknown datacenter answers an error frame, connection stays usable.
	h, payload = c.roundTrip(wire.AppendClassesReq(nil, c.id(), "DC-404"))
	var e wire.ErrorResp
	if h.Op != wire.OpError || e.Decode(payload) != nil || e.Code != 404 {
		t.Fatalf("unknown dc: op %v payload %x", h.Op, payload)
	}

	// Select reserves a lease; release over the same dialect returns it with
	// exact-millicore conservation.
	h, payload = c.roundTrip(wire.AppendSelectReq(nil, c.id(), "DC-9",
		wire.SelectReq{Job: wire.JobShort, MaxCores: 2}))
	if h.Op != wire.OpSelectResp {
		t.Fatalf("select: op %v", h.Op)
	}
	var sel wire.SelectResp
	if err := sel.Decode(payload); err != nil {
		t.Fatalf("decode select: %v", err)
	}
	if !sel.Satisfiable || sel.Lease == 0 || len(sel.Classes) == 0 {
		t.Fatalf("select not satisfied: %+v", sel)
	}
	h, payload = c.roundTrip(wire.AppendReleaseReq(nil, c.id(), "DC-9", sel.Lease))
	if h.Op != wire.OpReleaseResp {
		t.Fatalf("release: op %v payload %x", h.Op, payload)
	}
	var rel wire.ReleaseResp
	if err := rel.Decode(payload); err != nil {
		t.Fatalf("decode release: %v", err)
	}
	var granted float64
	for _, g := range sel.Classes {
		granted += g.Granted
	}
	if rel.TotalMillis != ledger.ToMillis(granted) {
		t.Fatalf("released %d millis, granted %v cores", rel.TotalMillis, granted)
	}

	// Double release of the same lease is 404, like the JSON API.
	h, payload = c.roundTrip(wire.AppendReleaseReq(nil, c.id(), "DC-9", sel.Lease))
	if h.Op != wire.OpError || e.Decode(payload) != nil || e.Code != 404 {
		t.Fatalf("double release: op %v code %d", h.Op, e.Code)
	}

	// Place.
	h, payload = c.roundTrip(wire.AppendPlaceReq(nil, c.id(), "DC-9",
		wire.PlaceReq{Replication: 3, Writer: -1}))
	if h.Op != wire.OpPlaceResp {
		t.Fatalf("place: op %v payload %x", h.Op, payload)
	}
	var place wire.PlaceResp
	if err := place.Decode(payload); err != nil || len(place.Replicas) != 3 {
		t.Fatalf("place response %+v err %v", place, err)
	}

	// Server class on a class's example server.
	h, payload = c.roundTrip(wire.AppendServerClassReq(nil, c.id(), "DC-9", classes.Classes[0].ExampleServer))
	if h.Op != wire.OpServerClassResp {
		t.Fatalf("server class: op %v", h.Op)
	}
	var sc wire.ServerClassResp
	if err := sc.Decode(payload); err != nil || sc.Class.ID != classes.Classes[0].ID {
		t.Fatalf("server class response %+v err %v", sc, err)
	}
}

func TestBinaryServerPipelining(t *testing.T) {
	svc := newTestService(t)
	defer svc.Close()
	addr := startBinaryServer(t, svc)
	c := dialBinary(t, addr)

	// A pipelined burst: many frames in one write, responses read back in
	// order with matching ids.
	const n = 32
	var batch []byte
	for i := uint64(1); i <= n; i++ {
		batch = wire.AppendClassesReq(batch, i, "DC-9")
	}
	if _, err := c.conn.Write(batch); err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= n; i++ {
		h, _, err := wire.ReadFrame(c.br, &c.scratch)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if h.ID != i || h.Op != wire.OpClassesResp {
			t.Fatalf("response %d: header %+v", i, h)
		}
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

func TestBinaryServerClosesOnGarbage(t *testing.T) {
	svc := newTestService(t)
	defer svc.Close()
	bs := service.NewBinaryServer(svc)
	addr, _, err := bs.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatalf("binary listen: %v", err)
	}
	defer bs.Close()

	for name, garbage := range map[string][]byte{
		// An accidental HTTP request fails the magic byte.
		"http accident":             []byte("POST /v1/DC-9/select HTTP/1.1\r\n\r\n"),
		"forged replication header": forgedReplHeader(),
	} {
		before := bs.Stats().FramingErrors
		c := dialBinary(t, addr.String())
		if _, err := c.conn.Write(garbage); err != nil {
			t.Fatal(err)
		}
		// The server must close without writing anything.
		c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if b, err := c.br.ReadByte(); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("%s: server answered %#x, %v instead of closing", name, b, err)
		}
		if got := bs.Stats().FramingErrors - before; got != 1 {
			t.Errorf("%s: framing_errors moved by %d, want 1", name, got)
		}
	}
}

// exchange is one request's outcome in a dialect-neutral shape: the status
// (an error frame's code on the binary dialect), the rejection message, and on
// success the answer with whatever is random by design (lease and block ids)
// or wall-clock dependent (time to expiry) normalized away.
type exchange struct {
	Status  int
	Message string
	Answer  any
}

type classAnswer struct {
	ID      int
	Pattern string
	Tenants int
	Servers int
	Avg     float64
	Peak    float64
	Current float64
	Alloc   float64
	Example int64
}

type selectAnswer struct {
	Generation  uint64
	JobType     string
	Satisfiable bool
	Classes     []int
	Headrooms   []float64
	Granted     []float64
	Leased      bool
	Expires     bool
}

type leaseAnswer struct {
	TotalCores float64
	Classes    []int // release only
	Cores      []float64
	Expires    bool // renew only
}

type placeAnswer struct {
	Generation uint64
	Replicas   []int64
	Recorded   bool // a block id came back
}

type reimageAnswer struct {
	Server  int64
	Lost    int
	Pending int64
}

// selectInput spells one select for both dialects: the JSON API names the job
// type, the binary dialect sends its code.
type selectInput struct {
	JobName    string
	JobCode    uint8
	DryRun     bool
	Cores      float64
	LastRun    float64
	HoldMillis uint32
}

// dialect drives one service over one protocol. lease and block ids are
// random by design, so each dialect remembers its own: leases holds the lease
// of every select in order (0 where none was granted).
type dialect interface {
	service() *service.Service
	leases() *[]uint64
	classes(dc string) exchange
	serverClass(dc string, server int64) exchange
	sel(dc string, in selectInput) exchange
	release(dc string, lease uint64) exchange
	renew(dc string, lease uint64, holdMillis uint32) exchange
	place(dc string, block bool, replication int, writer int64, relaxed bool) exchange
	reimage(dc string, server int64) exchange
}

// TestCrossProtocolEquivalence drives one table of requests — every
// operation, and every rejection both dialects can spell — over the JSON API
// and the binary dialect against two identically seeded services. Each step
// must answer the same status, the same message and the same normalized body
// on both; a rejected step must leave the ledger and block books of its
// service untouched; and the two services must end with identical books.
//
// Selection and placement consume pooled per-request RNGs, so equivalence
// of outcomes needs both services to draw identical RNG sequences: with
// GOMAXPROCS=1 and GC disabled, each service's pool degenerates to a single
// deterministic RNG reused by its strictly sequential requests.
func TestCrossProtocolEquivalence(t *testing.T) {
	if raceEnabled {
		// sync.Pool deliberately randomizes reuse under the race detector,
		// so the two services' RNG draws cannot be aligned there.
		t.Skip("pooled-RNG determinism is unavailable under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	const dc, nowhere = "DC-9", "DC-X"
	short := selectInput{JobName: "short", JobCode: wire.JobShort, Cores: 2}
	leaseOf := func(d dialect, i int) uint64 { return (*d.leases())[i] }
	exampleServer := func(d dialect) int64 {
		return d.classes(dc).Answer.([]classAnswer)[0].Example
	}

	type step struct {
		name string
		do   func(d dialect) exchange
		want int
	}
	steps := []step{
		{"classes", func(d dialect) exchange { return d.classes(dc) }, 200},
		{"classes unknown dc", func(d dialect) exchange { return d.classes(nowhere) }, 404},

		// Selects 0–5: the reserving and advisory mix.
		{"select short", func(d dialect) exchange { return d.sel(dc, short) }, 200},
		{"select from last run", func(d dialect) exchange {
			return d.sel(dc, selectInput{JobCode: wire.JobFromLastRun, LastRun: 45, Cores: 1.5})
		}, 200},
		{"select long with hold", func(d dialect) exchange {
			return d.sel(dc, selectInput{JobName: "long", JobCode: wire.JobLong, Cores: 4, HoldMillis: 30_000})
		}, 200},
		{"select fractional", func(d dialect) exchange {
			return d.sel(dc, selectInput{JobName: "medium", JobCode: wire.JobMedium, Cores: 0.5})
		}, 200},
		{"select dry run", func(d dialect) exchange {
			return d.sel(dc, selectInput{JobName: "medium", JobCode: wire.JobMedium, Cores: 2, DryRun: true})
		}, 200},
		{"select short again", func(d dialect) exchange {
			return d.sel(dc, selectInput{JobName: "short", JobCode: wire.JobShort, Cores: 3})
		}, 200},
		{"select unknown dc", func(d dialect) exchange { return d.sel(nowhere, short) }, 404},
		{"select zero cores", func(d dialect) exchange {
			return d.sel(dc, selectInput{JobName: "short", JobCode: wire.JobShort})
		}, 400},
		{"select negative cores", func(d dialect) exchange {
			return d.sel(dc, selectInput{JobName: "short", JobCode: wire.JobShort, Cores: -3})
		}, 400},
		{"select bad job type", func(d dialect) exchange {
			return d.sel(dc, selectInput{JobName: "eternal", JobCode: 9, Cores: 1})
		}, 400},
		{"select negative last run", func(d dialect) exchange {
			return d.sel(dc, selectInput{JobCode: wire.JobFromLastRun, LastRun: -1, Cores: 1})
		}, 400},
		{"select absurd last run", func(d dialect) exchange {
			return d.sel(dc, selectInput{JobCode: wire.JobFromLastRun, LastRun: 2e9, Cores: 1})
		}, 400},
		{"select over-cap hold", func(d dialect) exchange {
			return d.sel(dc, selectInput{JobName: "short", JobCode: wire.JobShort, Cores: 1, HoldMillis: 3_601_000})
		}, 400},
		{"dry run with a bad hold", func(d dialect) exchange {
			return d.sel(dc, selectInput{JobName: "short", JobCode: wire.JobShort, Cores: 1, HoldMillis: 3_601_000, DryRun: true})
		}, 400},

		{"renew", func(d dialect) exchange { return d.renew(dc, leaseOf(d, 1), 60_000) }, 200},
		{"renew default hold", func(d dialect) exchange { return d.renew(dc, leaseOf(d, 1), 0) }, 200},
		{"renew unknown dc", func(d dialect) exchange { return d.renew(nowhere, leaseOf(d, 1), 0) }, 404},
		{"renew zero lease", func(d dialect) exchange { return d.renew(dc, 0, 0) }, 400},
		{"renew unknown lease", func(d dialect) exchange { return d.renew(dc, 424242, 0) }, 404},
		{"renew over-cap hold", func(d dialect) exchange { return d.renew(dc, leaseOf(d, 1), 3_601_000) }, 400},

		{"release", func(d dialect) exchange { return d.release(dc, leaseOf(d, 0)) }, 200},
		{"release another", func(d dialect) exchange { return d.release(dc, leaseOf(d, 2)) }, 200},
		{"release twice", func(d dialect) exchange { return d.release(dc, leaseOf(d, 0)) }, 404},
		{"release unknown dc", func(d dialect) exchange { return d.release(nowhere, leaseOf(d, 1)) }, 404},
		{"release zero lease", func(d dialect) exchange { return d.release(dc, 0) }, 400},
		{"release unknown lease", func(d dialect) exchange { return d.release(dc, 424242) }, 404},

		// An expired lease is an unknown lease: select 6 holds for a
		// millisecond and the sweep reclaims it.
		{"select to expire", func(d dialect) exchange {
			return d.sel(dc, selectInput{JobName: "short", JobCode: wire.JobShort, Cores: 1, HoldMillis: 1})
		}, 200},
		{"sweep", func(d dialect) exchange {
			n, _ := d.service().SweepLeases(time.Now().Add(time.Second))
			return exchange{Status: 200, Answer: n}
		}, 200},
		{"renew expired lease", func(d dialect) exchange { return d.renew(dc, leaseOf(d, 6), 0) }, 404},
		{"release expired lease", func(d dialect) exchange { return d.release(dc, leaseOf(d, 6)) }, 404},

		{"place r=3", func(d dialect) exchange { return d.place(dc, false, 3, -1, false) }, 200},
		{"place r=4 relaxed", func(d dialect) exchange { return d.place(dc, false, 4, -1, true) }, 200},
		{"place from a writer", func(d dialect) exchange { return d.place(dc, false, 3, exampleServer(d), false) }, 200},
		{"place unknown dc", func(d dialect) exchange { return d.place(nowhere, false, 3, -1, false) }, 404},
		{"place zero replication", func(d dialect) exchange { return d.place(dc, false, 0, -1, false) }, 400},
		{"place excessive replication", func(d dialect) exchange { return d.place(dc, false, 65, -1, false) }, 400},

		{"create block", func(d dialect) exchange { return d.place(dc, true, 3, exampleServer(d), false) }, 200},
		{"create block r=4", func(d dialect) exchange { return d.place(dc, true, 4, -1, false) }, 200},
		{"create block unknown dc", func(d dialect) exchange { return d.place(nowhere, true, 3, -1, false) }, 404},
		{"create block zero replication", func(d dialect) exchange { return d.place(dc, true, 0, -1, false) }, 400},
		{"create block excessive replication", func(d dialect) exchange { return d.place(dc, true, 65, -1, false) }, 400},

		// The first block's first replica sits on its writer.
		{"reimage", func(d dialect) exchange { return d.reimage(dc, exampleServer(d)) }, 200},
		{"reimage a server holding nothing", func(d dialect) exchange { return d.reimage(dc, 99999999) }, 200},
		{"reimage unknown dc", func(d dialect) exchange { return d.reimage(nowhere, 1) }, 404},

		{"server class", func(d dialect) exchange { return d.serverClass(dc, exampleServer(d)) }, 200},
		{"server class unknown dc", func(d dialect) exchange { return d.serverClass(nowhere, 1) }, 404},
		{"server class unknown server", func(d dialect) exchange { return d.serverClass(dc, 99999999) }, 404},
		{"classes after the churn", func(d dialect) exchange { return d.classes(dc) }, 200},
	}

	run := func(t *testing.T, cfg service.Config, steps []step) {
		svcJSON, err := service.New(cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		defer svcJSON.Close()
		srv := httptest.NewServer(service.NewAPI(svcJSON))
		defer srv.Close()
		svcBin, err := service.New(cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		defer svcBin.Close()
		dialects := []dialect{
			&jsonDialect{t: t, svc: svcJSON, base: srv.URL},
			&binDialect{t: t, svc: svcBin, c: dialBinary(t, startBinaryServer(t, svcBin))},
		}

		for _, st := range steps {
			var got [2]exchange
			for i, d := range dialects {
				ledgerBefore, _ := d.service().LedgerStats(dc)
				blocksBefore, _ := d.service().BlockStats(dc)
				got[i] = st.do(d)
				if got[i].Status == 200 {
					continue
				}
				ledgerAfter, _ := d.service().LedgerStats(dc)
				blocksAfter, _ := d.service().BlockStats(dc)
				if !reflect.DeepEqual(ledgerBefore, ledgerAfter) || blocksBefore != blocksAfter {
					t.Fatalf("%s: a rejected request moved the books:\nledger %+v → %+v\nblocks %+v → %+v",
						st.name, ledgerBefore, ledgerAfter, blocksBefore, blocksAfter)
				}
			}
			if got[0].Status != st.want {
				t.Fatalf("%s: status %d (%s), want %d", st.name, got[0].Status, got[0].Message, st.want)
			}
			if got[0].Status != 200 && got[0].Message == "" {
				t.Fatalf("%s: rejection without a message", st.name)
			}
			if !reflect.DeepEqual(got[0], got[1]) {
				t.Fatalf("%s diverges:\njson %+v\nbin  %+v", st.name, got[0], got[1])
			}
		}

		// The sequences must have written identical books.
		jb, _ := svcJSON.LedgerStats(dc)
		bb, _ := svcBin.LedgerStats(dc)
		if !reflect.DeepEqual(jb, bb) {
			t.Fatalf("ledger books diverge:\njson %+v\nbin  %+v", jb, bb)
		}
		if jb.ReservedMillis != jb.ReleasedMillis+jb.ExpiredMillis+jb.ForfeitedMillis+jb.OutstandingMillis {
			t.Fatalf("conservation violated: %+v", jb)
		}
		jg, ja, _ := svcJSON.LedgerOccupancy(dc)
		bg, ba, _ := svcBin.LedgerOccupancy(dc)
		if jg != bg || !reflect.DeepEqual(ja, ba) {
			t.Fatalf("occupancy diverges: gen %d/%d %v vs %v", jg, bg, ja, ba)
		}
		jbl, _ := svcJSON.BlockStats(dc)
		bbl, _ := svcBin.BlockStats(dc)
		if jbl != bbl {
			t.Fatalf("block books diverge:\njson %+v\nbin  %+v", jbl, bbl)
		}
		if jbl.Placed+jbl.Pending != jbl.ReplicaSlots || jbl.Lost != jbl.Replaced+jbl.Pending {
			t.Fatalf("block conservation violated: %+v", jbl)
		}
	}

	t.Run("primary", func(t *testing.T) { run(t, testConfig(), steps) })

	// A follower (never started, so it never dials its primary) serves the
	// reads and answers every write 503.
	t.Run("follower", func(t *testing.T) {
		cfg := testConfig()
		cfg.FollowAddr = "127.0.0.1:1"
		run(t, cfg, []step{
			{"classes", func(d dialect) exchange { return d.classes(dc) }, 200},
			{"dry-run select", func(d dialect) exchange {
				return d.sel(dc, selectInput{JobName: "short", JobCode: wire.JobShort, Cores: 2, DryRun: true})
			}, 200},
			{"place", func(d dialect) exchange { return d.place(dc, false, 3, -1, false) }, 200},
			{"select", func(d dialect) exchange { return d.sel(dc, short) }, 503},
			{"release", func(d dialect) exchange { return d.release(dc, 424242) }, 503},
			{"renew", func(d dialect) exchange { return d.renew(dc, 424242, 0) }, 503},
			{"create block", func(d dialect) exchange { return d.place(dc, true, 3, -1, false) }, 503},
			{"reimage", func(d dialect) exchange { return d.reimage(dc, 1) }, 503},
		})
	})
}

// --- JSON dialect ---

type jsonDialect struct {
	t      *testing.T
	svc    *service.Service
	base   string
	leased []uint64
}

func (d *jsonDialect) service() *service.Service { return d.svc }
func (d *jsonDialect) leases() *[]uint64         { return &d.leased }

// finish turns an HTTP response into an exchange: a rejection's message, or
// the body decoded into v.
func (d *jsonDialect) finish(resp *http.Response, body []byte, v any) exchange {
	d.t.Helper()
	if resp.StatusCode != 200 {
		var e struct {
			Error string `json:"error"`
		}
		decode(d.t, body, &e)
		return exchange{Status: resp.StatusCode, Message: e.Error}
	}
	decode(d.t, body, v)
	return exchange{Status: 200}
}

func (d *jsonDialect) post(path, body string, v any) exchange {
	d.t.Helper()
	resp, b := postJSON(d.t, d.base+path, body)
	return d.finish(resp, b, v)
}

type jsonClass struct {
	ID                 int     `json:"id"`
	Pattern            string  `json:"pattern"`
	NumTenants         int     `json:"num_tenants"`
	NumServers         int     `json:"num_servers"`
	AvgUtilization     float64 `json:"avg_utilization"`
	PeakUtilization    float64 `json:"peak_utilization"`
	CurrentUtilization float64 `json:"current_utilization"`
	AllocatedCores     float64 `json:"allocated_cores"`
	ExampleServer      int64   `json:"example_server"`
}

func (c jsonClass) answer() classAnswer {
	return classAnswer{c.ID, c.Pattern, c.NumTenants, c.NumServers,
		c.AvgUtilization, c.PeakUtilization, c.CurrentUtilization, c.AllocatedCores, c.ExampleServer}
}

func (d *jsonDialect) classes(dc string) exchange {
	var r struct {
		Classes []jsonClass `json:"classes"`
	}
	resp, b := get(d.t, d.base+"/v1/"+dc+"/classes")
	ex := d.finish(resp, b, &r)
	if ex.Status == 200 {
		out := make([]classAnswer, len(r.Classes))
		for i, c := range r.Classes {
			out[i] = c.answer()
		}
		ex.Answer = out
	}
	return ex
}

func (d *jsonDialect) serverClass(dc string, server int64) exchange {
	var r struct {
		Class jsonClass `json:"class"`
	}
	resp, b := get(d.t, fmt.Sprintf("%s/v1/%s/servers/%d/class", d.base, dc, server))
	ex := d.finish(resp, b, &r)
	if ex.Status == 200 {
		ex.Answer = r.Class.answer()
	}
	return ex
}

func (d *jsonDialect) sel(dc string, in selectInput) exchange {
	var r struct {
		Generation       uint64    `json:"generation"`
		JobType          string    `json:"job_type"`
		Satisfiable      bool      `json:"satisfiable"`
		Classes          []int     `json:"classes"`
		Headrooms        []float64 `json:"headrooms"`
		Lease            uint64    `json:"lease"`
		Granted          []float64 `json:"granted"`
		ExpiresInSeconds float64   `json:"expires_in_seconds"`
	}
	ex := d.post("/v1/"+dc+"/select", fmt.Sprintf(
		`{"job_type":%q,"last_run_seconds":%v,"max_concurrent_cores":%v,"hold_seconds":%v,"dry_run":%v}`,
		in.JobName, in.LastRun, in.Cores, float64(in.HoldMillis)/1000, in.DryRun), &r)
	if ex.Status == 200 {
		d.leased = append(d.leased, r.Lease)
		ex.Answer = selectAnswer{r.Generation, r.JobType, r.Satisfiable, r.Classes, r.Headrooms, r.Granted,
			r.Lease != 0, r.ExpiresInSeconds > 0}
	}
	return ex
}

func (d *jsonDialect) release(dc string, lease uint64) exchange {
	var r struct {
		ReleasedCores float64   `json:"released_cores"`
		Classes       []int     `json:"classes"`
		Cores         []float64 `json:"cores"`
	}
	ex := d.post("/v1/"+dc+"/release", fmt.Sprintf(`{"lease":%d}`, lease), &r)
	if ex.Status == 200 {
		ex.Answer = leaseAnswer{TotalCores: r.ReleasedCores, Classes: r.Classes, Cores: r.Cores}
	}
	return ex
}

func (d *jsonDialect) renew(dc string, lease uint64, holdMillis uint32) exchange {
	var r struct {
		TotalCores       float64 `json:"total_cores"`
		ExpiresInSeconds float64 `json:"expires_in_seconds"`
	}
	ex := d.post("/v1/"+dc+"/renew", fmt.Sprintf(`{"lease":%d,"hold_seconds":%v}`, lease, float64(holdMillis)/1000), &r)
	if ex.Status == 200 {
		ex.Answer = leaseAnswer{TotalCores: r.TotalCores, Expires: r.ExpiresInSeconds > 0}
	}
	return ex
}

func (d *jsonDialect) place(dc string, block bool, replication int, writer int64, relaxed bool) exchange {
	var r struct {
		Generation uint64  `json:"generation"`
		Block      uint64  `json:"block"`
		Replicas   []int64 `json:"replicas"`
	}
	route := "/place"
	if block {
		route = "/blocks"
	}
	ex := d.post("/v1/"+dc+route, fmt.Sprintf(`{"replication":%d,"writer":%d,"relaxed_environment":%v}`,
		replication, writer, relaxed), &r)
	if ex.Status == 200 {
		ex.Answer = placeAnswer{r.Generation, r.Replicas, r.Block != 0}
	}
	return ex
}

func (d *jsonDialect) reimage(dc string, server int64) exchange {
	var r struct {
		Server  int64 `json:"server"`
		Lost    int   `json:"lost"`
		Pending int64 `json:"pending"`
	}
	ex := d.post("/v1/"+dc+"/reimage", fmt.Sprintf(`{"server":%d}`, server), &r)
	if ex.Status == 200 {
		ex.Answer = reimageAnswer{r.Server, r.Lost, r.Pending}
	}
	return ex
}

// --- binary dialect ---

type binDialect struct {
	t      *testing.T
	svc    *service.Service
	c      *binClient
	leased []uint64
}

func (d *binDialect) service() *service.Service { return d.svc }
func (d *binDialect) leases() *[]uint64         { return &d.leased }

// call sends one frame and decodes the answer: an error frame's code and
// message, or the response opcode's payload into m.
func (d *binDialect) call(frame []byte, want wire.Op, m interface{ Decode([]byte) error }) exchange {
	d.t.Helper()
	h, payload := d.c.roundTrip(frame)
	if h.Op == wire.OpError {
		var e wire.ErrorResp
		if err := e.Decode(payload); err != nil {
			d.t.Fatalf("decode error frame: %v", err)
		}
		return exchange{Status: int(e.Code), Message: string(e.Message)}
	}
	if h.Op != want {
		d.t.Fatalf("response op %v, want %v", h.Op, want)
	}
	if err := m.Decode(payload); err != nil {
		d.t.Fatalf("decode %v: %v", h.Op, err)
	}
	return exchange{Status: 200}
}

func recAnswer(c wire.ClassRec) classAnswer {
	return classAnswer{int(c.ID), signalproc.Pattern(c.Pattern).String(), int(c.NumTenants), int(c.NumServers),
		c.Avg, c.Peak, c.Current, ledger.CoresOf(c.AllocMillis), c.ExampleServer}
}

func (d *binDialect) classes(dc string) exchange {
	var m wire.ClassesResp
	ex := d.call(wire.AppendClassesReq(nil, d.c.id(), dc), wire.OpClassesResp, &m)
	if ex.Status == 200 {
		out := make([]classAnswer, len(m.Classes))
		for i, c := range m.Classes {
			out[i] = recAnswer(c)
		}
		ex.Answer = out
	}
	return ex
}

func (d *binDialect) serverClass(dc string, server int64) exchange {
	var m wire.ServerClassResp
	ex := d.call(wire.AppendServerClassReq(nil, d.c.id(), dc, server), wire.OpServerClassResp, &m)
	if ex.Status == 200 {
		ex.Answer = recAnswer(m.Class)
	}
	return ex
}

func (d *binDialect) sel(dc string, in selectInput) exchange {
	req := wire.SelectReq{Job: in.JobCode, MaxCores: in.Cores, LastRunSeconds: in.LastRun, HoldMillis: in.HoldMillis}
	if in.DryRun {
		req.Flags = wire.SelectFlagDryRun
	}
	var m wire.SelectResp
	ex := d.call(wire.AppendSelectReq(nil, d.c.id(), dc, req), wire.OpSelectResp, &m)
	if ex.Status != 200 {
		return ex
	}
	d.leased = append(d.leased, m.Lease)
	// The JSON dialect always materializes classes/headrooms as arrays, and
	// omits granted where the binary dialect carries a column of zeros (dry
	// run, unsatisfiable).
	ans := selectAnswer{
		Generation:  m.Generation,
		JobType:     core.JobType(m.Job).String(),
		Satisfiable: m.Satisfiable,
		Classes:     []int{},
		Headrooms:   []float64{},
		Leased:      m.Lease != 0,
		Expires:     m.ExpiresIn > 0,
	}
	for _, g := range m.Classes {
		ans.Classes = append(ans.Classes, int(g.Class))
		ans.Headrooms = append(ans.Headrooms, g.Headroom)
		if m.Lease != 0 {
			ans.Granted = append(ans.Granted, g.Granted)
		}
	}
	ex.Answer = ans
	return ex
}

func (d *binDialect) release(dc string, lease uint64) exchange {
	var m wire.ReleaseResp
	ex := d.call(wire.AppendReleaseReq(nil, d.c.id(), dc, lease), wire.OpReleaseResp, &m)
	if ex.Status == 200 {
		ans := leaseAnswer{TotalCores: ledger.CoresOf(m.TotalMillis), Classes: []int{}, Cores: []float64{}}
		for _, g := range m.Grants {
			ans.Classes = append(ans.Classes, int(g.Class))
			ans.Cores = append(ans.Cores, ledger.CoresOf(g.Millis))
		}
		ex.Answer = ans
	}
	return ex
}

func (d *binDialect) renew(dc string, lease uint64, holdMillis uint32) exchange {
	var m wire.RenewResp
	ex := d.call(wire.AppendRenewReq(nil, d.c.id(), dc, wire.RenewReq{Lease: lease, HoldMillis: holdMillis}), wire.OpRenewResp, &m)
	if ex.Status == 200 {
		ex.Answer = leaseAnswer{TotalCores: ledger.CoresOf(m.TotalMillis), Expires: m.ExpiresIn > 0}
	}
	return ex
}

func (d *binDialect) place(dc string, block bool, replication int, writer int64, relaxed bool) exchange {
	var flags uint8
	if relaxed {
		flags = wire.PlaceFlagRelaxed
	}
	if block {
		var m wire.PlaceBlockResp
		ex := d.call(wire.AppendPlaceBlockReq(nil, d.c.id(), dc,
			wire.PlaceBlockReq{Replication: uint8(replication), Flags: flags, Writer: writer}), wire.OpPlaceBlockResp, &m)
		if ex.Status == 200 {
			ex.Answer = placeAnswer{m.Generation, m.Replicas, m.Block != 0}
		}
		return ex
	}
	var m wire.PlaceResp
	ex := d.call(wire.AppendPlaceReq(nil, d.c.id(), dc,
		wire.PlaceReq{Replication: uint8(replication), Flags: flags, Writer: writer}), wire.OpPlaceResp, &m)
	if ex.Status == 200 {
		ex.Answer = placeAnswer{m.Generation, m.Replicas, false}
	}
	return ex
}

func (d *binDialect) reimage(dc string, server int64) exchange {
	var m wire.ReimageResp
	ex := d.call(wire.AppendReimageReq(nil, d.c.id(), dc, server), wire.OpReimageResp, &m)
	if ex.Status == 200 {
		ex.Answer = reimageAnswer{m.Server, int(m.Lost), int64(m.Pending)}
	}
	return ex
}

// TestOpTableComplete pins the op table as the whole data plane: every
// request opcode has exactly one row and a codec on both dialects, the JSON
// API serves each row's route and nothing else under /v1/{dc}/ but the two
// ingest-plane endpoints, and Op.String/IsRequest answer from the table.
func TestOpTableComplete(t *testing.T) {
	svc := newTestService(t)
	defer svc.Close()
	api := service.NewAPI(svc)
	bin := dialBinary(t, startBinaryServer(t, svc))

	rows := map[wire.Op]int{}
	for _, info := range wire.Ops {
		rows[info.Op]++
	}
	for code := 0; code < 256; code++ {
		op := wire.Op(code)
		if op.IsRequest() != (rows[op] == 1) || rows[op] > 1 {
			t.Errorf("%v: IsRequest %v with %d table rows", op, op.IsRequest(), rows[op])
		}
		if op.IsRepl() {
			continue // a framing error on the public ports: the connection closes
		}
		// Every frame gets an answer; only a request opcode gets past the
		// opcode check to its codec, which an empty payload fails.
		h, payload := bin.roundTrip(wire.AppendFrame(nil, op, bin.id(), nil))
		var e wire.ErrorResp
		if h.Op != wire.OpError || e.Decode(payload) != nil || e.Code != 400 {
			t.Fatalf("%v with an empty payload: op %v code %d", op, h.Op, e.Code)
		}
		if unknown := string(e.Message) == "unknown opcode"; unknown == op.IsRequest() {
			t.Errorf("%v: binary dispatch says %q", op, e.Message)
		}
	}

	routes := map[string]bool{"POST telemetry": true, "GET leases": true}
	names, endpoints := map[string]bool{}, map[string]bool{}
	for _, info := range wire.Ops {
		if info.Op.String() != info.Name || info.Op.Resp().String() != info.Name+"_resp" {
			t.Errorf("%s: Op.String gives %q and %q", info.Name, info.Op, info.Op.Resp())
		}
		route := info.Method + " " + info.Route
		if routes[route] || names[info.Name] || endpoints[info.Endpoint] {
			t.Errorf("%s: route %q, name or endpoint %q appears twice", info.Name, route, info.Endpoint)
		}
		routes[route], names[info.Name], endpoints[info.Endpoint] = true, true, true
		if got := wire.OpForRoute(info.Method, info.Route); got == nil || got.Op != info.Op {
			t.Errorf("%s: OpForRoute(%q, %q) = %v", info.Name, info.Method, info.Route, got)
		}
		path := "/v1/DC-9/" + strings.ReplaceAll(info.Route, "{id}", "1")
		if pattern := api.Pattern(httptest.NewRequest(info.Method, path, nil)); pattern != info.Method+" /v1/{dc}/"+info.Route {
			t.Errorf("%s: %s %s is served by pattern %q", info.Name, info.Method, path, pattern)
		}
	}
	// Nothing else is registered under /v1/{dc}/: every plausible data-plane
	// path outside the table must be unrouted.
	for _, method := range []string{"GET", "POST"} {
		for _, rest := range []string{"select", "release", "renew", "place", "blocks", "reimage", "classes",
			"servers/1/class", "telemetry", "leases", "place_block", "server_class", "servers", "block"} {
			route := method + " " + strings.ReplaceAll(rest, "servers/1/class", "servers/{id}/class")
			pattern := api.Pattern(httptest.NewRequest(method, "/v1/DC-9/"+rest, nil))
			if served := pattern != ""; served != routes[route] {
				t.Errorf("%s /v1/DC-9/%s: served by %q, table says %v", method, rest, pattern, routes[route])
			}
		}
	}
}

// TestBinaryReimageHonoursIngestGate pins the auth parity of the one
// bearer-gated operation: with an ingest token configured the binary dialect,
// which has no credential field, refuses reimage outright and moves nothing,
// while the JSON endpoint serves whoever presents the bearer.
func TestBinaryReimageHonoursIngestGate(t *testing.T) {
	svc := newTestService(t)
	defer svc.Close()
	api := service.NewAPIWith(svc, service.APIOptions{IngestToken: "s3kr1t"})
	srv := httptest.NewServer(api)
	defer srv.Close()
	bs := service.NewBinaryServer(svc)
	addr, _, err := bs.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatalf("binary listen: %v", err)
	}
	defer bs.Close()
	api.AttachBinary(bs, addr.String())
	c := dialBinary(t, addr.String())

	// A block with a replica on a known server, over the ungated create.
	h, payload := c.roundTrip(wire.AppendPlaceBlockReq(nil, c.id(), "DC-9", wire.PlaceBlockReq{Replication: 3, Writer: -1}))
	var placed wire.PlaceBlockResp
	if h.Op != wire.OpPlaceBlockResp || placed.Decode(payload) != nil {
		t.Fatalf("create block: op %v payload %x", h.Op, payload)
	}
	before, _ := svc.BlockStats("DC-9")

	h, payload = c.roundTrip(wire.AppendReimageReq(nil, c.id(), "DC-9", placed.Replicas[0]))
	var e wire.ErrorResp
	if h.Op != wire.OpError || e.Decode(payload) != nil || e.Code != 401 ||
		string(e.Message) != "reimage requires the ingest bearer; use the JSON endpoint" {
		t.Fatalf("gated binary reimage: op %v code %d message %q", h.Op, e.Code, e.Message)
	}
	if after, _ := svc.BlockStats("DC-9"); after != before {
		t.Fatalf("refused reimage moved the block books: %+v → %+v", before, after)
	}

	body := fmt.Sprintf(`{"server":%d}`, placed.Replicas[0])
	if resp := postWithToken(t, srv.URL+"/v1/DC-9/reimage", "", body); resp.StatusCode != 401 {
		t.Fatalf("tokenless JSON reimage: status %d, want 401", resp.StatusCode)
	}
	if resp := postWithToken(t, srv.URL+"/v1/DC-9/reimage", "s3kr1t", body); resp.StatusCode != 200 {
		t.Fatalf("authorized JSON reimage: status %d, want 200", resp.StatusCode)
	}
	if after, _ := svc.BlockStats("DC-9"); after.Lost != before.Lost+1 {
		t.Fatalf("authorized reimage lost %d replicas, want 1", after.Lost-before.Lost)
	}
}
