package service_test

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"

	"harvest/internal/core"
	"harvest/internal/fleettest"
	"harvest/internal/ledger"
	"harvest/internal/regproto"
	"harvest/internal/service"
	"harvest/internal/wire"
)

func replTestConfig(nodeID string) service.Config {
	cfg := testConfig()
	cfg.NodeID = nodeID
	cfg.ReplInterval = 25 * time.Millisecond
	return cfg
}

func checkLedgerConservation(t *testing.T, st ledger.Stats, who string) {
	t.Helper()
	if st.ReservedMillis != st.ReleasedMillis+st.ExpiredMillis+st.ForfeitedMillis+st.OutstandingMillis {
		t.Fatalf("%s books do not conserve: reserved %d != released %d + expired %d + forfeited %d + outstanding %d",
			who, st.ReservedMillis, st.ReleasedMillis, st.ExpiredMillis, st.ForfeitedMillis, st.OutstandingMillis)
	}
}

// TestReplicationAndPromotion drives the full replica lifecycle end to end:
// a follower joins and receives a full snapshot, tracks the primary through a
// second generation and ledger beats, rejects writes while following, and —
// after the primary dies with leases outstanding — promotes with exactly
// conserved books, no double-grants, and a working write path.
func TestReplicationAndPromotion(t *testing.T) {
	const dc = "DC-9"
	primary, err := service.New(replTestConfig("p1"))
	if err != nil {
		t.Fatalf("New primary: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	primary.ArmReplicationListener(ln)
	primary.Start()

	// Move the primary past its boot generation so the follower's join is a
	// genuine full-snapshot ship, then put leases on the books: one released
	// (history the follower must carry), one outstanding (the promotion
	// cargo).
	if err := primary.Refresh(dc); err != nil {
		t.Fatalf("Refresh: %v", err)
	}
	job := core.JobRequest{Type: core.JobMedium, MaxConcurrentCores: 2}
	released, _, err := primary.SelectReserve(dc, job, 0)
	if err != nil || !released.Reserved() {
		t.Fatalf("SelectReserve (to release): %+v, %v", released, err)
	}
	if _, err := primary.Release(dc, released.Lease); err != nil {
		t.Fatalf("Release: %v", err)
	}
	outstanding, _, err := primary.SelectReserve(dc, job, -1)
	if err != nil || !outstanding.Reserved() {
		t.Fatalf("SelectReserve (outstanding): %+v, %v", outstanding, err)
	}

	fcfg := replTestConfig("f1")
	fcfg.FollowAddr = ln.Addr().String()
	follower, err := service.New(fcfg)
	if err != nil {
		t.Fatalf("New follower: %v", err)
	}
	follower.Start()
	defer follower.Close()
	fln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	follower.ArmReplicationListener(fln)
	// hello says hello on the follower's replication listener and returns
	// the first frame or what the connection did instead.
	hello := func() (wire.Op, error) {
		t.Helper()
		c, err := net.Dial("tcp", fln.Addr().String())
		if err != nil {
			t.Fatalf("dial the follower's replication listener: %v", err)
		}
		defer c.Close()
		if _, err := c.Write(wire.AppendReplHello(nil, 1, &wire.ReplHello{FollowerID: "f2"})); err != nil {
			t.Fatalf("hello: %v", err)
		}
		c.SetReadDeadline(time.Now().Add(2 * time.Second))
		var scratch []byte
		h, _, err := wire.ReadFrame(c, &scratch)
		return h.Op, err
	}

	if follower.Role() != "follower" {
		t.Fatalf("follower role = %q", follower.Role())
	}
	// A follower refuses a hello at once rather than leaving it to wait out
	// the handshake timeout: it has nothing first-hand to ship.
	if op, err := hello(); !errors.Is(err, io.EOF) {
		t.Fatalf("hello to a follower: op %v, err %v; want the connection closed at once", op, err)
	}

	primarySnap, _ := primary.Snapshot(dc)
	fleettest.WaitFor(t, "follower to apply the primary's generation", func() bool {
		snap, _ := follower.Snapshot(dc)
		fst, _ := ledgerStats(follower, dc)
		pst, _ := ledgerStats(primary, dc)
		return snap.Generation == primarySnap.Generation &&
			fst.ReservedMillis == pst.ReservedMillis && fst.ActiveLeases == pst.ActiveLeases
	})
	if rst := follower.ReplicationStats(); rst.SnapshotsApplied == 0 {
		t.Fatalf("follower joined without a full snapshot: %+v", rst)
	}
	if got := follower.PrimaryID(); got != "p1" {
		t.Fatalf("follower PrimaryID = %q, want p1", got)
	}

	// Reads serve on the follower; writes must not.
	sel, _, err := follower.Select(dc, job)
	if err != nil || sel.Empty() {
		t.Fatalf("follower read path: selection %+v, err %v", sel, err)
	}
	if _, _, err := follower.SelectReserve(dc, job, 0); !errors.Is(err, service.ErrFollower) {
		t.Fatalf("follower reserving select: err = %v, want ErrFollower", err)
	}
	if _, err := follower.Release(dc, outstanding.Lease); !errors.Is(err, service.ErrFollower) {
		t.Fatalf("follower release: err = %v, want ErrFollower", err)
	}
	if _, err := follower.Ingest(dc, []service.IngestSample{{Tenant: 0, Server: -1, Value: 0.5}}); !errors.Is(err, service.ErrFollower) {
		t.Fatalf("follower ingest: err = %v, want ErrFollower", err)
	}

	// A refresh on the primary reaches the follower as one more full
	// snapshot: every new generation ships whole.
	joined := follower.ReplicationStats().SnapshotsApplied
	if err := primary.Refresh(dc); err != nil {
		t.Fatalf("Refresh 2: %v", err)
	}
	fleettest.WaitFor(t, "follower to apply the next generation", func() bool {
		snap, _ := follower.Snapshot(dc)
		return snap.Generation == primarySnap.Generation+1
	})
	if rst := follower.ReplicationStats(); rst.SnapshotsApplied != joined+1 {
		t.Fatalf("generation advanced on %d snapshot frames, want 1: %+v", rst.SnapshotsApplied-joined, rst)
	}

	// New books after the refresh propagate via beats.
	post, _, err := primary.SelectReserve(dc, job, -1)
	if err != nil || !post.Reserved() {
		t.Fatalf("SelectReserve (post-refresh): %+v, %v", post, err)
	}
	fleettest.WaitFor(t, "beat to carry the new lease", func() bool {
		fst, _ := ledgerStats(follower, dc)
		pst, _ := ledgerStats(primary, dc)
		return fst.ReservedMillis == pst.ReservedMillis && fst.ActiveLeases == pst.ActiveLeases
	})

	// The ship/apply loop is on the books of both ends: the primary timed its
	// frame builds, the follower timed its reconciles and counted what they
	// found new — the two live leases, once each, however many beats carried
	// them.
	prepl, _ := primary.Stats(dc)
	frepl, _ := follower.Stats(dc)
	pbuild, fapply := prepl.Repl.Build, frepl.Repl.Apply
	if pbuild.Count() == 0 || prepl.Repl.BeatBytes == 0 {
		t.Fatalf("primary shipped frames but reports build count %d, last beat %d B", pbuild.Count(), prepl.Repl.BeatBytes)
	}
	if fapply.Count() == 0 || frepl.Repl.BeatBytes != prepl.Repl.BeatBytes {
		t.Fatalf("follower applied frames but reports apply count %d, last beat %d B (primary built %d B)",
			fapply.Count(), frepl.Repl.BeatBytes, prepl.Repl.BeatBytes)
	}
	if n := frepl.Repl.Inserted; n != 2 {
		t.Fatalf("follower reports %d records inserted over %d frames; it was shipped two leases", n, fapply.Count())
	}

	// Primary dies with leases outstanding; the follower takes over.
	pst, _ := ledgerStats(primary, dc)
	primary.Close()
	if !follower.Promote() {
		t.Fatal("Promote returned false on a follower")
	}
	if follower.Promote() {
		t.Fatal("second Promote returned true")
	}
	if follower.Role() != "primary" {
		t.Fatalf("promoted role = %q", follower.Role())
	}
	// The listener it held while following now streams.
	if op, err := hello(); err != nil || op != wire.OpReplHelloResp {
		t.Fatalf("hello to the promoted node: op %v, err %v; want %v", op, err, wire.OpReplHelloResp)
	}

	// Lease conservation survives the handoff exactly.
	fst, _ := ledgerStats(follower, dc)
	checkLedgerConservation(t, fst, "promoted follower")
	if fst.ReservedMillis != pst.ReservedMillis || fst.OutstandingMillis != pst.OutstandingMillis {
		t.Fatalf("promoted books diverge: follower %+v primary %+v", fst, pst)
	}

	// The replicated leases release exactly once under their original ids —
	// a second release is unknown, so nothing can be double-returned.
	rel, err := follower.Release(dc, outstanding.Lease)
	if err != nil {
		t.Fatalf("release replicated lease after promotion: %v", err)
	}
	if rel.TotalMillis() == 0 {
		t.Fatal("replicated lease released zero cores")
	}
	if _, err := follower.Release(dc, outstanding.Lease); !errors.Is(err, ledger.ErrUnknownLease) {
		t.Fatalf("double release: err = %v, want ErrUnknownLease", err)
	}

	// And the promoted node grants fresh leases.
	fresh, _, err := follower.SelectReserve(dc, job, 0)
	if err != nil || !fresh.Reserved() {
		t.Fatalf("post-promotion reserve: %+v, %v", fresh, err)
	}
	fst, _ = ledgerStats(follower, dc)
	checkLedgerConservation(t, fst, "promoted follower after new writes")
}

// TestFollowerAnnouncesItsPrimaryAtOnce: a follower that boots before its
// primary's replication listener opens joins within a short backoff, and its
// announcer beats as soon as the handshake names the primary — well inside
// one 2 s heartbeat interval — so the router can route to the pair. Every
// beat carries the register token.
func TestFollowerAnnouncesItsPrimaryAtOnce(t *testing.T) {
	router := make(chan string, 16)
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("Authorization") != "Bearer reg-secret" || !regproto.IsUpgrade(r) {
			w.WriteHeader(http.StatusUnauthorized)
			return
		}
		c, err := regproto.Accept(w)
		if err != nil {
			return
		}
		defer c.Close()
		var req regproto.RegisterRequest
		for {
			id, err := c.ReadBeat(&req, time.Minute)
			if err != nil {
				return
			}
			if req.PrimaryID != "" {
				select {
				case router <- req.PrimaryID:
				default:
				}
			}
			if c.Ack(id, &regproto.RegisterResponse{}) != nil {
				return
			}
		}
	}))
	defer stub.Close()

	// An address nobody listens on yet: the follower's first dials are refused.
	reserved, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	addr := reserved.Addr().String()
	reserved.Close()

	primary, err := service.New(replTestConfig("p1"))
	if err != nil {
		t.Fatalf("New primary: %v", err)
	}
	defer primary.Close()
	fcfg := replTestConfig("f1")
	fcfg.FollowAddr = addr
	follower, err := service.New(fcfg)
	if err != nil {
		t.Fatalf("New follower: %v", err)
	}
	defer follower.Close()
	follower.Start()
	ann, err := service.StartAnnouncer(follower, service.AnnouncerConfig{
		RouterURL: stub.URL, SelfURL: "http://127.0.0.1:1", ID: "f1", Interval: 2 * time.Second,
		Token: "reg-secret",
	})
	if err != nil {
		t.Fatalf("StartAnnouncer: %v", err)
	}
	defer ann.Close()

	time.Sleep(100 * time.Millisecond) // a few refused dials
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("the reserved port was taken meanwhile: %v", err)
	}
	primary.ArmReplicationListener(ln)
	select {
	case id := <-router:
		if id != "p1" {
			t.Fatalf("the follower announced primary %q, want p1", id)
		}
	case <-time.After(300 * time.Millisecond):
		t.Fatal("no beat naming the primary reached the router within 300 ms of its replication listener opening")
	}
}

// lateListener hands out one more conn when its listener is closed under a
// blocked Accept: the conn the kernel had ready as Close ran.
type lateListener struct {
	net.Listener
	late chan net.Conn
}

func (l *lateListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		select {
		case c := <-l.late:
			return c, nil
		default:
		}
	}
	return c, err
}

// TestCloseDropsReplicationConns pins the replication listener's side of the
// wire.Server contract: Close closes a follower mid-stream, a conn still
// inside its handshake and a conn accepted while Close runs, and sits out
// replHandshakeTimeout (5 s) for none of them.
func TestCloseDropsReplicationConns(t *testing.T) {
	primary, err := service.New(replTestConfig("p1"))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	tcp, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	ln := &lateListener{Listener: tcp, late: make(chan net.Conn, 1)}
	late, lateServerSide := net.Pipe()
	ln.late <- lateServerSide
	primary.ArmReplicationListener(ln)
	primary.Start()

	dial := func() net.Conn {
		c, err := net.Dial("tcp", tcp.Addr().String())
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		return c
	}
	// The silent conn dials first: the accept loop is sequential, so once the
	// follower behind it is attached, this one is in its handler too.
	silent := dial()
	follower := dial()
	if _, err := follower.Write(wire.AppendReplHello(nil, 1, &wire.ReplHello{FollowerID: "f1"})); err != nil {
		t.Fatalf("hello: %v", err)
	}
	fleettest.WaitFor(t, "the follower to attach", func() bool { return primary.ReplicationStats().Followers == 1 })

	start := time.Now()
	primary.Close()
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("Close took %v with one conn mid-handshake and one accepted as it ran", d)
	}
	for name, c := range map[string]net.Conn{"silent": silent, "follower": follower, "late": late} {
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := io.Copy(io.Discard, c); errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("%s conn still open after Close", name)
		}
		c.Close()
	}
	if n := primary.ReplicationStats().Followers; n != 0 {
		t.Errorf("followers = %d after Close", n)
	}
}

// TestDriftThresholdAutoTune pins the feedback loop: with full rebuilds every
// refresh and undrifted data, the oracle agrees with the warm path, so the
// drift threshold relaxes upward from its base — and the measurement shows up
// in ReclusterStats.
func TestDriftThresholdAutoTune(t *testing.T) {
	cfg := testConfig()
	cfg.FullRebuildEvery = 1 // every refresh is a full rebuild with an oracle measurement
	svc, err := service.New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer svc.Close()
	const dc = "DC-9"
	if err := svc.Refresh(dc); err != nil {
		t.Fatalf("Refresh: %v", err)
	}
	st, _ := svc.Stats(dc)
	if !st.Recluster.FullRebuild {
		t.Fatalf("expected a full rebuild, got %+v", st.Recluster)
	}
	if st.Recluster.FullAgreement < 0.99 {
		t.Fatalf("undrifted full rebuild agreement = %v, want >= 0.99", st.Recluster.FullAgreement)
	}
	base := core.DefaultDriftThreshold
	if cfg.Clustering.DriftThreshold > 0 {
		base = cfg.Clustering.DriftThreshold
	}
	if st.Recluster.DriftThreshold <= base {
		t.Fatalf("threshold after high agreement = %v, want relaxed above base %v", st.Recluster.DriftThreshold, base)
	}
	// Repeated agreement keeps relaxing but never past the clamp.
	for i := 0; i < 20; i++ {
		if err := svc.Refresh(dc); err != nil {
			t.Fatalf("Refresh %d: %v", i, err)
		}
	}
	st, _ = svc.Stats(dc)
	if max := base * 8; st.Recluster.DriftThreshold > max+1e-12 {
		t.Fatalf("threshold %v exceeded clamp %v", st.Recluster.DriftThreshold, max)
	}
}

// TestReplListenerBoundsTheHelloOnItsHeader: a replication listener reads a
// first frame only when its header is a hello's, no longer than a hello can
// encode. A forged 16-byte header claiming 64 MiB closes the connection at
// once and costs the node no buffer of the claimed size.
func TestReplListenerBoundsTheHelloOnItsHeader(t *testing.T) {
	primary, err := service.New(replTestConfig("p1"))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer primary.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	primary.ArmReplicationListener(ln)

	for _, op := range []wire.Op{wire.OpReplHello, wire.OpReplSnap} {
		forged := wire.BeginFrame(nil, op, 1)
		binary.LittleEndian.PutUint32(forged[4:8], wire.MaxReplPayload-1)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		start := time.Now()
		if _, err := c.Write(forged); err != nil {
			t.Fatalf("write the forged header: %v", err)
		}
		c.SetReadDeadline(time.Now().Add(3 * time.Second))
		n, err := io.Copy(io.Discard, c)
		took := time.Since(start)
		runtime.ReadMemStats(&after)
		c.Close()
		if n != 0 || errors.Is(err, os.ErrDeadlineExceeded) || took > time.Second {
			t.Errorf("%v header claiming %d bytes: %d bytes back, %v, after %v; want the connection closed at once",
				op, wire.MaxReplPayload-1, n, err, took)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Errorf("%v header claiming %d bytes: the node allocated %d bytes", op, wire.MaxReplPayload-1, grew)
		}
	}
}

// TestRejoinAfterPromotionTakesTheNewPrimarysSnapshot: generation numbers are
// per primary. f1 holds p's generation N+1 when it is retargeted at f2, a
// promoted peer that built its own N+1; the join must replace p's classes with
// f2's, not resume on f2's beats over them.
func TestRejoinAfterPromotionTakesTheNewPrimarysSnapshot(t *testing.T) {
	const dc = "DC-9"
	node := func(id, follow string) (*service.Service, string) {
		t.Helper()
		cfg := replTestConfig(id)
		cfg.FollowAddr = follow
		svc, err := service.New(cfg)
		if err != nil {
			t.Fatalf("New %s: %v", id, err)
		}
		t.Cleanup(svc.Close)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("Listen: %v", err)
		}
		svc.ArmReplicationListener(ln)
		svc.Start()
		return svc, ln.Addr().String()
	}
	p, paddr := node("p", "")
	f1, _ := node("f1", paddr)
	f2, f2addr := node("f2", paddr)
	built := func(s *service.Service) (uint64, time.Time) {
		snap, _ := s.Snapshot(dc)
		return snap.Generation, snap.BuiltAt
	}
	n, pBuilt := built(p)
	for _, f := range []*service.Service{f1, f2} {
		fleettest.WaitFor(t, "the followers to apply p's generation", func() bool {
			g, at := built(f)
			return g == n && at.Equal(pBuilt)
		})
	}

	if !f2.Promote() {
		t.Fatal("Promote returned false on a follower")
	}
	// Telemetry only p hears, so that p's N+1 and f2's N+1 classify apart.
	psnap, _ := p.Snapshot(dc)
	var hot []service.IngestSample
	for _, cls := range psnap.Clustering.Classes {
		for _, tid := range cls.Tenants {
			hot = append(hot, service.IngestSample{Tenant: tid, Server: -1, Value: 0.97})
		}
	}
	if res, err := p.Ingest(dc, hot); err != nil || res.Accepted != len(hot) {
		t.Fatalf("Ingest: %+v, %v", res, err)
	}
	if err := p.Refresh(dc); err != nil {
		t.Fatalf("Refresh p: %v", err)
	}
	_, pBuilt = built(p)
	fleettest.WaitFor(t, "f1 to apply p's next generation", func() bool {
		g, at := built(f1)
		return g == n+1 && at.Equal(pBuilt)
	})
	if err := f2.Refresh(dc); err != nil {
		t.Fatalf("Refresh f2: %v", err)
	}
	if g, _ := built(f2); g != n+1 {
		t.Fatalf("f2 refreshed to generation %d, want %d", g, n+1)
	}
	pRecs, f2Recs := classRecs(t, p, dc), classRecs(t, f2, dc)
	if reflect.DeepEqual(pRecs, f2Recs) {
		t.Fatal("p's and f2's next generations carry the same class records; the test cannot tell them apart")
	}

	f1.SetFollowAddr(f2addr)
	fleettest.WaitFor(t, "f1 to follow f2", func() bool { return f1.PrimaryID() == "f2" })
	beats := f1.ReplicationStats().BeatsApplied
	fleettest.WaitFor(t, "f1's beats from f2", func() bool { return f1.ReplicationStats().BeatsApplied > beats+1 })

	g1, at1 := built(f1)
	g2, at2 := built(f2)
	if g1 != g2 || !at1.Equal(at2) {
		t.Fatalf("f1 serves generation %d built at %d; its primary f2 built its %d at %d", g1, at1.UnixNano(), g2, at2.UnixNano())
	}
	if got := classRecs(t, f1, dc); !reflect.DeepEqual(got, f2Recs) {
		t.Fatalf("f1 serves class records\n%+v\nits primary f2 serves\n%+v", got, f2Recs)
	}
}

// classRec is what a node serves of one class: the records a snapshot frame
// carries, less the utilization a beat refreshes.
type classRec struct {
	ID               core.ClassID
	Pattern          int
	Avg, Peak        float64
	Tenants, Servers int
}

func classRecs(t *testing.T, s *service.Service, dc string) []classRec {
	t.Helper()
	snap, ok := s.Snapshot(dc)
	if !ok {
		t.Fatalf("no snapshot of %s", dc)
	}
	var recs []classRec
	for _, cls := range snap.Clustering.Classes {
		recs = append(recs, classRec{cls.ID, int(cls.Pattern), cls.AvgUtilization, cls.PeakUtilization, len(cls.Tenants), len(cls.Servers)})
	}
	return recs
}
