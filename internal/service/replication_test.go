package service_test

import (
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"

	"harvest/internal/core"
	"harvest/internal/ledger"
	"harvest/internal/service"
	"harvest/internal/wire"
)

func replTestConfig(nodeID string) service.Config {
	cfg := testConfig()
	cfg.NodeID = nodeID
	cfg.ReplInterval = 25 * time.Millisecond
	return cfg
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
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
	primary.ServeReplication(ln)
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

	if !follower.IsFollower() || follower.Role() != "follower" {
		t.Fatalf("follower role = %q", follower.Role())
	}

	primarySnap, _ := primary.Snapshot(dc)
	waitFor(t, "follower to apply the primary's generation", func() bool {
		snap, _ := follower.Snapshot(dc)
		fst, _ := follower.LedgerStats(dc)
		pst, _ := primary.LedgerStats(dc)
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
	waitFor(t, "follower to apply the next generation", func() bool {
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
	waitFor(t, "beat to carry the new lease", func() bool {
		fst, _ := follower.LedgerStats(dc)
		pst, _ := primary.LedgerStats(dc)
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
	pst, _ := primary.LedgerStats(dc)
	primary.Close()
	if !follower.Promote() {
		t.Fatal("Promote returned false on a follower")
	}
	if follower.Promote() {
		t.Fatal("second Promote returned true")
	}
	if follower.IsFollower() || follower.Role() != "primary" {
		t.Fatalf("promoted role = %q", follower.Role())
	}

	// Lease conservation survives the handoff exactly.
	fst, _ := follower.LedgerStats(dc)
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
	fst, _ = follower.LedgerStats(dc)
	checkLedgerConservation(t, fst, "promoted follower after new writes")
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
	primary.ServeReplication(ln)
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
	waitFor(t, "the follower to attach", func() bool { return primary.ReplicationStats().Followers == 1 })

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
