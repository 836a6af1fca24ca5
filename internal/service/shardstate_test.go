package service_test

// A shard's state reaches a fresh process two ways — the three -persist files
// at boot, a snapshot frame on a follower — through one reassembly and one
// reconcile per ledger. These tests hold the two ways to the same result, hold
// this tree to files the parent commit wrote, and require both to refuse the
// same malformed records without moving.

import (
	"bytes"
	"encoding/json"
	"errors"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"harvest/internal/blockledger"
	"harvest/internal/core"
	"harvest/internal/ledger"
	"harvest/internal/service"
	"harvest/internal/wire"
)

// loadedPrimary boots an unstarted, persisting primary and gives it state of
// every kind a shard carries: leases (one never expiring, with metadata that
// needs escaping in JSON), R=3 blocks, a slot left pending by a reimage with
// no repair loop to land it, and one refresh behind all of it.
func loadedPrimary(t *testing.T, dir string) (*service.Service, service.Config) {
	t.Helper()
	cfg := replTestConfig("p1")
	cfg.PersistDir = dir
	primary, err := service.New(cfg)
	if err != nil {
		t.Fatalf("New primary: %v", err)
	}
	job := core.JobRequest{Type: core.JobMedium, MaxConcurrentCores: 3}
	for _, l := range []struct {
		ttl  time.Duration
		meta ledger.Meta
	}{
		{-1, ledger.Meta{JobID: "never \"expires\"\n\\", Owner: "al\tice"}},
		{time.Hour, ledger.Meta{JobID: "etl", Owner: "bob"}},
		{time.Hour, ledger.Meta{}},
	} {
		if g, _, err := primary.SelectReserveTraced(replDC, job, l.ttl, l.meta, nil); err != nil || !g.Reserved() {
			t.Fatalf("reserve %+v: %+v, %v", l.meta, g, err)
		}
	}
	var first service.BlockPlacement
	for i := 0; i < 12; i++ {
		bp, err := primary.CreateBlock(replDC, core.PlacementConstraints{Replication: 3, Writer: -1, EnforceEnvironment: i%2 == 0})
		if err != nil {
			t.Fatalf("create block %d: %v", i, err)
		}
		if i == 0 {
			first = bp
		}
	}
	if lost, err := primary.ReimageServer(replDC, first.Replicas[1]); err != nil || lost == 0 {
		t.Fatalf("reimage: lost %d, %v", lost, err)
	}
	if err := primary.Refresh(replDC); err != nil {
		t.Fatalf("refresh: %v", err)
	}
	if st, _ := primary.BlockStats(replDC); st.Pending == 0 {
		t.Fatalf("no slot is pending: %+v", st)
	}
	return primary, cfg
}

// checkSameSnapshot requires got to serve want's characterization: generation,
// telemetry instant, every class's id, pattern, statistics, centroid and
// members, and the usage view that was shipped with it.
func checkSameSnapshot(t *testing.T, want, got *service.Snapshot, wantUsage map[core.ClassID]core.ClassUsage) {
	t.Helper()
	if got.Generation != want.Generation || got.AsOf != want.AsOf || !got.BuiltAt.Equal(want.BuiltAt) {
		t.Fatalf("snapshot generation %d as of %v built %v, want %d, %v, %v",
			got.Generation, got.AsOf, got.BuiltAt, want.Generation, want.AsOf, want.BuiltAt)
	}
	if len(got.Clustering.Classes) != len(want.Clustering.Classes) {
		t.Fatalf("%d classes, want %d", len(got.Clustering.Classes), len(want.Clustering.Classes))
	}
	for i, w := range want.Clustering.Classes {
		if g := got.Clustering.Classes[i]; !reflect.DeepEqual(g, w) {
			t.Fatalf("class %d:\n got %+v\nwant %+v", i, g, w)
		}
	}
	if !reflect.DeepEqual(got.Usage, wantUsage) {
		t.Fatalf("usage %v, want %v", got.Usage, wantUsage)
	}
}

// TestFilesAndFramesInstallTheSameShard installs one primary's state into a
// fresh service through each door and requires the same shard behind both.
func TestFilesAndFramesInstallTheSameShard(t *testing.T) {
	for _, tc := range []struct {
		name string
		// install returns a fresh service holding the primary's state, and the
		// usage view that way of shipping carries: a file has the snapshot's
		// build-time view, a frame the primary's live one.
		install func(t *testing.T, primary *service.Service, cfg service.Config) (*service.Service, map[core.ClassID]core.ClassUsage)
	}{
		{"restart on the persist dir", func(t *testing.T, primary *service.Service, cfg service.Config) (*service.Service, map[core.ClassID]core.ClassUsage) {
			primary.Close() // writes the ledgers as they now stand
			restored, err := service.New(cfg)
			if err != nil {
				t.Fatalf("restart: %v", err)
			}
			t.Cleanup(restored.Close)
			snap, _ := primary.Snapshot(replDC)
			return restored, snap.Usage
		}},
		{"live follower", func(t *testing.T, primary *service.Service, cfg service.Config) (*service.Service, map[core.ClassID]core.ClassUsage) {
			t.Cleanup(primary.Close)
			snap, _ := primary.Snapshot(replDC)
			return joinFollower(t, primary), primary.UsageFor(snap)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			primary, cfg := loadedPrimary(t, t.TempDir())
			installed, usage := tc.install(t, primary, cfg)
			want, _ := primary.Snapshot(replDC)
			got, _ := installed.Snapshot(replDC)
			checkSameSnapshot(t, want, got, usage)
			// Lease and block sets, both ledgers' books, the per-class table,
			// conservation, and repair queue == pending slots.
			checkFollowerEqualsPrimary(t, primary, installed)
			if st, _ := installed.LedgerStats(replDC); st.ActiveLeases != 3 {
				t.Fatalf("installed %d leases, want 3", st.ActiveLeases)
			}
		})
	}
}

// joinFollower serves replication on primary and returns a started follower
// that has joined it and taken a beat.
func joinFollower(t *testing.T, primary *service.Service) *service.Service {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	primary.ServeReplication(ln)
	fcfg := replTestConfig("f1")
	fcfg.FollowAddr = ln.Addr().String()
	follower, err := service.New(fcfg)
	if err != nil {
		t.Fatalf("New follower: %v", err)
	}
	follower.Start()
	t.Cleanup(follower.Close)
	snap, _ := primary.Snapshot(replDC)
	waitFor(t, "the follower to join and take a beat", func() bool {
		rst := follower.ReplicationStats()
		return rst.AppliedGenerations[replDC] == snap.Generation && rst.BeatsApplied > 0
	})
	return follower
}

// rewriteState applies mutate to the "state" of one of the persist dir's
// ledger files.
func rewriteState[S any](t *testing.T, path string, mutate func(st *S)) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file map[string]json.RawMessage
	var st S
	if err := errors.Join(json.Unmarshal(data, &file), json.Unmarshal(file["state"], &st)); err != nil {
		t.Fatal(err)
	}
	mutate(&st)
	if file["state"], err = json.Marshal(st); err != nil {
		t.Fatal(err)
	}
	if data, err = json.Marshal(file); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestFileRefusedForWhatAFrameCannotCarry holds the file door to the frame's
// limits and to Reconcile's: a ledger file with a record no replication frame
// could carry, or a blocks file with a block Reconcile would skip, is refused
// whole at boot. The shard starts that ledger empty and conserved — a skipped
// block's pending slot would stay counted lost and never replaced — keeps the
// other, and feeds a follower: restored, the long owner panicked the sender
// at the first hello and the wide block made every frame undecodable.
func TestFileRefusedForWhatAFrameCannotCarry(t *testing.T) {
	pendingFirst := func(st *blockledger.State) { // the block a reimage left a slot pending on, to the front
		at := slices.IndexFunc(st.Blocks, func(b wire.ReplBlock) bool {
			return slices.ContainsFunc(b.Replicas, func(r wire.ReplBlockReplica) bool { return !r.Placed })
		})
		st.Blocks[0], st.Blocks[at] = st.Blocks[at], st.Blocks[0]
	}
	for _, tc := range []struct {
		name   string
		file   string
		mutate func(path string)
	}{
		{"a 300-byte owner", "DC-9.ledger.json", func(path string) {
			rewriteState(t, path, func(st *ledger.State) { st.Leases[0].Owner = strings.Repeat("o", 300) })
		}},
		{"a 300-replica block", "DC-9.blocks.json", func(path string) {
			rewriteState(t, path, func(st *blockledger.State) {
				for len(st.Blocks[0].Replicas) < 300 {
					st.Blocks[0].Replicas = append(st.Blocks[0].Replicas, wire.ReplBlockReplica{Server: int64(len(st.Blocks[0].Replicas)) + 1e6})
				}
			})
		}},
		{"a zero block id", "DC-9.blocks.json", func(path string) {
			rewriteState(t, path, func(st *blockledger.State) { pendingFirst(st); st.Blocks[0].ID = 0 })
		}},
		{"a repeated block id", "DC-9.blocks.json", func(path string) {
			rewriteState(t, path, func(st *blockledger.State) { pendingFirst(st); st.Blocks[1].ID = st.Blocks[0].ID })
		}},
		{"a block with no replica slots", "DC-9.blocks.json", func(path string) {
			rewriteState(t, path, func(st *blockledger.State) { pendingFirst(st); st.Blocks[0].Replicas = nil })
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			primary, cfg := loadedPrimary(t, dir)
			primary.Close()
			tc.mutate(filepath.Join(dir, tc.file))
			restored, err := service.New(cfg)
			if err != nil {
				t.Fatalf("restart: %v", err)
			}
			t.Cleanup(restored.Close)

			leases, _ := restored.LedgerStats(replDC)
			blocks, _ := restored.BlockStats(replDC)
			checkLedgerConservation(t, leases, "restored")
			if blocks.ConservationErrorSlots != 0 {
				t.Fatalf("restored block books do not conserve: %+v", blocks)
			}
			leasesEmpty := leases.ActiveLeases == 0 && leases.ReservedMillis == 0
			blocksEmpty := blocks.Blocks == 0 && blocks.Lost == 0 && blocks.RepairQueue == 0
			if wantLeasesEmpty := tc.file == "DC-9.ledger.json"; leasesEmpty != wantLeasesEmpty || blocksEmpty == wantLeasesEmpty {
				t.Fatalf("%s was not refused whole, or took the other file with it:\nleases %+v\nblocks %+v", tc.file, leases, blocks)
			}
			checkFollowerEqualsPrimary(t, restored, joinFollower(t, restored))
		})
	}
}

// TestRestoreParentWrittenDir restores testdata/persist_v2 — written by the
// parent commit, see its README — and requires the books that process
// reported, the leases and blocks its files name, and, written back, the same
// snapshot file byte for byte.
func TestRestoreParentWrittenDir(t *testing.T) {
	const fixture = "testdata/persist_v2"
	dir := t.TempDir() // Close writes into the persist dir: restore a copy
	read := func(name string, v any) []byte {
		t.Helper()
		data, err := os.ReadFile(filepath.Join(fixture, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, v); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if name != "books.json" {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return data
	}
	var want struct {
		Generation uint64            `json:"generation"`
		Classes    int               `json:"classes"`
		Ledger     ledger.Stats      `json:"ledger"`
		Blocks     blockledger.Stats `json:"blocks"`
	}
	var ledgerFile struct{ State ledger.State }
	var blocksFile struct{ State blockledger.State }
	var snapshotFile struct{}
	read("books.json", &want)
	read("DC-9.ledger.json", &ledgerFile)
	read("DC-9.blocks.json", &blocksFile)
	snapshotBytes := read("DC-9.snapshot.json", &snapshotFile)

	cfg := testConfig()
	cfg.PersistDir = dir
	svc, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	snap, _ := svc.Snapshot(replDC)
	if snap.Generation != want.Generation || len(snap.Clustering.Classes) != want.Classes {
		t.Fatalf("restored generation %d with %d classes, the parent wrote %d with %d",
			snap.Generation, len(snap.Clustering.Classes), want.Generation, want.Classes)
	}
	led, blocks := svc.Ledgers(replDC)

	// The allocation ledger: the books, less what only a running process has
	// (admission floors, retry counts), and the leases.
	got := led.Snapshot()
	got.ReserveFloorMillisByClass, want.Ledger.ReserveFloorMillisByClass = nil, nil
	got.Generation, got.AllocatedMillisByClass = 0, nil // not in the JSON
	if !reflect.DeepEqual(got, want.Ledger) {
		t.Fatalf("ledger books:\n got %+v\nwant %+v", got, want.Ledger)
	}
	if g, w := leaseSet(led.Export()), leaseSet(ledgerFile.State); !reflect.DeepEqual(g, w) || len(g) != 4 {
		t.Fatalf("leases:\n got %v\nwant %v", g, w)
	}

	// The block ledger: the books, and the queue rebuilt from the pending slots.
	if got := blocks.Snapshot(); got != want.Blocks || int64(got.RepairQueue) != got.Pending || got.Pending == 0 {
		t.Fatalf("block books:\n got %+v\nwant %+v", got, want.Blocks)
	}
	if g, w := blockSet(blocks.Export()), blockSet(blocksFile.State); !reflect.DeepEqual(g, w) {
		t.Fatalf("blocks:\n got %v\nwant %v", g, w)
	}

	// And the format has not moved: the restored snapshot goes back to disk as
	// the bytes the parent wrote.
	again, err := svc.SnapshotFileJSON(replDC)
	if err != nil || !bytes.Equal(again, snapshotBytes) {
		t.Fatalf("snapshot file written back differs from the parent's (err %v):\n got %s\nwant %s", err, again, snapshotBytes)
	}
}

// TestMalformedSnapshotFrameIsRefused is TestRestoreRejectsBadContents for
// the other door: the records a file is refused for, a frame is refused for,
// along with the two relics of incremental snapshots, and the follower serves
// exactly what it served before.
func TestMalformedSnapshotFrameIsRefused(t *testing.T) {
	link := loadedLink(t, 5, 5)
	if err := link.primary.Refresh(replDC); err != nil {
		t.Fatal(err)
	}
	op, payload, _ := link.build(t) // generation 2, which the follower does not hold
	if op != wire.OpReplSnap {
		t.Fatalf("frame after a refresh is %v", op)
	}
	var good wire.ReplSnapshot
	if err := good.Decode(payload); err != nil {
		t.Fatal(err)
	}
	refByte := 1 + len(good.DC) + 8 + 8 + 8 + 8 + 8 + 4 + 4 + 1 // wire.BeginReplSnapshot's layout up to the first class's reserved byte

	withByte := func(at int, v byte) []byte {
		p := append([]byte(nil), payload...)
		p[at] = v
		return p
	}
	reencoded := func(mutate func(m *wire.ReplSnapshot)) []byte {
		m := good
		m.Classes = append([]wire.ReplClass(nil), good.Classes...)
		mutate(&m)
		return wire.AppendReplSnapshot(nil, 0, &m)[wire.HeaderSize:]
	}

	fl, fb := link.follower.Ledgers(replDC)
	before, _ := link.follower.Snapshot(replDC)
	leases, blocks := fl.Export(), fb.Export()
	for _, tc := range []struct {
		name    string
		op      wire.Op
		payload []byte
	}{
		{"ref byte set", wire.OpReplSnap, withByte(refByte, 1)},
		{"delta opcode", wire.OpReplDelta, payload},
		{"pattern out of range", wire.OpReplSnap, reencoded(func(m *wire.ReplSnapshot) { m.Classes[0].Pattern = 17 })},
		{"unknown tenant", wire.OpReplSnap, reencoded(func(m *wire.ReplSnapshot) {
			m.Classes[0].Tenants = append(append([]int64(nil), m.Classes[0].Tenants...), 99999999)
		})},
		{"empty class list", wire.OpReplSnap, reencoded(func(m *wire.ReplSnapshot) { m.Classes = nil })},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := link.follower.ApplyReplFrame(&link.ap, tc.op, tc.payload); err == nil {
				t.Fatal("applied")
			}
			if after, _ := link.follower.Snapshot(replDC); after != before {
				t.Fatalf("refused, but the follower now serves generation %d", after.Generation)
			}
			if !reflect.DeepEqual(fl.Export(), leases) || !reflect.DeepEqual(blockSet(fb.Export()), blockSet(blocks)) {
				t.Fatal("refused, but the follower's ledgers moved")
			}
		})
	}
	// The frame they were made from applies.
	if err := link.follower.ApplyReplFrame(&link.ap, wire.OpReplSnap, payload); err != nil {
		t.Fatalf("the unmodified snapshot: %v", err)
	}
	checkFollowerEqualsPrimary(t, link.primary, link.follower)
}
