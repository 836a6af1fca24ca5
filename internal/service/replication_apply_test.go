package service_test

// Tests for the replication ship and apply paths, driven frame by frame
// through the real buildReplFrame and applyReplFrame (export_test.go), with
// no sockets and no timers: a follower that is never started applies exactly
// the frames the test hands it.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"harvest/internal/blockledger"
	"harvest/internal/core"
	"harvest/internal/ledger"
	"harvest/internal/service"
	"harvest/internal/tenant"
	"harvest/internal/wire"
)

const replDC = "DC-9"

// replPair boots a primary and an unstarted follower over the same
// population.
func replPair(t testing.TB) (primary, follower *service.Service) {
	t.Helper()
	primary, err := service.New(replTestConfig("p1"))
	if err != nil {
		t.Fatalf("New primary: %v", err)
	}
	fcfg := replTestConfig("f1")
	fcfg.FollowAddr = "127.0.0.1:1" // never dialled: the follower is not started
	follower, err = service.New(fcfg)
	if err != nil {
		t.Fatalf("New follower: %v", err)
	}
	t.Cleanup(func() { primary.Close(); follower.Close() })
	return primary, follower
}

// replLink is one primary→follower stream without the socket.
type replLink struct {
	primary, follower *service.Service
	ap                service.ReplApplier
	shipped           *service.Snapshot
	snd               service.ReplSender
}

// build returns the primary's next frame for the follower.
func (l *replLink) build(t testing.TB) (op wire.Op, payload []byte, next *service.Snapshot) {
	t.Helper()
	frame, next := l.primary.BuildReplFrame(&l.snd, replDC, l.shipped)
	h, err := wire.ParseHeader(frame[:wire.HeaderSize])
	if err != nil || int(h.Len) != len(frame)-wire.HeaderSize {
		t.Fatalf("built frame header %+v (err %v) over %d payload bytes", h, err, len(frame)-wire.HeaderSize)
	}
	return h.Op, frame[wire.HeaderSize:], next
}

// ship builds the next frame and applies it.
func (l *replLink) ship(t testing.TB) wire.Op {
	t.Helper()
	op, payload, next := l.build(t)
	if err := l.follower.ApplyReplFrame(&l.ap, op, payload); err != nil {
		t.Fatalf("apply %v: %v", op, err)
	}
	l.shipped = next
	return op
}

func unixNano(at time.Time) int64 {
	if at.IsZero() {
		return 0
	}
	return at.UnixNano()
}

// leaseSet renders a ledger state's leases comparably. A lease whose grants
// were all forfeited holds nothing; the follower does not keep it.
func leaseSet(st ledger.State) map[uint64]string {
	set := make(map[uint64]string, len(st.Leases))
	for _, pl := range st.Leases {
		if len(pl.Grants) > 0 {
			set[pl.ID] = fmt.Sprintf("%d %q %q %v", unixNano(pl.ExpiresAt), pl.JobID, pl.Owner, pl.Grants)
		}
	}
	return set
}

// ledgerBooks and blockBooks are a state's generation and counters alone.
func ledgerBooks(st ledger.State) ledger.State { st.Leases = nil; return st }

func blockBooks(st blockledger.State) blockledger.State { st.Blocks = nil; return st }

func blockSet(st blockledger.State) map[uint64]string {
	set := make(map[uint64]string, len(st.Blocks))
	for _, pb := range st.Blocks {
		set[pb.ID] = fmt.Sprintf("%v %v", pb.EnvStrict, pb.Replicas)
	}
	return set
}

// checkFollowerEqualsPrimary is the property: after a frame, the follower's
// two ledgers hold exactly what the primary's do, and every derived structure
// on the follower agrees with the leases and blocks it holds.
func checkFollowerEqualsPrimary(t *testing.T, primary, follower *service.Service) {
	t.Helper()
	pl, pb := primary.Ledgers(replDC)
	fl, fb := follower.Ledgers(replDC)

	pst, fst := pl.Export(), fl.Export()
	if !reflect.DeepEqual(ledgerBooks(pst), ledgerBooks(fst)) {
		t.Fatalf("lease books: follower %+v, primary %+v", ledgerBooks(fst), ledgerBooks(pst))
	}
	if want, got := leaseSet(pst), leaseSet(fst); !reflect.DeepEqual(want, got) || len(got) != len(fst.Leases) {
		t.Fatalf("leases: follower holds %d (%d with grants), primary %d with grants\nfollower %v\nprimary  %v",
			len(fst.Leases), len(got), len(want), got, want)
	}
	stats := fl.Snapshot()
	checkLedgerConservation(t, stats, "follower")
	checkLedgerConservation(t, pl.Snapshot(), "primary")
	byClass := make([]int64, len(stats.AllocatedMillisByClass))
	for _, ls := range fst.Leases {
		for _, g := range ls.Grants {
			byClass[g.Class] += g.Millis
		}
	}
	if !reflect.DeepEqual(byClass, stats.AllocatedMillisByClass) {
		t.Fatalf("follower per-class table %v, sum over its leases %v", stats.AllocatedMillisByClass, byClass)
	}

	pbs, fbs := pb.Export(), fb.Export()
	if !reflect.DeepEqual(blockBooks(pbs), blockBooks(fbs)) {
		t.Fatalf("block books: follower %+v, primary %+v", blockBooks(fbs), blockBooks(pbs))
	}
	if want, got := blockSet(pbs), blockSet(fbs); !reflect.DeepEqual(want, got) {
		t.Fatalf("blocks: follower %v\nprimary %v", got, want)
	}
	for who, st := range map[string]blockledger.Stats{"primary": pb.Snapshot(), "follower": fb.Snapshot()} {
		if st.Placed+st.Pending != st.ReplicaSlots || st.Lost != st.Replaced+st.Pending {
			t.Fatalf("%s block books do not conserve: %+v", who, st)
		}
	}
	// The follower takes no repairs, so its queue is exactly its pending slots.
	pending := map[blockledger.Repair]bool{}
	for _, b := range fbs.Blocks {
		for slot, r := range b.Replicas {
			if !r.Placed {
				pending[blockledger.Repair{Block: b.ID, Replica: slot}] = true
			}
		}
	}
	queued := fb.TakeRepairs(1 << 30)
	for _, ref := range queued {
		if !pending[ref] {
			t.Fatalf("follower queue holds %+v, which is not a pending slot", ref)
		}
		delete(pending, ref)
		fb.Requeue(ref)
	}
	if len(pending) != 0 {
		t.Fatalf("follower queue misses %d pending slots, e.g. %v (queued %d)", len(pending), pending, len(queued))
	}
	if fb.Snapshot().Pending != int64(len(queued)) {
		t.Fatalf("follower pending gauge %d, queue %d", fb.Snapshot().Pending, len(queued))
	}
}

// TestFollowerEqualsPrimaryUnderRandomSchedule runs a seeded random schedule
// of every operation that moves either ledger — reserve, release, renew,
// expire, re-key, create, reimage, repair, refresh — and ships frames at
// random points onto a follower that starts from a corrupted copy and then
// always holds whatever the previous frame left. After every frame the
// follower must equal the primary. Readers hammer the follower throughout, so
// -race sees the reconcile beside the lock-free select path.
func TestFollowerEqualsPrimaryUnderRandomSchedule(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { followerEqualsPrimary(t, seed) })
	}
}

func followerEqualsPrimary(t *testing.T, seed int64) {
	primary, follower := replPair(t)
	link := &replLink{primary: primary, follower: follower}
	pl, pb := primary.Ledgers(replDC)
	fl, fb := follower.Ledgers(replDC)
	rng := rand.New(rand.NewSource(seed))
	now := time.Now()

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 2; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			job := core.JobRequest{Type: core.JobMedium, MaxConcurrentCores: 2}
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, err := follower.Select(replDC, job); err != nil {
					t.Errorf("follower select: %v", err)
					return
				}
				follower.LedgerOccupancy(replDC)
				follower.Stats(replDC)
			}
		}()
	}
	defer func() { close(stop); readers.Wait() }()

	classes := func() int {
		snap, _ := primary.Snapshot(replDC)
		return len(snap.Clustering.Classes)
	}
	servers := func(n int) []tenant.ServerID {
		out := make([]tenant.ServerID, 0, n)
		for _, s := range rng.Perm(400)[:n] {
			out = append(out, tenant.ServerID(s))
		}
		return out
	}
	var leases []uint64
	reserve := func() {
		n := classes()
		reqs := make([]ledger.Request, 1+rng.Intn(3))
		for i := range reqs {
			reqs[i] = ledger.Request{Class: core.ClassID(rng.Intn(n)), Cores: float64(1+rng.Intn(4000)) / 1000, Capacity: 1e9}
		}
		var ttl time.Duration
		if rng.Intn(3) > 0 {
			ttl = time.Duration(1+rng.Intn(120)) * time.Second
		}
		var meta ledger.Meta
		if rng.Intn(2) == 0 {
			meta = ledger.Meta{JobID: fmt.Sprintf("job-%d", rng.Intn(50)), Owner: fmt.Sprintf("owner-%d", rng.Intn(5))}
		}
		ls, err := pl.ReserveMeta(pl.Generation(), reqs, ttl, now, meta)
		if err != nil {
			t.Fatalf("reserve: %v", err)
		}
		leases = append(leases, ls.ID)
	}
	step := func() {
		switch op := rng.Intn(100); {
		case op < 30:
			reserve()
		case op < 45 && len(leases) > 0:
			i := rng.Intn(len(leases))
			pl.Release(leases[i]) // unknown is fine: an expiry sweep may have been there first
			leases = append(leases[:i], leases[i+1:]...)
		case op < 55 && len(leases) > 0:
			pl.Renew(leases[rng.Intn(len(leases))], time.Duration(rng.Intn(200))*time.Second, now)
		case op < 58:
			pl.ExpireBefore(now.Add(time.Duration(rng.Intn(30)) * time.Second))
		case op < 62:
			// Re-key within the generation: every lease's grants move (and a
			// class with no shares forfeits), so the next frame rewrites leases
			// the follower already holds.
			n := classes()
			remap := map[core.ClassID][]ledger.Share{}
			for c := 0; c < n; c++ {
				if rng.Intn(8) == 0 {
					continue
				}
				for k := 0; k <= rng.Intn(2); k++ {
					remap[core.ClassID(c)] = append(remap[core.ClassID(c)], ledger.Share{Class: core.ClassID(rng.Intn(n)), Weight: 1 + rng.Float64()})
				}
			}
			pl.Rekey(pl.Generation(), n, remap)
		case op < 80:
			if _, err := pb.Create(pb.Generation(), servers(1+rng.Intn(4)), rng.Intn(2) == 0); err != nil {
				t.Fatalf("create: %v", err)
			}
		case op < 86:
			pb.Reimage(tenant.ServerID(rng.Intn(400)))
		case op < 94:
			for _, ref := range pb.TakeRepairs(1 + rng.Intn(4)) {
				if pb.Replace(pb.Generation(), ref, tenant.ServerID(400+rng.Intn(400))) != nil {
					pb.Requeue(ref)
				}
			}
		case op < 97:
			// Re-validate placements against a grid that has lost a tenth of
			// its servers: displaced replicas go pending on the primary.
			lost := rng.Intn(10)
			pb.Rekey(pb.Generation(), func(s tenant.ServerID) (col, row int, env string, ok bool) {
				return int(s) % 29, int(s) / 29 % 29, fmt.Sprint(int(s) % 7), int(s)%10 != lost
			})
		default:
			if err := primary.Refresh(replDC); err != nil {
				t.Fatalf("refresh: %v", err)
			}
		}
	}

	// The follower's starting point: the primary's early state, damaged — a
	// lease dropped, one with other grants, one the primary never had, and
	// the same for blocks.
	for i := 0; i < 40; i++ {
		step()
	}
	lst, bst := pl.Export(), pb.Export()
	if len(lst.Leases) > 2 {
		lst.Leases[1].Grants = []ledger.Grant{{Class: 0, Millis: 7}}
		lst.Leases = lst.Leases[1:]
	}
	lst.Leases = append(lst.Leases, wire.ReplLease{ID: 0xabc0, Grants: []ledger.Grant{{Class: 0, Millis: 99}}})
	lst.ReservedMillis += 12345
	fl.ApplyState(lst, classes())
	if len(bst.Blocks) > 2 {
		bst.Blocks[1].Replicas[0].Placed = !bst.Blocks[1].Replicas[0].Placed
		bst.Blocks = bst.Blocks[1:]
	}
	bst.Blocks = append(bst.Blocks, wire.ReplBlock{ID: 0xdef0, Replicas: []wire.ReplBlockReplica{{Server: 3}, {Server: 4, Placed: true}}})
	fb.ApplyState(bst)

	ops := map[wire.Op]int{}
	ops[link.ship(t)]++
	checkFollowerEqualsPrimary(t, primary, follower)
	for i := 0; i < 400; i++ {
		step()
		if rng.Intn(4) == 0 {
			ops[link.ship(t)]++
			checkFollowerEqualsPrimary(t, primary, follower)
		}
	}
	ops[link.ship(t)]++
	checkFollowerEqualsPrimary(t, primary, follower)
	if ops[wire.OpReplSnap] == 0 || ops[wire.OpReplBeat] == 0 {
		t.Fatalf("schedule shipped %v: want a snapshot and beats", ops)
	}

	// Promotion at this instant: the follower's books are the primary's, and
	// a replicated lease releases under its own id.
	if !follower.Promote() {
		t.Fatal("Promote")
	}
	if st := fl.Export(); len(st.Leases) > 0 {
		if _, err := follower.Release(replDC, st.Leases[0].ID); err != nil {
			t.Fatalf("release after promotion: %v", err)
		}
		checkLedgerConservation(t, fl.Snapshot(), "promoted follower")
	}
}

// loadedLink returns a link whose primary holds real state and whose follower
// has applied the joining snapshot and one beat.
func loadedLink(t testing.TB, leases, blocks int) *replLink {
	t.Helper()
	primary, follower := replPair(t)
	pl, pb := primary.Ledgers(replDC)
	snap, _ := primary.Snapshot(replDC)
	n := len(snap.Clustering.Classes)
	now := time.Now()
	for i := 0; i < leases; i++ {
		reqs := []ledger.Request{{Class: core.ClassID(i % n), Cores: 1, Capacity: 1e9}}
		if _, err := pl.Reserve(snap.Generation, reqs, time.Hour, now); err != nil {
			t.Fatalf("reserve %d: %v", i, err)
		}
	}
	for i := 0; i < blocks; i++ {
		s := tenant.ServerID(i % 1000)
		if _, err := pb.Create(snap.Generation, []tenant.ServerID{s, s + 1000, s + 2000}, true); err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
	}
	link := &replLink{primary: primary, follower: follower}
	if op := link.ship(t); op != wire.OpReplSnap {
		t.Fatalf("joining frame is %v, want a full snapshot", op)
	}
	if op := link.ship(t); op != wire.OpReplBeat {
		t.Fatalf("second frame is %v, want a beat", op)
	}
	return link
}

// TestReplFrameDecodesWithTheStructCodec pins the wire: a frame streamed from
// the ledgers decodes with the exported ReplBeat/ReplSnapshot decoders, holds
// every lease and block, and re-encodes from the decoded struct to the same
// bytes — the streaming encoder and the struct encoder are one format.
func TestReplFrameDecodesWithTheStructCodec(t *testing.T) {
	link := loadedLink(t, 50, 40)
	pl, _ := link.primary.Ledgers(replDC)
	pl.ReserveMeta(pl.Generation(), []ledger.Request{{Class: 0, Cores: 1, Capacity: 1e9}, {Class: 1, Cores: 2, Capacity: 1e9}},
		0, time.Now(), ledger.Meta{JobID: "etl", Owner: "alice"})

	op, payload, _ := link.build(t)
	var beat wire.ReplBeat
	if err := beat.Decode(payload); err != nil || op != wire.OpReplBeat {
		t.Fatalf("beat decode: op %v, err %v", op, err)
	}
	if len(beat.Ledger.Leases) != 51 || len(beat.Blocks.Blocks) != 40 {
		t.Fatalf("beat carries %d leases and %d blocks, want 51 and 40", len(beat.Ledger.Leases), len(beat.Blocks.Blocks))
	}
	if again := wire.AppendReplBeat(nil, 0, &beat); !bytes.Equal(again[wire.HeaderSize:], payload) {
		t.Fatal("beat re-encoded from its decoded struct differs from the streamed frame")
	}

	link.shipped = nil // a joining follower
	op, payload, _ = link.build(t)
	var snap wire.ReplSnapshot
	if err := snap.Decode(payload); err != nil || op != wire.OpReplSnap {
		t.Fatalf("snapshot decode: op %v, err %v", op, err)
	}
	if len(snap.Ledger.Leases) != 51 || len(snap.Blocks.Blocks) != 40 {
		t.Fatalf("snapshot carries %d leases and %d blocks, want 51 and 40", len(snap.Ledger.Leases), len(snap.Blocks.Blocks))
	}
	if again := wire.AppendReplSnapshot(nil, 0, &snap); !bytes.Equal(again[wire.HeaderSize:], payload) {
		t.Fatal("snapshot re-encoded from its decoded struct differs from the streamed frame")
	}
}

// TestReplApplyIsAllOrNothing cuts a beat that would change the follower at
// every byte, inflates each of its counts, and appends a trailing byte: every
// such frame must be refused with the follower's ledgers exactly as they were.
func TestReplApplyIsAllOrNothing(t *testing.T) {
	link := loadedLink(t, 30, 20)
	pl, pb := link.primary.Ledgers(replDC)
	fl, fb := link.follower.Ledgers(replDC)
	for _, ls := range pl.Export().Leases[:10] {
		pl.Release(ls.ID)
	}
	pl.Reserve(pl.Generation(), []ledger.Request{{Class: 0, Cores: 3, Capacity: 1e9}}, time.Minute, time.Now())
	pb.Reimage(5)
	pb.Create(pb.Generation(), []tenant.ServerID{7, 8}, false)

	_, good, _ := link.build(t)
	payload := append([]byte(nil), good...)
	wantLeases, wantBlocks := fl.Export(), fb.Export()
	refused := func(what string, p []byte) {
		t.Helper()
		if err := link.follower.ApplyReplFrame(&link.ap, wire.OpReplBeat, p); err == nil {
			t.Fatalf("%s: applied", what)
		}
		if got := fl.Export(); !reflect.DeepEqual(got, wantLeases) {
			t.Fatalf("%s: refused, but the lease ledger moved:\n got %+v\nwant %+v", what, got, wantLeases)
		}
		if got := fb.Export(); !reflect.DeepEqual(blockSet(got), blockSet(wantBlocks)) || !reflect.DeepEqual(blockBooks(got), blockBooks(wantBlocks)) {
			t.Fatalf("%s: refused, but the block ledger moved", what)
		}
	}
	for cut := 0; cut < len(payload); cut++ {
		refused(fmt.Sprintf("cut at byte %d of %d", cut, len(payload)), payload[:cut])
	}
	refused("trailing byte", append(append([]byte(nil), payload...), 0))

	// The two section counts, which the decoder clamps against the bytes
	// left. (A grant or replica count is not guarded that way and cannot be:
	// one more grant eats the head of the next lease, and what follows can
	// still be a well-formed, different message.) Offsets follow the beat
	// layout in internal/wire/repl.go.
	var beat wire.ReplBeat
	if err := beat.Decode(payload); err != nil {
		t.Fatal(err)
	}
	leaseCount := 1 + len(beat.DC) + 8 + 8 + 8 + 4 + 12*len(beat.Usage) + 80
	blockCount := leaseCount + 4 + 40
	for i := range beat.Ledger.Leases {
		ls := &beat.Ledger.Leases[i]
		blockCount += 8 + 8 + 1 + len(ls.JobID) + 1 + len(ls.Owner) + 2 + 12*len(ls.Grants)
	}
	inflate := func(what string, off int, by uint32) {
		t.Helper()
		p := append([]byte(nil), payload...)
		binary.LittleEndian.PutUint32(p[off:], binary.LittleEndian.Uint32(p[off:])+by)
		refused(what, p)
	}
	if got := binary.LittleEndian.Uint32(payload[leaseCount:]); int(got) != len(beat.Ledger.Leases) {
		t.Fatalf("lease count offset is wrong: read %d, want %d", got, len(beat.Ledger.Leases))
	}
	if got := binary.LittleEndian.Uint32(payload[blockCount:]); int(got) != len(beat.Blocks.Blocks) {
		t.Fatalf("block count offset is wrong: read %d, want %d", got, len(beat.Blocks.Blocks))
	}
	inflate("lease count +1", leaseCount, 1)
	inflate("lease count +1e6", leaseCount, 1_000_000)
	inflate("block count +1", blockCount, 1)
	inflate("block count +1e6", blockCount, 1_000_000)

	// And the frame they were all made from applies.
	if err := link.follower.ApplyReplFrame(&link.ap, wire.OpReplBeat, payload); err != nil {
		t.Fatalf("the unmodified beat: %v", err)
	}
	checkFollowerEqualsPrimary(t, link.primary, link.follower)
}

// parkRefresh starts a refresh of replDC and returns once it is parked between
// re-keying the ledgers and publishing its snapshot, holding the shard's gate.
// release lets the refresh publish and waits for it; a test that fails first
// releases it on cleanup, so closing the service does not wait on it forever.
func parkRefresh(t *testing.T, svc *service.Service) (release func()) {
	t.Helper()
	inGap, resume := make(chan struct{}), make(chan struct{})
	svc.SetTestHookAfterRekey(func() { close(inGap); <-resume })
	refreshed := make(chan error, 1)
	go func() { refreshed <- svc.Refresh(replDC) }()
	<-inGap
	var once sync.Once
	resumeOnce := func() { once.Do(func() { close(resume) }) }
	t.Cleanup(resumeOnce)
	return func() {
		t.Helper()
		resumeOnce()
		if err := <-refreshed; err != nil {
			t.Fatalf("refresh: %v", err)
		}
		svc.SetTestHookAfterRekey(nil)
	}
}

// framePairing decodes a built frame's op and generation and checks that its
// two ledger sections are keyed to that generation.
func framePairing(frame []byte) (wire.Op, uint64, error) {
	h, err := wire.ParseHeader(frame[:wire.HeaderSize])
	if err != nil {
		return 0, 0, err
	}
	var gen, led, blocks uint64
	if h.Op == wire.OpReplBeat {
		var m wire.ReplBeat
		err = m.Decode(frame[wire.HeaderSize:])
		gen, led, blocks = m.Generation, m.Ledger.Generation, m.Blocks.Generation
	} else {
		var m wire.ReplSnapshot
		err = m.Decode(frame[wire.HeaderSize:])
		gen, led, blocks = m.Generation, m.Ledger.Generation, m.Blocks.Generation
	}
	if err == nil && (led != gen || blocks != gen) {
		err = fmt.Errorf("%v frame for generation %d carries books keyed to %d and %d", h.Op, gen, led, blocks)
	}
	return h.Op, gen, err
}

// TestReplFramePairsSnapshotAndBooks covers the generation-pairing rule from
// both ends. Sender: a build issued while a refresh is parked between
// re-keying the ledgers and publishing its snapshot waits at the shard's gate
// and returns after the publish, with the new snapshot and books keyed to it.
// Receiver: a frame that pairs them wrongly is refused before it mutates.
func TestReplFramePairsSnapshotAndBooks(t *testing.T) {
	link := loadedLink(t, 20, 10)
	primary, follower := link.primary, link.follower
	fl, _ := follower.Ledgers(replDC)
	held, _ := primary.Snapshot(replDC)

	release := parkRefresh(t, primary)
	done := make(chan []byte, 1)
	go func() {
		frame, _ := primary.BuildReplFrame(new(service.ReplSender), replDC, link.shipped)
		done <- frame
	}()
	select {
	case <-done:
		t.Fatal("a frame was built inside the gap")
	case <-time.After(100 * time.Millisecond):
	}
	release()
	op, gen, err := framePairing(<-done)
	if err != nil {
		t.Fatal(err)
	}
	if op != wire.OpReplSnap || gen != held.Generation+1 {
		t.Fatalf("frame built across the gap: %v for generation %d, want a snapshot for %d", op, gen, held.Generation+1)
	}
	if op := link.ship(t); op != wire.OpReplSnap {
		t.Fatalf("frame after the refresh is %v, want a full snapshot", op)
	}
	checkFollowerEqualsPrimary(t, primary, follower)

	// Receiver: the same beat with its lease section, then its block section,
	// keyed one generation ahead.
	_, payload, _ := link.build(t)
	var beat wire.ReplBeat
	if err := beat.Decode(payload); err != nil {
		t.Fatal(err)
	}
	before := fl.Export()
	for _, bump := range []*uint64{&beat.Ledger.Generation, &beat.Blocks.Generation} {
		*bump++
		bad := wire.AppendReplBeat(nil, 0, &beat)
		if err := follower.ApplyReplFrame(&link.ap, wire.OpReplBeat, bad[wire.HeaderSize:]); err == nil {
			t.Fatal("follower applied a beat whose books are keyed to another generation")
		}
		*bump--
	}
	if got := fl.Export(); !reflect.DeepEqual(got, before) {
		t.Fatal("a refused beat moved the follower's ledger")
	}
}

// TestWritesWaitOutTheRekeyGap parks a refresh between re-keying the ledgers
// and publishing its snapshot and issues a block create and a reserving
// select into the gap. Neither returns before the publish, both succeed after
// it, and neither ledger ever refused them as stale: they waited at the
// shard's gate instead of meeting books one generation ahead of the snapshot.
func TestWritesWaitOutTheRekeyGap(t *testing.T) {
	svc := newTestService(t)
	t.Cleanup(svc.Close) // after parkRefresh's cleanup, which releases the refresh

	release := parkRefresh(t, svc)
	created := make(chan error, 1)
	go func() {
		_, err := svc.CreateBlock(replDC, core.PlacementConstraints{Replication: 3, Writer: -1, EnforceEnvironment: true})
		created <- err
	}()
	type reserved struct {
		grant service.Grant
		err   error
	}
	selected := make(chan reserved, 1)
	go func() {
		g, _, err := svc.SelectReserve(replDC, core.JobRequest{Type: core.JobMedium, MaxConcurrentCores: 2}, 0)
		selected <- reserved{g, err}
	}()

	select {
	case err := <-created:
		t.Fatalf("block create returned inside the gap: %v", err)
	case r := <-selected:
		t.Fatalf("reserving select returned inside the gap: %+v, %v", r.grant, r.err)
	case <-time.After(100 * time.Millisecond):
	}
	release()
	if err := <-created; err != nil {
		t.Fatalf("block create across the gap: %v", err)
	}
	if r := <-selected; r.err != nil || !r.grant.Reserved() {
		t.Fatalf("reserving select across the gap: %+v, %v", r.grant, r.err)
	}
	st, _ := svc.Stats(replDC)
	if st.Blocks.Blocks != 1 || st.Ledger.ActiveLeases != 1 {
		t.Fatalf("after the gap: %d blocks, %d leases, want 1 and 1", st.Blocks.Blocks, st.Ledger.ActiveLeases)
	}
	if st.Ledger.StaleRetries != 0 || st.Blocks.StaleRetries != 0 {
		t.Fatalf("stale refusals: %d of leases, %d of blocks, want none", st.Ledger.StaleRetries, st.Blocks.StaleRetries)
	}
}

// TestGatedWritesUnderARefreshStorm runs every gated path — reserving select
// then release, block create, reimage then repair, and the replication frame
// build — in a loop each while 40 refreshes, every fifth a full rebuild, move
// the shard's generation underneath them. Nothing may fail but an honest
// "unsatisfiable" or "no eligible server", every frame must pair its snapshot
// with its books, neither ledger may ever refuse a write as stale, and both
// sets of books must balance exactly.
func TestGatedWritesUnderARefreshStorm(t *testing.T) {
	cfg := testConfig()
	cfg.FullRebuildEvery = 5
	svc, err := service.New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer svc.Close()
	snap, _ := svc.Snapshot(replDC)
	var servers []tenant.ServerID
	for _, cls := range snap.Clustering.Classes {
		servers = append(servers, cls.Servers...)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var counts [4]int
	worker := func(i int, op func(rng *rand.Rand) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := op(rng); err != nil {
					t.Error(err)
					return
				}
				counts[i]++
			}
		}()
	}
	worker(0, func(*rand.Rand) error {
		g, _, err := svc.SelectReserve(replDC, core.JobRequest{Type: core.JobMedium, MaxConcurrentCores: 2}, -1)
		if err != nil || !g.Reserved() {
			return err
		}
		_, err = svc.Release(replDC, g.Lease)
		return err
	})
	worker(1, func(*rand.Rand) error {
		time.Sleep(200 * time.Microsecond) // paced: each re-key walks every block created so far
		_, err := svc.CreateBlock(replDC, core.PlacementConstraints{Replication: 3, Writer: -1, EnforceEnvironment: true})
		if errors.Is(err, core.ErrNoEligibleServer) {
			return nil
		}
		return err
	})
	worker(2, func(rng *rand.Rand) error {
		time.Sleep(time.Millisecond)
		if _, err := svc.ReimageServer(replDC, servers[rng.Intn(len(servers))]); err != nil {
			return err
		}
		svc.RepairBlocks(replDC, 64)
		return nil
	})
	var snd service.ReplSender
	var shipped *service.Snapshot
	worker(3, func(*rand.Rand) error {
		frame, next := svc.BuildReplFrame(&snd, replDC, shipped)
		_, gen, err := framePairing(frame)
		if err == nil && gen != next.Generation {
			err = fmt.Errorf("frame for generation %d brings the follower to %d", gen, next.Generation)
		}
		shipped = next
		return err
	})

	for i := 0; i < 40; i++ {
		if err := svc.Refresh(replDC); err != nil {
			t.Errorf("refresh %d: %v", i, err)
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if counts[0] == 0 || counts[1] == 0 || counts[2] == 0 || counts[3] == 0 {
		t.Fatalf("select/release, create, reimage/repair and frame loops ran %v times: each must run", counts)
	}
	st, _ := svc.Stats(replDC)
	t.Logf("loops ran %v times; %d blocks, %d replicas lost, %d replaced", counts, st.Blocks.Blocks, st.Blocks.Lost, st.Blocks.Replaced)
	if st.FullRebuilds == 0 {
		t.Fatal("no full rebuild ran during the storm")
	}
	if st.Ledger.StaleRetries != 0 || st.Blocks.StaleRetries != 0 {
		t.Fatalf("stale refusals: %d of leases, %d of blocks, want none", st.Ledger.StaleRetries, st.Blocks.StaleRetries)
	}
	checkLedgerConservation(t, st.Ledger, "storm")
	if b := st.Blocks; b.ConservationErrorSlots != 0 || b.Placed+b.Pending != b.ReplicaSlots || b.Lost != b.Replaced+b.Pending {
		t.Fatalf("block books do not conserve: %+v", b)
	}
}

// TestReplBeatKeepsAnUnchangedUsageView pins when a beat replaces the
// follower's usage view: one that carries the utilization already live keeps
// the view (and the select index built with it), one that carries news
// replaces it, with the primary's utilization.
func TestReplBeatKeepsAnUnchangedUsageView(t *testing.T) {
	link := loadedLink(t, 10, 10)
	snap, _ := link.follower.Snapshot(replDC)
	view := func() uintptr { return reflect.ValueOf(link.follower.UsageFor(snap)).Pointer() }

	held := view()
	link.ship(t)
	if view() != held {
		t.Fatal("a beat carrying the live utilization replaced the follower's usage view")
	}

	psnap, _ := link.primary.Snapshot(replDC)
	var hot []service.IngestSample
	for _, cls := range psnap.Clustering.Classes {
		for _, tid := range cls.Tenants {
			hot = append(hot, service.IngestSample{Tenant: tid, Server: -1, Value: 0.97})
		}
	}
	if res, err := link.primary.Ingest(replDC, hot); err != nil || res.Accepted != len(hot) {
		t.Fatalf("Ingest: %+v, %v", res, err)
	}
	link.ship(t)
	if view() == held {
		t.Fatal("a beat carrying hotter utilization kept the follower's old usage view")
	}
	want, got := link.primary.UsageFor(psnap), link.follower.UsageFor(snap)
	for _, cls := range psnap.Clustering.Classes {
		if got[cls.ID].CurrentUtilization != want[cls.ID].CurrentUtilization {
			t.Errorf("class %d: follower sees utilization %v, primary %v", cls.ID, got[cls.ID].CurrentUtilization, want[cls.ID].CurrentUtilization)
		}
	}

	held = view()
	link.ship(t)
	if view() != held {
		t.Fatal("the next beat, carrying nothing new, replaced the view again")
	}
	checkFollowerEqualsPrimary(t, link.primary, link.follower)
}

const raceEnabled = service.RaceEnabled

// mallocs counts the heap objects f allocates.
func mallocs(f func()) uint64 {
	objects, _ := allocated(f)
	return objects
}

// allocated counts the heap objects and bytes f allocates.
func allocated(f func()) (objects, bytes uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// TestReplBeatAllocationBudget pins what a steady-state beat may allocate at
// the benchmark's standing state — 6,000 one-grant leases and 30,000 R=3
// blocks: a constant to build, a constant to apply, and a few objects per
// lease that actually changed. Before the ledgers streamed into the frame and
// reconciled in place these were 12,007 and 24,028 with the leases alone.
func TestReplBeatAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	if testing.Short() {
		t.Skip("loads 36,000 records")
	}
	link := loadedLink(t, 6000, 30000)
	pl, _ := link.primary.Ledgers(replDC)

	var payload []byte
	if got := testing.AllocsPerRun(10, func() { _, payload, _ = link.build(t) }); got > 8 {
		t.Errorf("building a steady-state beat allocates %.0f objects, budget 8", got)
	}
	apply := func() {
		if err := link.follower.ApplyReplFrame(&link.ap, wire.OpReplBeat, payload); err != nil {
			t.Fatal(err)
		}
	}
	// Nothing moved, so the follower keeps its usage view too: what is left is
	// the beat's datacenter name and the ledger's re-summed class table.
	if got := testing.AllocsPerRun(10, apply); got > 8 {
		t.Errorf("applying a steady-state beat allocates %.0f objects, budget 8", got)
	}

	// k leases come and go between two beats: the apply pays for those only.
	const k = 16
	held := pl.Export().Leases
	sort.Slice(held, func(i, j int) bool { return held[i].ID < held[j].ID })
	for round := 0; round < 3; round++ {
		for i := 0; i < k/2; i++ {
			if _, err := pl.Release(held[round*k+i].ID); err != nil {
				t.Fatal(err)
			}
			if _, err := pl.Reserve(pl.Generation(), []ledger.Request{{Class: 0, Cores: 1, Capacity: 1e9}}, time.Hour, time.Now()); err != nil {
				t.Fatal(err)
			}
		}
		_, payload, _ = link.build(t)
		if got := mallocs(apply); got > 48+4*k {
			t.Errorf("round %d: applying a beat with %d changed leases allocates %d objects, budget %d", round, k, got, 48+4*k)
		}
	}

	// The books only grow: g leases and g blocks more every beat, nothing
	// released. 6,000 -> 8,560 leases passes a power of two (8,192) once and
	// 30,000 -> 32,560 blocks passes none, so one round regrows the decoded
	// lease list — moving its elements, grants and all, not rebuilding them —
	// and every other round pays for its news alone. Exact-fit regrowth that
	// dropped the old elements made every one of these rounds cost a whole copy
	// of the books: 6,000 objects and up.
	const g, rounds = 64, 40
	snap, _ := link.primary.Snapshot(replDC)
	_, pb := link.primary.Ledgers(replDC)
	regrown := 0
	for round := 0; round < rounds; round++ {
		for i := 0; i < g; i++ {
			if _, err := pl.Reserve(pl.Generation(), []ledger.Request{{Class: 0, Cores: 1, Capacity: 1e9}}, time.Hour, time.Now()); err != nil {
				t.Fatal(err)
			}
			s := tenant.ServerID((round*g + i) % 1000) // spread, as loadedLink's are
			if _, err := pb.Create(snap.Generation, []tenant.ServerID{s, s + 1000, s + 2000}, true); err != nil {
				t.Fatal(err)
			}
		}
		_, payload, _ = link.build(t)
		held := cap(link.ap.Beat().Ledger.Leases)
		got := mallocs(apply)
		// A new lease is two objects — the grants it decodes into and the
		// ledger's record, which holds its own copy — and a new block three:
		// decoded slots, record, the record's slots.
		budget := uint64(48 + 2*g + 3*g)
		if cap(link.ap.Beat().Ledger.Leases) != held {
			regrown++
			budget += 8 // the one new lease list, not what it holds
		}
		if got > budget {
			t.Errorf("growth round %d: applying a beat with %d new leases and %d new blocks allocates %d objects, budget %d", round, g, g, got, budget)
		}
	}
	if regrown != 1 {
		t.Errorf("the decoded lease list regrew %d times over %d growing beats, want once (at 8,192)", regrown, rounds)
	}
	checkFollowerEqualsPrimary(t, link.primary, link.follower)
}
