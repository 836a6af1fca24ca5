package ledger_test

import (
	"errors"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"harvest/internal/core"
	"harvest/internal/ledger"
	"harvest/internal/wire"
)

// checkConservation asserts the exact millicore invariant the CI smoke job
// also checks over /metrics.
func checkConservation(t *testing.T, l *ledger.Ledger) {
	t.Helper()
	st := l.Snapshot()
	if st.ReservedMillis != st.ReleasedMillis+st.ExpiredMillis+st.ForfeitedMillis+st.OutstandingMillis {
		t.Fatalf("conservation broken: reserved %d != released %d + expired %d + forfeited %d + outstanding %d",
			st.ReservedMillis, st.ReleasedMillis, st.ExpiredMillis, st.ForfeitedMillis, st.OutstandingMillis)
	}
	var tableSum int64
	for _, m := range st.AllocatedMillisByClass {
		tableSum += m
	}
	if tableSum != st.OutstandingMillis {
		t.Fatalf("table occupancy %d != outstanding lease millis %d", tableSum, st.OutstandingMillis)
	}
}

func TestReserveReleaseBasics(t *testing.T) {
	l := ledger.New(1, 3)
	now := time.Now()

	lease, err := l.Reserve(1, []ledger.Request{
		{Class: 0, Cores: 2.5, Capacity: 10},
		{Class: 2, Cores: 1, Capacity: 10},
	}, 0, now)
	if err != nil {
		t.Fatalf("Reserve: %v", err)
	}
	if lease.ID == 0 || lease.TotalMillis() != 3500 {
		t.Fatalf("lease = %+v, want id>0 total 3500", lease)
	}
	if got, ok := l.AllocatedCores(1, 0); !ok || got != 2.5 {
		t.Errorf("AllocatedCores(1,0) = %v,%v, want 2.5,true", got, ok)
	}
	if _, ok := l.AllocatedCores(2, 0); ok {
		t.Error("AllocatedCores accepted a mismatched generation")
	}
	checkConservation(t, l)

	rel, err := l.Release(lease.ID)
	if err != nil || rel.TotalMillis() != 3500 {
		t.Fatalf("Release: %+v, %v", rel, err)
	}
	if got, _ := l.AllocatedCores(1, 0); got != 0 {
		t.Errorf("allocation after release = %v, want 0", got)
	}
	if _, err := l.Release(lease.ID); !errors.Is(err, ledger.ErrUnknownLease) {
		t.Errorf("double release error = %v, want ErrUnknownLease", err)
	}
	checkConservation(t, l)

	// Capacity bound: a request past the bound fails entirely (including its
	// already-CASed earlier classes).
	if _, err := l.Reserve(1, []ledger.Request{
		{Class: 0, Cores: 4, Capacity: 10},
		{Class: 1, Cores: 8, Capacity: 5},
	}, 0, now); err == nil {
		t.Fatal("over-capacity reserve succeeded")
	} else {
		var ie *ledger.InsufficientError
		if !errors.As(err, &ie) || ie.Class != 1 {
			t.Errorf("error = %v, want InsufficientError{Class:1}", err)
		}
	}
	if got, _ := l.AllocatedCores(1, 0); got != 0 {
		t.Errorf("failed reserve leaked %v cores into class 0", got)
	}
	// Stale generation is rejected up front.
	if _, err := l.Reserve(7, []ledger.Request{{Class: 0, Cores: 1, Capacity: 10}}, 0, now); !errors.Is(err, ledger.ErrStaleGeneration) {
		t.Errorf("stale reserve error = %v, want ErrStaleGeneration", err)
	}
	checkConservation(t, l)
}

func TestExpiry(t *testing.T) {
	l := ledger.New(1, 1)
	now := time.Now()
	if _, err := l.Reserve(1, []ledger.Request{{Class: 0, Cores: 2, Capacity: 100}}, time.Minute, now); err != nil {
		t.Fatal(err)
	}
	forever, err := l.Reserve(1, []ledger.Request{{Class: 0, Cores: 3, Capacity: 100}}, 0, now)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := l.ExpireBefore(now.Add(30 * time.Second)); n != 0 {
		t.Fatalf("expired %d leases before their deadline", n)
	}
	n, millis := l.ExpireBefore(now.Add(2 * time.Minute))
	if n != 1 || millis != 2000 {
		t.Fatalf("ExpireBefore = %d leases, %d millis; want 1, 2000", n, millis)
	}
	// The TTL-less lease survives any sweep.
	if n, _ := l.ExpireBefore(now.Add(1000 * time.Hour)); n != 0 {
		t.Fatalf("TTL-less lease expired")
	}
	if got, _ := l.AllocatedCores(1, 0); got != 3 {
		t.Errorf("allocation after expiry = %v, want 3", got)
	}
	if _, err := l.Release(forever.ID); err != nil {
		t.Fatal(err)
	}
	checkConservation(t, l)
}

// TestConcurrentReserveNeverOverPromises is the package-level half of the
// PR's acceptance test: goroutines hammer one class with random reservations
// under a fixed capacity bound; the bound must hold at every instant and the
// books must balance at the end.
func TestConcurrentReserveNeverOverPromises(t *testing.T) {
	const (
		workers  = 16
		capacity = 100.0 // cores
	)
	l := ledger.New(1, 1)
	now := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			held := make([]uint64, 0, 64)
			for i := 0; i < 2000; i++ {
				if len(held) > 0 && rng.Intn(3) == 0 {
					id := held[len(held)-1]
					held = held[:len(held)-1]
					if _, err := l.Release(id); err != nil {
						t.Errorf("release: %v", err)
						return
					}
					continue
				}
				cores := float64(1+rng.Intn(50)) / 10
				lease, err := l.Reserve(1, []ledger.Request{{Class: 0, Cores: cores, Capacity: capacity}}, 0, now)
				if err != nil {
					var ie *ledger.InsufficientError
					if !errors.As(err, &ie) {
						t.Errorf("reserve: %v", err)
						return
					}
					continue
				}
				held = append(held, lease.ID)
				// The bound must hold immediately after our own admission.
				if got, _ := l.AllocatedCores(1, 0); got > capacity {
					t.Errorf("allocation %v exceeded capacity %v", got, capacity)
					return
				}
			}
		}(int64(w + 1))
	}
	wg.Wait()
	st := l.Snapshot()
	if st.OutstandingMillis > int64(capacity*ledger.MillisPerCore) {
		t.Fatalf("final outstanding %d millis exceeds capacity", st.OutstandingMillis)
	}
	if st.Reserves == 0 || st.Conflicts == 0 {
		t.Fatalf("test exercised nothing: %d reserves, %d conflicts", st.Reserves, st.Conflicts)
	}
	checkConservation(t, l)
}

func TestRekeyConservesTotals(t *testing.T) {
	l := ledger.New(1, 2)
	now := time.Now()
	a, err := l.Reserve(1, []ledger.Request{{Class: 0, Cores: 10, Capacity: 100}}, 0, now)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Reserve(1, []ledger.Request{{Class: 1, Cores: 0.007, Capacity: 100}}, 0, now); err != nil {
		t.Fatal(err)
	}
	before := l.Snapshot()

	// Generation 2 has 3 classes: old class 0's servers split 2:1 between new
	// classes 0 and 2; old class 1 maps entirely to new class 1.
	l.Rekey(2, 3, map[core.ClassID][]ledger.Share{
		0: {{Class: 0, Weight: 2}, {Class: 2, Weight: 1}},
		1: {{Class: 1, Weight: 5}},
	})
	after := l.Snapshot()
	if after.Generation != 2 {
		t.Fatalf("generation = %d, want 2", after.Generation)
	}
	if after.OutstandingMillis != before.OutstandingMillis {
		t.Fatalf("rekey changed outstanding: %d -> %d", before.OutstandingMillis, after.OutstandingMillis)
	}
	// 10 cores split 2:1 = 6667/3333 millis (largest remainder).
	if got := after.AllocatedMillisByClass[0] + after.AllocatedMillisByClass[2]; got != 10000 {
		t.Errorf("split of class 0 = %d millis, want 10000", got)
	}
	if after.AllocatedMillisByClass[1] != 7 {
		t.Errorf("class 1 carry = %d millis, want 7", after.AllocatedMillisByClass[1])
	}
	checkConservation(t, l)

	// Release after the re-key returns the re-keyed grants.
	rel, err := l.Release(a.ID)
	if err != nil || rel.TotalMillis() != 10000 {
		t.Fatalf("post-rekey release: %+v, %v", rel, err)
	}
	// A reservation keyed to the old generation is refused.
	if _, err := l.Reserve(1, []ledger.Request{{Class: 0, Cores: 1, Capacity: 100}}, 0, now); !errors.Is(err, ledger.ErrStaleGeneration) {
		t.Errorf("old-generation reserve error = %v, want ErrStaleGeneration", err)
	}
	checkConservation(t, l)
}

func TestRekeyForfeitsUnmappedClasses(t *testing.T) {
	l := ledger.New(1, 2)
	now := time.Now()
	if _, err := l.Reserve(1, []ledger.Request{{Class: 0, Cores: 4, Capacity: 10}, {Class: 1, Cores: 2, Capacity: 10}}, 0, now); err != nil {
		t.Fatal(err)
	}
	// Class 1's servers all left the serving set: its grants are forfeited.
	l.Rekey(2, 1, map[core.ClassID][]ledger.Share{0: {{Class: 0, Weight: 1}}})
	st := l.Snapshot()
	if st.ForfeitedMillis != 2000 {
		t.Fatalf("forfeited = %d millis, want 2000", st.ForfeitedMillis)
	}
	if st.OutstandingMillis != 4000 {
		t.Fatalf("outstanding = %d millis, want 4000", st.OutstandingMillis)
	}
	checkConservation(t, l)
}

// TestConcurrentReserveAcrossRekey races reservations against repeated
// re-keys: every grant must land in exactly one generation's books — never
// lost, never double-counted — and the books must balance afterwards.
func TestConcurrentReserveAcrossRekey(t *testing.T) {
	l := ledger.New(1, 2)
	now := time.Now()
	stop := make(chan struct{})
	var rekeys int
	go func() {
		defer close(stop)
		for g := uint64(2); g <= 40; g++ {
			l.Rekey(g, 2, map[core.ClassID][]ledger.Share{
				0: {{Class: 0, Weight: 1}, {Class: 1, Weight: 1}},
				1: {{Class: 1, Weight: 1}},
			})
			rekeys++
			time.Sleep(100 * time.Microsecond)
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				gen := l.Generation()
				_, err := l.Reserve(gen, []ledger.Request{{Class: core.ClassID(rng.Intn(2)), Cores: 0.5, Capacity: 1e9}}, 0, now)
				if err != nil && !errors.Is(err, ledger.ErrStaleGeneration) {
					t.Errorf("reserve: %v", err)
					return
				}
			}
		}(int64(w + 1))
	}
	wg.Wait()
	st := l.Snapshot()
	if st.Reserves == 0 {
		t.Fatal("no reservation ever succeeded")
	}
	checkConservation(t, l)
}

func TestExportRestore(t *testing.T) {
	l := ledger.New(3, 2)
	now := time.Now()
	keep, err := l.Reserve(3, []ledger.Request{{Class: 0, Cores: 2, Capacity: 10}}, time.Hour, now)
	if err != nil {
		t.Fatal(err)
	}
	gone, err := l.Reserve(3, []ledger.Request{{Class: 1, Cores: 1, Capacity: 10}}, 0, now)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Release(gone.ID); err != nil {
		t.Fatal(err)
	}

	st := l.Export()
	restored, err := ledger.Restore(st, 3, 2)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	rs := restored.Snapshot()
	ls := l.Snapshot()
	if rs.OutstandingMillis != ls.OutstandingMillis || rs.ReservedMillis != ls.ReservedMillis ||
		rs.ReleasedMillis != ls.ReleasedMillis || rs.ActiveLeases != ls.ActiveLeases {
		t.Fatalf("restored stats diverge: %+v vs %+v", rs, ls)
	}
	if got, _ := restored.AllocatedCores(3, 0); got != 2 {
		t.Errorf("restored allocation = %v, want 2", got)
	}
	// The restored ledger keeps issuing fresh unique ids alongside the
	// persisted ones (ids are random draws, not a resumed counter).
	next, err := restored.Reserve(3, []ledger.Request{{Class: 0, Cores: 1, Capacity: 10}}, 0, now)
	if err != nil {
		t.Fatal(err)
	}
	if next.ID == 0 || next.ID == keep.ID || next.ID == gone.ID {
		t.Errorf("restored id %d collides or is zero (persisted %d, %d)", next.ID, keep.ID, gone.ID)
	}
	if _, err := restored.Release(keep.ID); err != nil {
		t.Errorf("restored lease not releasable: %v", err)
	}
	checkConservation(t, restored)

	// Generation mismatch is refused — the caller then starts fresh.
	if _, err := ledger.Restore(st, 4, 2); err == nil {
		t.Error("mismatched-generation restore succeeded")
	}
	// Out-of-range grants are forfeited, not trusted.
	shrunk, err := ledger.Restore(st, 3, 1)
	if err != nil {
		t.Fatalf("shrunk Restore: %v", err)
	}
	checkConservation(t, shrunk)
	// A zero or repeated lease id refuses the whole state — Reconcile alone
	// would skip the lease and keep the rest — and so does a lease no
	// replication frame could carry: the primary would panic (a string past
	// Str8) or ship undecodable frames (a wrapped grant count) once a follower
	// joined.
	grants := st.Leases[0].Grants
	for _, tc := range []struct {
		name  string
		lease wire.ReplLease
		ok    bool
	}{
		{"a zero id", wire.ReplLease{ID: 0, Grants: grants}, false},
		{"a repeated id", wire.ReplLease{ID: keep.ID, Grants: grants}, false},
		{"a 300-byte owner", wire.ReplLease{ID: 0x990, Grants: grants, Owner: strings.Repeat("o", 300)}, false},
		{"a 256-byte job_id", wire.ReplLease{ID: 0x990, Grants: grants, JobID: strings.Repeat("j", 256)}, false},
		{"65,536 grants", wire.ReplLease{ID: 0x990, Grants: make([]ledger.Grant, 1<<16)}, false},
		{"a 255-byte job_id", wire.ReplLease{ID: 0x990, Grants: grants, JobID: strings.Repeat("j", 255)}, true},
	} {
		bad := st
		bad.Leases = append(slices.Clone(st.Leases), tc.lease)
		if _, err := ledger.Restore(bad, 3, 2); tc.ok != (err == nil) {
			t.Errorf("restore of a state holding a lease with %s: err %v", tc.name, err)
		}
	}
}

// TestLeaseIDsUnguessable pins the lease-id hardening: ids are random
// 53-bit draws (capped so float64-backed JSON consumers round-trip them
// exactly), per-ledger independent, never zero, and nothing like the old
// enumerable counter. (A sequential ledger would hand out 1, 2, 3 here.)
func TestLeaseIDsUnguessable(t *testing.T) {
	now := time.Now()
	ids := make(map[uint64]bool)
	small := 0
	for range 2 {
		l := ledger.New(1, 1)
		for range 8 {
			ls, err := l.Reserve(1, []ledger.Request{{Class: 0, Cores: 0.001, Capacity: 1000}}, 0, now)
			if err != nil {
				t.Fatal(err)
			}
			if ls.ID == 0 {
				t.Fatal("zero lease id issued")
			}
			if ids[ls.ID] {
				t.Fatalf("duplicate lease id %d across ledgers", ls.ID)
			}
			ids[ls.ID] = true
			if ls.ID >= 1<<53 {
				t.Fatalf("lease id %d exceeds the float64-exact JSON range", ls.ID)
			}
			if ls.ID <= 1<<32 {
				small++
			}
		}
	}
	// 16 uniform draws from 2^53 each land under 2^32 with probability
	// ~2^-21. Allow one for paranoia's sake.
	if small > 1 {
		t.Fatalf("%d of 16 ids in the low 32-bit range — not uniform draws", small)
	}
}
