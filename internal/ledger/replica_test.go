package ledger_test

import (
	"errors"
	"testing"
	"time"

	"harvest/internal/ledger"
	"harvest/internal/wire"
)

// TestReserveFloorsTightenAdmission pins the admission-floor contract: a
// published floor shrinks every class's admitted capacity immediately — the
// between-refreshes guard against utilization rising under outstanding
// capacity bounds — and floors for a non-current generation are inert.
func TestReserveFloorsTightenAdmission(t *testing.T) {
	l := ledger.New(1, 2)
	now := time.Now()

	// Without a floor, 0.8 cores fit under a 1.0-core capacity bound.
	lease, err := l.Reserve(1, []ledger.Request{{Class: 0, Cores: 0.8, Capacity: 1.0}}, 0, now)
	if err != nil {
		t.Fatalf("Reserve without floor: %v", err)
	}
	if _, err := l.Release(lease.ID); err != nil {
		t.Fatalf("Release: %v", err)
	}

	// A 500-milli floor on class 0 models utilization rising by half a core
	// per server-class since the capacity was derived: the same request must
	// now fail admission before the next snapshot refresh.
	l.SetFloors(1, []int64{500, 0})
	if _, err := l.Reserve(1, []ledger.Request{{Class: 0, Cores: 0.8, Capacity: 1.0}}, 0, now); err == nil {
		t.Fatal("floored reserve admitted 0.8 cores against a 1.0-capacity class with a 0.5-core floor")
	} else {
		var ie *ledger.InsufficientError
		if !errors.As(err, &ie) || ie.Class != 0 {
			t.Fatalf("error = %v, want InsufficientError{Class:0}", err)
		}
	}
	// What still fits under the tightened bound is admitted.
	lease, err = l.Reserve(1, []ledger.Request{{Class: 0, Cores: 0.5, Capacity: 1.0}}, 0, now)
	if err != nil {
		t.Fatalf("Reserve under floored bound: %v", err)
	}
	if lease.TotalMillis() != 500 {
		t.Fatalf("granted %d millis, want 500", lease.TotalMillis())
	}
	// Class 1 has a zero floor and is unaffected.
	if _, err := l.Reserve(1, []ledger.Request{{Class: 1, Cores: 0.9, Capacity: 1.0}}, 0, now); err != nil {
		t.Fatalf("unfloored class tightened: %v", err)
	}
	if st := l.Snapshot(); len(st.ReserveFloorMillisByClass) != 2 || st.ReserveFloorMillisByClass[0] != 500 {
		t.Fatalf("Stats floors = %v, want [500 0]", st.ReserveFloorMillisByClass)
	}
	checkConservation(t, l)

	// Floors keyed to another generation must not misapply.
	l2 := ledger.New(3, 1)
	l2.SetFloors(2, []int64{1000})
	if _, err := l2.Reserve(3, []ledger.Request{{Class: 0, Cores: 0.9, Capacity: 1.0}}, 0, now); err != nil {
		t.Fatalf("stale-generation floor applied: %v", err)
	}
	if fs := l2.Floors(); fs != nil {
		t.Fatalf("Floors() for mismatched generation = %v, want nil", fs)
	}
}

// TestApplyStateReplicatesBooks pins the follower-apply contract: ApplyState
// overwrites an existing ledger in place with a primary's Export, the books
// conserve exactly afterwards, lease ids survive verbatim (release on the
// replica finds them), and a second apply fully supersedes the first.
func TestApplyStateReplicatesBooks(t *testing.T) {
	now := time.Now()
	primary := ledger.New(5, 3)
	a, err := primary.Reserve(5, []ledger.Request{{Class: 0, Cores: 2, Capacity: 10}, {Class: 2, Cores: 1, Capacity: 10}}, time.Minute, now)
	if err != nil {
		t.Fatalf("Reserve a: %v", err)
	}
	b, err := primary.Reserve(5, []ledger.Request{{Class: 1, Cores: 4, Capacity: 10}}, 0, now)
	if err != nil {
		t.Fatalf("Reserve b: %v", err)
	}
	if _, err := primary.Release(b.ID); err != nil {
		t.Fatalf("Release b: %v", err)
	}

	follower := ledger.New(1, 1) // stale shape on purpose: apply must re-key
	follower.ApplyState(primary.Export(), 3)

	pst, fst := primary.Snapshot(), follower.Snapshot()
	if fst.Generation != 5 {
		t.Fatalf("follower generation = %d, want 5", fst.Generation)
	}
	if fst.ReservedMillis != pst.ReservedMillis || fst.ReleasedMillis != pst.ReleasedMillis ||
		fst.OutstandingMillis != pst.OutstandingMillis || fst.ActiveLeases != pst.ActiveLeases {
		t.Fatalf("follower books %+v diverge from primary %+v", fst, pst)
	}
	checkConservation(t, follower)

	// The replicated lease is releasable on the follower under its original
	// id — the promotion scenario.
	rel, err := follower.Release(a.ID)
	if err != nil || rel.TotalMillis() != a.TotalMillis() {
		t.Fatalf("Release replicated lease: %+v, %v", rel, err)
	}
	checkConservation(t, follower)

	// A later state fully supersedes: the released lease must not resurrect.
	follower.ApplyState(primary.Export(), 3)
	if _, err := follower.Release(b.ID); !errors.Is(err, ledger.ErrUnknownLease) {
		t.Fatalf("released-on-primary lease resurrected on follower: %v", err)
	}
	checkConservation(t, follower)

	// New reservations on the promoted follower coexist with applied leases.
	if _, err := follower.Reserve(5, []ledger.Request{{Class: 0, Cores: 1, Capacity: 10}}, 0, now); err != nil {
		t.Fatalf("post-promotion reserve: %v", err)
	}
	checkConservation(t, follower)
}

// TestApplyStateForfeitsOutOfRangeClasses mirrors Restore's defensive
// posture: a grant naming a class outside the applied clustering is
// forfeited, keeping conservation exact instead of trusting the frame.
func TestApplyStateForfeitsOutOfRangeClasses(t *testing.T) {
	st := ledger.State{
		Generation: 2, ReservedMillis: 3000,
		Leases: []wire.ReplLease{
			{ID: 1, Grants: []ledger.Grant{{Class: 0, Millis: 1000}, {Class: 9, Millis: 2000}}},
		},
	}
	l := ledger.New(1, 1)
	l.ApplyState(st, 1)
	out := l.Snapshot()
	if out.ForfeitedMillis != 2000 || out.OutstandingMillis != 1000 {
		t.Fatalf("forfeited %d outstanding %d, want 2000/1000", out.ForfeitedMillis, out.OutstandingMillis)
	}
	checkConservation(t, l)
}
