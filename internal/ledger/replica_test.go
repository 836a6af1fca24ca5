package ledger_test

import (
	"errors"
	"testing"
	"time"

	"harvest/internal/ledger"
	"harvest/internal/wire"
)

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
