package ledger_test

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"harvest/internal/core"
	"harvest/internal/ledger"
)

// FuzzLedgerRekeyConservation pins the PR 4 largest-remainder invariant
// against arbitrary inputs: however leases, grants, releases, expiries, and
// server moves (remap shares) are thrown at it, every Rekey must conserve
// millicores exactly —
//
//	reserved == released + expired + forfeited + outstanding
//
// — keep every per-class counter non-negative, and keep the counter table
// equal to the sum of the live leases' grants. Class counts run past the
// lease-map shard count, so leases land on (and re-key across) every shard,
// and renews are mixed in at every stage — a renew moves no millicores, so
// the books must be bit-identical before and after one. The fuzz inputs
// drive a deterministic PRNG, so every failure reproduces from its corpus
// entry.
func FuzzLedgerRekeyConservation(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(3), uint8(12), uint8(2))
	f.Add(int64(42), uint8(1), uint8(1), uint8(1), uint8(1))
	f.Add(int64(-7), uint8(8), uint8(0), uint8(30), uint8(5))   // everything forfeits
	f.Add(int64(99), uint8(2), uint8(16), uint8(40), uint8(3))  // classes split wide
	f.Add(int64(17), uint8(31), uint8(11), uint8(47), uint8(4)) // more classes than shards
	f.Fuzz(func(t *testing.T, seed int64, numOld8, numNew8, numLeases8, rounds8 uint8) {
		rng := rand.New(rand.NewSource(seed))
		numOld := int(numOld8%32) + 1
		numNew := int(numNew8 % 12) // 0 → every grant forfeits
		numLeases := int(numLeases8 % 48)
		rounds := int(rounds8%4) + 1
		now := time.Unix(10_000, 0)

		led := ledger.New(1, numOld)
		var leaseIDs []uint64
		for i := 0; i < numLeases; i++ {
			// Random grants over random classes; capacity high enough that
			// admission never rejects (rejection paths are covered elsewhere).
			n := rng.Intn(numOld) + 1
			reqs := make([]ledger.Request, 0, n)
			for j := 0; j < n; j++ {
				reqs = append(reqs, ledger.Request{
					Class:    core.ClassID(rng.Intn(numOld)),
					Cores:    float64(rng.Intn(64_000)+1) / ledger.MillisPerCore,
					Capacity: 1 << 20,
				})
			}
			var ttl time.Duration
			if rng.Intn(3) == 0 {
				ttl = time.Duration(rng.Intn(120)+1) * time.Second
			}
			ls, err := led.Reserve(1, reqs, ttl, now)
			if err != nil {
				t.Fatalf("Reserve(%v): %v", reqs, err)
			}
			leaseIDs = append(leaseIDs, ls.ID)
		}
		// Release a random subset and run one expiry sweep so all four sinks
		// of the equation are populated before the first re-key. Renews ride
		// along: they reschedule expiry but must never move a millicore.
		for _, id := range leaseIDs {
			if rng.Intn(4) == 0 {
				led.Renew(id, time.Duration(rng.Intn(240))*time.Second, now)
			}
			if rng.Intn(3) == 0 {
				led.Release(id)
			}
		}
		led.ExpireBefore(now.Add(time.Duration(rng.Intn(180)) * time.Second))

		check := func(when string) {
			st := led.Snapshot()
			if got := st.ReleasedMillis + st.ExpiredMillis + st.ForfeitedMillis + st.OutstandingMillis; got != st.ReservedMillis {
				t.Fatalf("%s: conservation violated: reserved %d != released %d + expired %d + forfeited %d + outstanding %d = %d",
					when, st.ReservedMillis, st.ReleasedMillis, st.ExpiredMillis, st.ForfeitedMillis, st.OutstandingMillis, got)
			}
			if st.ReservedMillis < 0 || st.ReleasedMillis < 0 || st.ExpiredMillis < 0 ||
				st.ForfeitedMillis < 0 || st.OutstandingMillis < 0 {
				t.Fatalf("%s: negative books: %+v", when, st)
			}
			var tableSum int64
			for i, m := range st.AllocatedMillisByClass {
				if m < 0 {
					t.Fatalf("%s: class %d counter negative: %d", when, i, m)
				}
				tableSum += m
			}
			if tableSum != st.OutstandingMillis {
				t.Fatalf("%s: table sum %d != outstanding %d", when, tableSum, st.OutstandingMillis)
			}
		}
		check("before rekey")

		// Random server-move remaps across several generations: each old
		// class scatters over a random (possibly empty → forfeit) share set
		// with random weights, interleaved with more releases and sweeps.
		prevClasses := numOld
		for round := 0; round < rounds; round++ {
			remap := make(map[core.ClassID][]ledger.Share, prevClasses)
			for c := 0; c < prevClasses; c++ {
				n := rng.Intn(4) // 0 → this class's grants forfeit
				shares := make([]ledger.Share, 0, n)
				for j := 0; j < n; j++ {
					cls := core.ClassID(rng.Intn(numNew + 1)) // may be out of range when numNew is small
					shares = append(shares, ledger.Share{Class: cls, Weight: float64(rng.Intn(5))})
				}
				remap[core.ClassID(c)] = shares
			}
			led.Rekey(uint64(2+round), numNew, remap)
			check("after rekey")
			for _, id := range leaseIDs {
				if rng.Intn(5) == 0 {
					led.Renew(id, time.Duration(rng.Intn(240))*time.Second, now)
				}
				if rng.Intn(4) == 0 {
					led.Release(id)
				}
			}
			led.ExpireBefore(now.Add(time.Duration(rng.Intn(300)) * time.Second))
			check("after post-rekey release/sweep")
			prevClasses = numNew
		}

		// Export → Restore (a fresh ledger reconciled to the state) must
		// reproduce the books and the per-class table exactly. The lease count
		// may drop: a lease whose every grant a re-key forfeited holds nothing,
		// and a state's reader does not carry it over.
		before := led.Snapshot()
		restored, err := ledger.Restore(led.Export(), before.Generation, prevClasses)
		if err != nil {
			t.Fatalf("Restore: %v", err)
		}
		led = restored
		check("after restore")
		after := led.Snapshot()
		before.ActiveLeases, after.ActiveLeases = 0, 0
		if !reflect.DeepEqual(before, after) {
			t.Fatalf("restore moved the books:\nbefore %+v\nafter  %+v", before, after)
		}
	})
}
