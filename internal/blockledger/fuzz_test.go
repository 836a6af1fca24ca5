package blockledger_test

import (
	"math/rand"
	"testing"

	"harvest/internal/blockledger"
	"harvest/internal/tenant"
)

// fuzzSite is a synthetic grid resolver: server s sits at cell
// (s mod 3, (s/3) mod 3) in environment "env-{s mod envs}", and servers past
// the population edge are unknown (their tenant left). It stands in for a
// re-clustered PlacementScheme so the fuzz can shrink and reshape the grid
// without building real populations.
func fuzzSite(population int, envs int) blockledger.SiteOf {
	return func(s tenant.ServerID) (int, int, string, bool) {
		if s < 0 || int(s) >= population {
			return 0, 0, "", false
		}
		env := byte('a' + int(s)%envs)
		return int(s) % 3, (int(s) / 3) % 3, string(env), true
	}
}

// checkBlockBooks asserts both conservation equations on a consistent
// snapshot of the books:
//
//	placed + pending == replica slots
//	lost == replaced + pending
//
// plus non-negativity and queue-vs-pending sanity (the queue never exceeds
// the pending gauge; taken-but-unfinished refs account for the difference).
func checkBlockBooks(t *testing.T, led *blockledger.Ledger, when string, inflight int) {
	t.Helper()
	st := led.Snapshot()
	if st.Placed+st.Pending != st.ReplicaSlots {
		t.Fatalf("%s: conservation violated: placed %d + pending %d != slots %d (stats %+v)",
			when, st.Placed, st.Pending, st.ReplicaSlots, st)
	}
	if st.Lost != st.Replaced+st.Pending {
		t.Fatalf("%s: loss books violated: lost %d != replaced %d + pending %d (stats %+v)",
			when, st.Lost, st.Replaced, st.Pending, st)
	}
	if st.Placed < 0 || st.Pending < 0 || st.Lost < 0 || st.Replaced < 0 || st.Blocks < 0 || st.ReplicaSlots < 0 {
		t.Fatalf("%s: negative books: %+v", when, st)
	}
	if int64(st.RepairQueue) > st.Pending {
		t.Fatalf("%s: repair queue %d exceeds pending %d", when, st.RepairQueue, st.Pending)
	}
	if int64(st.RepairQueue+inflight) < st.Pending {
		t.Fatalf("%s: queue %d + in-flight %d < pending %d: a repair was dropped",
			when, st.RepairQueue, inflight, st.Pending)
	}
}

// FuzzBlockLedgerConservation mirrors FuzzLedgerRekeyConservation for the
// block books: however places, reimaging events, repairs (landed, failed and
// requeued, or deliberately abandoned in flight), and grid-reshaping rekeys
// interleave, every block holds exactly R placed-or-pending replicas and
// every loss is either repaired or still pending — exactly, in whole
// replicas. The fuzz inputs drive a deterministic PRNG, so every failure
// reproduces from its corpus entry.
func FuzzBlockLedgerConservation(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(3), uint8(20), uint8(2))
	f.Add(int64(42), uint8(9), uint8(1), uint8(1), uint8(1))
	f.Add(int64(-7), uint8(200), uint8(5), uint8(60), uint8(4)) // big population, heavy churn
	f.Add(int64(99), uint8(4), uint8(2), uint8(30), uint8(3))   // tiny grid: repairs often can't land
	f.Fuzz(func(t *testing.T, seed int64, pop8, envs8, blocks8, rounds8 uint8) {
		rng := rand.New(rand.NewSource(seed))
		population := int(pop8%250) + 3
		envs := int(envs8%6) + 1
		numBlocks := int(blocks8 % 64)
		rounds := int(rounds8%5) + 1
		site := fuzzSite(population, envs)

		led := blockledger.New(1)
		gen := uint64(1)
		var blockIDs []uint64
		inflight := 0

		place := func(n int, when string) {
			for i := 0; i < n; i++ {
				r := rng.Intn(3) + 1
				if r > population {
					r = population
				}
				servers := make([]tenant.ServerID, 0, r)
				for _, s := range rng.Perm(population)[:r] {
					servers = append(servers, tenant.ServerID(s))
				}
				id, err := led.Create(gen, servers, rng.Intn(2) == 0)
				if err != nil {
					t.Fatalf("%s: Create(%v): %v", when, servers, err)
				}
				blockIDs = append(blockIDs, id)
			}
		}
		reimage := func(when string) {
			// Reimage a random slice of servers, including some that hold
			// nothing — a no-op event must move no books. Each event must hit
			// exactly the placed replicas an export shows on its server.
			for i, n := 0, rng.Intn(population/2+1); i < n; i++ {
				s := tenant.ServerID(rng.Intn(population + 5))
				want := 0
				for _, b := range led.Export().Blocks {
					for _, r := range b.Replicas {
						if r.Placed && r.Server == int64(s) {
							want++
						}
					}
				}
				if got := led.Reimage(s); got != want {
					t.Fatalf("%s: Reimage(%d) hit %d replicas, the export shows %d placed there", when, s, got, want)
				}
			}
			checkBlockBooks(t, led, when+" after reimage", inflight)
		}
		repair := func(when string) {
			refs := led.TakeRepairs(rng.Intn(8) + 1)
			for _, ref := range refs {
				switch rng.Intn(5) {
				case 0:
					// Placement failed: hand the ref back.
					led.Requeue(ref)
				case 1:
					// The repairer died with the ref in flight; Restore/ApplyState
					// is what recovers these, exercised below.
					inflight++
				default:
					placed, pending, ok := led.Servers(ref.Block)
					if !ok {
						t.Fatalf("%s: repair ref for unknown block %d", when, ref.Block)
					}
					if pending == 0 {
						t.Fatalf("%s: repair ref %v but block has no pending slots", when, ref)
					}
					// Pick any server not already holding a replica; when the
					// population is exhausted, requeue like a real repairer would.
					server := tenant.ServerID(-1)
					for _, cand := range rng.Perm(population) {
						used := false
						for _, p := range placed {
							if p == tenant.ServerID(cand) {
								used = true
								break
							}
						}
						if !used {
							server = tenant.ServerID(cand)
							break
						}
					}
					if server < 0 {
						led.Requeue(ref)
						continue
					}
					if err := led.Replace(gen, ref, server); err != nil {
						t.Fatalf("%s: Replace(%v, %d): %v", when, ref, server, err)
					}
				}
			}
			checkBlockBooks(t, led, when+" after repairs", inflight)
		}

		place(numBlocks, "seed")
		checkBlockBooks(t, led, "after seed places", inflight)

		for round := 0; round < rounds; round++ {
			reimage("round")
			repair("round")
			// Reshape the grid: shrink or grow the known population and the
			// environment count, then rekey. Displacements must keep the books
			// balanced; a rekey under the same resolver displaces nothing new
			// for blocks it already validated, but that's not asserted — only
			// conservation is.
			population2 := rng.Intn(population+10) + 1
			envs2 := rng.Intn(6) + 1
			site = fuzzSite(population2, envs2)
			gen++
			led.Rekey(gen, site)
			// Rekey rebuilds nothing queue-side for in-flight refs, but a
			// displaced slot enqueues anew; stale in-flight refs now target
			// still-pending slots and Requeue/Replace must handle them.
			checkBlockBooks(t, led, "after rekey", inflight)
			population = population2
			envs = envs2
			place(rng.Intn(4), "post-rekey")
			repair("post-rekey")
		}

		// Export → Restore must preserve the books exactly and rebuild the
		// repair queue to cover every pending slot (recovering the abandoned
		// in-flight refs).
		before := led.Snapshot()
		restored, err := blockledger.Restore(led.Export(), gen)
		if err != nil {
			t.Fatalf("Restore: %v", err)
		}
		after := restored.Snapshot()
		if after.Placed != before.Placed || after.Pending != before.Pending ||
			after.ReplicaSlots != before.ReplicaSlots || after.Lost != before.Lost ||
			after.Replaced != before.Replaced || after.Blocks != before.Blocks {
			t.Fatalf("restore moved the books: before %+v after %+v", before, after)
		}
		if int64(after.RepairQueue) != after.Pending {
			t.Fatalf("restore rebuilt queue %d != pending %d", after.RepairQueue, after.Pending)
		}
		checkBlockBooks(t, restored, "after restore", 0)
	})
}
