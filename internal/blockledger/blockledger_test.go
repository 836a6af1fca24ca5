package blockledger_test

import (
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"harvest/internal/blockledger"
	"harvest/internal/tenant"
	"harvest/internal/wire"
)

func TestBlockLedgerLifecycle(t *testing.T) {
	led := blockledger.New(7)
	if got := led.Generation(); got != 7 {
		t.Fatalf("Generation() = %d, want 7", got)
	}

	id, err := led.Create(7, []tenant.ServerID{10, 20, 30}, true)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := led.Create(6, []tenant.ServerID{11}, false); !errors.Is(err, blockledger.ErrStaleGeneration) {
		t.Fatalf("stale Create err = %v, want ErrStaleGeneration", err)
	}
	if _, err := led.Create(7, []tenant.ServerID{10, 10}, false); err == nil {
		t.Fatal("duplicate-server Create succeeded")
	}

	placed, pending, ok := led.Servers(id)
	if !ok || len(placed) != 3 || pending != 0 {
		t.Fatalf("Servers(%d) = %v, %d, %v", id, placed, pending, ok)
	}

	if lost := led.Reimage(20); lost != 1 {
		t.Fatalf("Reimage(20) = %d, want 1", lost)
	}
	if lost := led.Reimage(999); lost != 0 {
		t.Fatalf("Reimage(999) = %d, want 0", lost)
	}
	st := led.Snapshot()
	if st.Placed != 2 || st.Pending != 1 || st.Lost != 1 || st.RepairQueue != 1 {
		t.Fatalf("post-reimage stats %+v", st)
	}

	refs := led.TakeRepairs(10)
	if len(refs) != 1 || refs[0].Block != id {
		t.Fatalf("TakeRepairs = %v", refs)
	}
	// A repair on a server already holding a replica must be rejected.
	if err := led.Replace(7, refs[0], 10); err == nil {
		t.Fatal("Replace onto an existing holder succeeded")
	}
	if err := led.Replace(6, refs[0], 40); !errors.Is(err, blockledger.ErrStaleGeneration) {
		t.Fatalf("stale Replace err = %v, want ErrStaleGeneration", err)
	}
	if err := led.Replace(7, refs[0], 40); err != nil {
		t.Fatalf("Replace: %v", err)
	}
	if err := led.Replace(7, refs[0], 41); !errors.Is(err, blockledger.ErrReplicaPlaced) {
		t.Fatalf("double Replace err = %v, want ErrReplicaPlaced", err)
	}
	st = led.Snapshot()
	if st.Placed != 3 || st.Pending != 0 || st.Lost != 1 || st.Replaced != 1 || st.RepairQueue != 0 {
		t.Fatalf("post-repair stats %+v", st)
	}
}

// TestExportRestore pins the file door: an exported state restores to the same
// books with the repair queue rebuilt from the pending slots, and a state
// holding a block Reconcile would skip, or one no replication frame could
// carry, is refused whole. Skipping it instead would leave its pending slot
// counted lost and never replaced, a conservation residue for the life of the
// process.
func TestExportRestore(t *testing.T) {
	led := blockledger.New(7)
	for _, servers := range [][]tenant.ServerID{{10, 20, 30}, {20, 40}} {
		if _, err := led.Create(7, servers, true); err != nil {
			t.Fatal(err)
		}
	}
	if lost := led.Reimage(20); lost != 2 {
		t.Fatalf("Reimage(20) = %d, want 2", lost)
	}
	st := led.Export()
	restored, err := blockledger.Restore(st, 8)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	want := led.Snapshot()
	want.Generation = 8
	if got := restored.Snapshot(); got != want || got.RepairQueue != 2 || got.ConservationErrorSlots != 0 {
		t.Fatalf("restored books %+v, want %+v", got, want)
	}

	pending := []wire.ReplBlockReplica{{Server: 1, Placed: true}, {Server: 2}}
	for _, tc := range []struct {
		name  string
		block wire.ReplBlock
		ok    bool
	}{
		{"a zero id", wire.ReplBlock{ID: 0, Replicas: pending}, false},
		{"a repeated id", wire.ReplBlock{ID: st.Blocks[0].ID, Replicas: pending}, false},
		{"no replica slots", wire.ReplBlock{ID: 0x990}, false},
		{"300 replica slots", wire.ReplBlock{ID: 0x990, Replicas: make([]wire.ReplBlockReplica, 300)}, false},
		{"255 replica slots", wire.ReplBlock{ID: 0x990, Replicas: make([]wire.ReplBlockReplica, 255)}, true},
	} {
		bad := st
		bad.Blocks = append(slices.Clone(st.Blocks), tc.block)
		if _, err := blockledger.Restore(bad, 7); tc.ok != (err == nil) {
			t.Errorf("restore of a state holding a block with %s: err %v", tc.name, err)
		}
	}
}

func TestBlockLedgerRekeyDisplaces(t *testing.T) {
	led := blockledger.New(1)
	// Servers 0,1,2 sit in distinct columns/rows/environments initially.
	site := func(s tenant.ServerID) (int, int, string, bool) {
		return int(s), int(s), string(rune('a' + s)), true
	}
	id, err := led.Create(1, []tenant.ServerID{0, 1, 2}, true)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if displaced := led.Rekey(2, site); displaced != 0 {
		t.Fatalf("no-op Rekey displaced %d", displaced)
	}

	// New clustering: servers 1 and 2 collapse into server 0's cell and
	// environment — both now violate and must be displaced; slot 0 survives.
	collapsed := func(s tenant.ServerID) (int, int, string, bool) {
		return 0, 0, "a", true
	}
	if displaced := led.Rekey(3, collapsed); displaced != 2 {
		t.Fatalf("collapsing Rekey displaced %d, want 2", displaced)
	}
	placed, pending, _ := led.Servers(id)
	if len(placed) != 1 || placed[0] != 0 || pending != 2 {
		t.Fatalf("post-rekey Servers = %v, %d", placed, pending)
	}
	st := led.Snapshot()
	if st.Placed+st.Pending != st.ReplicaSlots || st.Lost != st.Replaced+st.Pending {
		t.Fatalf("rekey broke conservation: %+v", st)
	}

	// An unknown server (tenant left the population) is displaced too.
	gone := func(s tenant.ServerID) (int, int, string, bool) {
		return int(s), int(s), string(rune('a' + s)), s != 0
	}
	if displaced := led.Rekey(4, gone); displaced != 1 {
		t.Fatalf("unknown-server Rekey displaced %d, want 1", displaced)
	}
}

// TestRekeyRevalidatesWithoutAllocating pins the warm refresh's re-key: when
// nothing is displaced, re-validating every block — an environment set per
// env-strict block included — allocates nothing, at the largest replication
// factor the on-stack set covers. Past it the set spills to the heap and the
// rules are the same: a duplicate environment in the last of twelve slots is
// still found.
func TestRekeyRevalidatesWithoutAllocating(t *testing.T) {
	envs := make([]string, 12)
	for i := range envs {
		envs[i] = string(rune('a' + i))
	}
	site := func(s tenant.ServerID) (int, int, string, bool) {
		return int(s) % 3, int(s) % 3, envs[s], true // distinct cells within each round of three
	}
	led := blockledger.New(1)
	r8 := []tenant.ServerID{0, 1, 2, 3, 4, 5, 6, 7}
	for i := 0; i < 1000; i++ {
		if _, err := led.Create(1, r8, true); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(10, func() {
		if displaced := led.Rekey(1, site); displaced != 0 {
			t.Fatalf("re-key under the placing resolver displaced %d", displaced)
		}
	}); n != 0 {
		t.Errorf("re-validating 1,000 R=8 blocks allocates %v objects, want 0", n)
	}

	envs[11] = envs[0]
	r12 := []tenant.ServerID{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	id, err := led.Create(1, r12, true)
	if err != nil {
		t.Fatal(err)
	}
	if displaced := led.Rekey(2, site); displaced != 1 {
		t.Fatalf("re-key displaced %d replicas, want the one duplicate environment", displaced)
	}
	if placed, pending, _ := led.Servers(id); len(placed) != 11 || pending != 1 || slices.Contains(placed, 11) {
		t.Fatalf("after the re-key the R=12 block holds %v with %d pending", placed, pending)
	}
}

// TestBlockLedgerConcurrentConservation hammers every mutating entry point
// from racing goroutines and asserts the books balance afterwards — the
// -race half of the conservation story.
func TestBlockLedgerConcurrentConservation(t *testing.T) {
	const population = 64
	led := blockledger.New(1)
	site := func(s tenant.ServerID) (int, int, string, bool) {
		if s < 0 || s >= population {
			return 0, 0, "", false
		}
		return int(s) % 3, (int(s) / 3) % 3, string(rune('a' + int(s)%4)), true
	}

	var wg sync.WaitGroup
	var gen sync.Map // single writer below; readers race deliberately
	gen.Store("g", uint64(1))
	curGen := func() uint64 { v, _ := gen.Load("g"); return v.(uint64) }

	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 400; i++ {
				switch rng.Intn(4) {
				case 0:
					r := rng.Intn(3) + 1
					servers := make([]tenant.ServerID, 0, r)
					for _, s := range rng.Perm(population)[:r] {
						servers = append(servers, tenant.ServerID(s))
					}
					// Stale generations are an expected outcome here; real
					// callers re-place and retry.
					led.Create(curGen(), servers, rng.Intn(2) == 0)
				case 1:
					led.Reimage(tenant.ServerID(rng.Intn(population)))
				case 2:
					for _, ref := range led.TakeRepairs(4) {
						placed, _, ok := led.Servers(ref.Block)
						if !ok {
							continue
						}
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
						if server < 0 || led.Replace(curGen(), ref, server) != nil {
							led.Requeue(ref)
						}
					}
				case 3:
					led.Snapshot()
				}
			}
		}(w)
	}
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			g := curGen() + 1
			led.Rekey(g, site)
			gen.Store("g", g)
		}
		close(done)
	}()
	wg.Wait()
	<-done

	st := led.Snapshot()
	if st.Placed+st.Pending != st.ReplicaSlots {
		t.Fatalf("conservation violated after concurrency: %+v", st)
	}
	if st.Lost != st.Replaced+st.Pending {
		t.Fatalf("loss books violated after concurrency: %+v", st)
	}
	// Drain: with no racing writers every queued ref must land or requeue
	// deterministically until pending hits zero or no eligible server exists.
	rng := rand.New(rand.NewSource(99))
	for tries := 0; tries < 10_000; tries++ {
		refs := led.TakeRepairs(16)
		if len(refs) == 0 {
			break
		}
		for _, ref := range refs {
			placed, _, ok := led.Servers(ref.Block)
			if !ok {
				continue
			}
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
				continue
			}
			if err := led.Replace(led.Generation(), ref, server); err != nil {
				t.Fatalf("drain Replace(%v): %v", ref, err)
			}
		}
	}
	st = led.Snapshot()
	if st.Pending != 0 {
		t.Fatalf("drain left %d pending (queue %d)", st.Pending, st.RepairQueue)
	}
	if st.Lost != st.Replaced {
		t.Fatalf("drained books don't close: lost %d != replaced %d", st.Lost, st.Replaced)
	}
}
