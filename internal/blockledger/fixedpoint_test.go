package blockledger_test

import (
	"fmt"
	"math/rand"
	"testing"

	"harvest/internal/blockledger"
	"harvest/internal/core"
	"harvest/internal/tenant"
)

// fullGridScheme is a placement scheme with every one of the nine cells
// populated by ten single-environment tenants of four servers each, so
// Algorithm 2 never needs its relaxed fallback at any R tested here.
func fullGridScheme(t *testing.T) *core.PlacementScheme {
	t.Helper()
	infos := make([]core.TenantPlacementInfo, 90)
	for i := range infos {
		servers := make([]tenant.ServerID, 4)
		for s := range servers {
			servers[s] = tenant.ServerID(4*i + s)
		}
		infos[i] = core.TenantPlacementInfo{
			ID:             tenant.ID(i),
			Environment:    fmt.Sprintf("env-%d", i),
			ReimageRate:    float64(i % 3),
			PeakCPU:        float64(i / 3 % 3),
			AvailableBytes: 1000,
			Servers:        servers,
		}
	}
	scheme, err := core.BuildPlacementScheme(infos)
	if err != nil {
		t.Fatal(err)
	}
	for col := range scheme.Cells {
		for row, cell := range scheme.Cells[col] {
			if len(cell.Tenants) == 0 {
				t.Fatalf("cell (%d,%d) is empty: the grid is not fully populated", col, row)
			}
		}
	}
	return scheme
}

// TestRepairThenRekeyIsAFixedPoint is the property that repair and
// re-validation agree about what a legal block is: on a fully populated grid,
// after a server holding a non-final slot of many blocks is reimaged and every
// repair has landed, re-keying under the same scheme displaces nothing and
// leaves nothing pending, for seeded runs at R = 3, 4 and 6 — with both
// conservation identities exact at every step. A repair seeded from the
// survivors compacted (their count, not their slot positions) breaks it for
// R > 3: lose slot 0 of four and the repair is constrained against nobody, may
// land in slot 1's row, and the re-key then displaces slot 1.
//
// The grid has no empty cell and the relaxed-placement counter is required to
// stay zero: whether an unchanged grid may keep a replica Algorithm 2 placed
// relaxed is ROADMAP direction 1a's decision, and out of scope here.
func TestRepairThenRekeyIsAFixedPoint(t *testing.T) {
	for _, r := range []int{3, 4, 6} {
		for seed := int64(1); seed <= 5; seed++ {
			t.Run(fmt.Sprintf("R%d/seed%d", r, seed), func(t *testing.T) { repairThenRekey(t, r, seed) })
		}
	}
}

func repairThenRekey(t *testing.T, r int, seed int64) {
	const gen = 1
	scheme := fullGridScheme(t)
	rng := rand.New(rand.NewSource(seed))
	led := blockledger.New(gen)
	nonFinal := map[tenant.ServerID]int{} // server → non-final slots it holds
	for i := 0; i < 300; i++ {
		servers, err := scheme.PlaceReplicas(rng, core.PlacementConstraints{Replication: r, Writer: -1, EnforceEnvironment: true})
		if err != nil {
			t.Fatalf("place: %v", err)
		}
		if _, err := led.Create(gen, servers, true); err != nil {
			t.Fatalf("create: %v", err)
		}
		for _, s := range servers[:r-1] {
			nonFinal[s]++
		}
	}
	checkBlockBooks(t, led, "after creates", 0)
	if n := led.Rekey(gen, scheme.ReplicaSite); n != 0 {
		t.Fatalf("re-key of freshly placed blocks displaced %d replicas", n)
	}

	for round := 0; round < 20; round++ {
		// Reimage the server holding the most non-final slots still standing.
		var victim tenant.ServerID
		for s, n := range nonFinal {
			if n > nonFinal[victim] || n == nonFinal[victim] && s < victim {
				victim = s
			}
		}
		delete(nonFinal, victim)
		if lost := led.Reimage(victim); lost == 0 {
			t.Fatalf("round %d: server %d held no replica", round, victim)
		}
		checkBlockBooks(t, led, "after reimage", 0)

		for _, ref := range led.TakeRepairs(1 << 30) {
			slots, envStrict, ok := led.Slots(nil, ref.Block)
			if !ok {
				t.Fatalf("repair ref %+v names an unknown block", ref)
			}
			server, err := scheme.PlaceSlot(rng, slots, ref.Replica, core.PlacementConstraints{EnforceEnvironment: envStrict})
			if err != nil {
				t.Fatalf("place slot %+v: %v", ref, err)
			}
			if err := led.Replace(gen, ref, server); err != nil {
				t.Fatalf("replace %+v: %v", ref, err)
			}
		}
		checkBlockBooks(t, led, "after repairs", 0)
		if n := led.Rekey(gen, scheme.ReplicaSite); n != 0 {
			t.Fatalf("round %d: re-key under the unchanged scheme displaced %d repaired replicas", round, n)
		}
		if st := led.Snapshot(); st.Pending != 0 || st.RepairQueue != 0 {
			t.Fatalf("round %d: %d slots pending, %d queued after repair and re-key", round, st.Pending, st.RepairQueue)
		}
	}
	if n := scheme.RelaxedCount(); n != 0 {
		t.Fatalf("%d placements fell back to relaxed on a fully populated grid", n)
	}
}
