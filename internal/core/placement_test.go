package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"harvest/internal/tenant"
)

// gridInfos builds a synthetic tenant set spanning a wide range of reimage
// rates and peak utilizations, each with the given space and server count.
func gridInfos(numTenants, serversPerTenant int, bytesPerTenant int64) []TenantPlacementInfo {
	infos := make([]TenantPlacementInfo, numTenants)
	server := 0
	for i := range infos {
		servers := make([]tenant.ServerID, serversPerTenant)
		for s := range servers {
			servers[s] = tenant.ServerID(server)
			server++
		}
		infos[i] = TenantPlacementInfo{
			ID:             tenant.ID(i),
			Environment:    fmt.Sprintf("env-%d", i),
			ReimageRate:    float64(i%9) * 0.25,
			PeakCPU:        float64((i*7)%10) / 10,
			AvailableBytes: bytesPerTenant,
			Servers:        servers,
		}
	}
	return infos
}

func TestBuildPlacementSchemeErrors(t *testing.T) {
	if _, err := BuildPlacementScheme(nil); err == nil {
		t.Errorf("empty input should error")
	}
	infos := gridInfos(4, 1, 100)
	infos[1].ID = infos[0].ID
	if _, err := BuildPlacementScheme(infos); err == nil {
		t.Errorf("duplicate tenant should error")
	}
}

func TestBuildPlacementSchemeBalancesSpace(t *testing.T) {
	infos := gridInfos(90, 2, 1000)
	scheme, err := BuildPlacementScheme(infos)
	if err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	populated := 0
	for col := 0; col < PlacementGridSize; col++ {
		for row := 0; row < PlacementGridSize; row++ {
			cell := scheme.Cells[col][row]
			total += cell.AvailableBytes
			if len(cell.Tenants) > 0 {
				populated++
			}
		}
	}
	if total != 90*1000 {
		t.Fatalf("cells hold %d bytes, want %d", total, 90*1000)
	}
	if populated < 7 {
		t.Fatalf("expected most cells populated, got %d", populated)
	}
	if imb := scheme.SpaceImbalance(); imb > 3 {
		t.Fatalf("space imbalance %v too high for uniform tenants", imb)
	}
}

func TestBuildPlacementSchemeTenantMappedOnce(t *testing.T) {
	infos := gridInfos(50, 3, 500)
	scheme, err := BuildPlacementScheme(infos)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[tenant.ID]bool{}
	for col := 0; col < PlacementGridSize; col++ {
		for row := 0; row < PlacementGridSize; row++ {
			for _, tid := range scheme.Cells[col][row].Tenants {
				if seen[tid] {
					t.Fatalf("tenant %v appears in more than one cell", tid)
				}
				seen[tid] = true
				c, r, ok := scheme.CellOfTenant(tid)
				if !ok || c != col || r != row {
					t.Fatalf("CellOfTenant(%v) = (%d,%d,%v), want (%d,%d,true)", tid, c, r, ok, col, row)
				}
			}
		}
	}
	if len(seen) != 50 {
		t.Fatalf("cells cover %d tenants, want 50", len(seen))
	}
	// Server lookup.
	if tid, ok := scheme.TenantOfServer(infos[3].Servers[0]); !ok || tid != infos[3].ID {
		t.Fatalf("TenantOfServer mismatch")
	}
	if _, ok := scheme.TenantOfServer(tenant.ServerID(1 << 30)); ok {
		t.Fatalf("unknown server should not resolve")
	}
}

func TestPlaceReplicasBasicProperties(t *testing.T) {
	infos := gridInfos(60, 3, 1000)
	scheme, err := BuildPlacementScheme(infos)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	writer := infos[10].Servers[0]
	for trial := 0; trial < 200; trial++ {
		replicas, err := scheme.PlaceReplicas(rng, PlacementConstraints{
			Replication:        3,
			Writer:             writer,
			EnforceEnvironment: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(replicas) != 3 {
			t.Fatalf("placed %d replicas, want 3", len(replicas))
		}
		if replicas[0] != writer {
			t.Fatalf("first replica should be the writer's server")
		}
		// All replicas on distinct servers, tenants, environments, rows, cols.
		servers := map[tenant.ServerID]bool{}
		envs := map[string]bool{}
		rows := map[int]bool{}
		cols := map[int]bool{}
		for _, srv := range replicas {
			if servers[srv] {
				t.Fatalf("server %v received two replicas", srv)
			}
			servers[srv] = true
			tid, ok := scheme.TenantOfServer(srv)
			if !ok {
				t.Fatalf("replica on unknown server %v", srv)
			}
			env := infos[int(tid)].Environment
			if envs[env] {
				t.Fatalf("environment %q received two replicas", env)
			}
			envs[env] = true
			col, row, _ := scheme.CellOfTenant(tid)
			if rows[row] {
				t.Fatalf("row %d used twice within a round", row)
			}
			if cols[col] {
				t.Fatalf("column %d used twice within a round", col)
			}
			rows[row] = true
			cols[col] = true
		}
	}
}

func TestPlaceReplicasFourWayReplication(t *testing.T) {
	infos := gridInfos(60, 3, 1000)
	scheme, err := BuildPlacementScheme(infos)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	replicas, err := scheme.PlaceReplicas(rng, PlacementConstraints{
		Replication:        4,
		Writer:             infos[0].Servers[0],
		EnforceEnvironment: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(replicas) != 4 {
		t.Fatalf("placed %d replicas, want 4", len(replicas))
	}
	// Environments must still be unique even across rounds.
	envs := map[string]bool{}
	for _, srv := range replicas {
		tid, _ := scheme.TenantOfServer(srv)
		env := infos[int(tid)].Environment
		if envs[env] {
			t.Fatalf("environment %q received two replicas", env)
		}
		envs[env] = true
	}
}

// TestPlaceSlotConstrainsBySlotPosition pins what a repair is constrained
// against: the placed slots in the empty slot's own round of three positions,
// earlier or later, whatever the number of survivors — and every survivor's
// server and environment.
func TestPlaceSlotConstrainsBySlotPosition(t *testing.T) {
	infos := gridInfos(90, 2, 1000)
	scheme, err := BuildPlacementScheme(infos)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	c := PlacementConstraints{Replication: 5, Writer: -1, EnforceEnvironment: true}
	for trial := 0; trial < 200; trial++ {
		slots, err := scheme.PlaceReplicas(rng, c)
		if err != nil {
			t.Fatal(err)
		}
		hole := rng.Intn(len(slots))
		slots[hole] = NoServer
		got, err := scheme.PlaceSlot(rng, slots, hole, c)
		if err != nil {
			t.Fatal(err)
		}
		col, row, env, ok := scheme.ReplicaSite(got)
		if !ok {
			t.Fatalf("PlaceSlot picked server %d, unknown to the scheme", got)
		}
		for i, s := range slots {
			if i == hole {
				continue
			}
			if s == got {
				t.Fatalf("trial %d: slot %d repaired onto server %d, which holds slot %d", trial, hole, got, i)
			}
			c2, r2, e2, _ := scheme.ReplicaSite(s)
			if e2 == env {
				t.Fatalf("trial %d: slot %d repaired into environment %q of slot %d", trial, hole, env, i)
			}
			if i/PlacementGridSize == hole/PlacementGridSize && (c2 == col || r2 == row) {
				t.Fatalf("trial %d: slot %d repaired into cell (%d,%d), sharing a row or column with slot %d at (%d,%d)",
					trial, hole, col, row, i, c2, r2)
			}
		}
	}
	if n := scheme.RelaxedCount(); n != 0 {
		t.Fatalf("%d picks fell back to relaxed: the test population is too small to show anything", n)
	}
}

// TestPlaceAdditionalIsPlaceSlotAtTheEnd pins PlaceAdditional as PlaceSlot for
// the slots after a block's existing ones: the same draws, the same servers.
func TestPlaceAdditionalIsPlaceSlotAtTheEnd(t *testing.T) {
	scheme, err := BuildPlacementScheme(gridInfos(90, 2, 1000))
	if err != nil {
		t.Fatal(err)
	}
	c := PlacementConstraints{Writer: -1, EnforceEnvironment: true}
	for existing := 0; existing <= 5; existing++ {
		c.Replication = existing
		var slots []tenant.ServerID
		if existing > 0 {
			if slots, err = scheme.PlaceReplicas(rand.New(rand.NewSource(int64(existing))), c); err != nil {
				t.Fatal(err)
			}
		}
		more, err := scheme.PlaceAdditional(rand.New(rand.NewSource(99)), slots, 4, c)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(99))
		for i, want := range more {
			slots = append(slots, NoServer)
			got, err := scheme.PlaceSlot(rng, slots, existing+i, c)
			if err != nil || got != want {
				t.Fatalf("%d existing: PlaceSlot for slot %d = %d, %v; PlaceAdditional placed %d", existing, existing+i, got, err, want)
			}
			slots[existing+i] = got
		}
	}
}

func TestPlaceReplicasUnknownWriter(t *testing.T) {
	infos := gridInfos(30, 2, 1000)
	scheme, err := BuildPlacementScheme(infos)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	replicas, err := scheme.PlaceReplicas(rng, PlacementConstraints{
		Replication:        3,
		Writer:             -1,
		EnforceEnvironment: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(replicas) != 3 {
		t.Fatalf("placed %d replicas, want 3", len(replicas))
	}
}

func TestPlaceReplicasRespectsEligibility(t *testing.T) {
	infos := gridInfos(40, 2, 1000)
	scheme, err := BuildPlacementScheme(infos)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	// Exclude every even server; all replicas must land on odd servers.
	eligible := func(s tenant.ServerID) bool { return int(s)%2 == 1 }
	replicas, err := scheme.PlaceReplicas(rng, PlacementConstraints{
		Replication:        3,
		Writer:             infos[0].Servers[0], // even, hence ineligible
		ServerEligible:     eligible,
		EnforceEnvironment: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, srv := range replicas {
		if !eligible(srv) {
			t.Fatalf("replica placed on ineligible server %v", srv)
		}
	}
}

func TestPlaceReplicasErrorsWhenImpossible(t *testing.T) {
	infos := gridInfos(6, 1, 1000)
	scheme, err := BuildPlacementScheme(infos)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	if _, err := scheme.PlaceReplicas(rng, PlacementConstraints{Replication: 0}); err == nil {
		t.Errorf("zero replication should error")
	}
	// No eligible servers at all.
	_, err = scheme.PlaceReplicas(rng, PlacementConstraints{
		Replication:        2,
		Writer:             -1,
		ServerEligible:     func(tenant.ServerID) bool { return false },
		EnforceEnvironment: true,
	})
	if err == nil {
		t.Errorf("expected an error when no server is eligible")
	}
}

func TestPlaceReplicasSoftEnvironmentConstraint(t *testing.T) {
	// Two tenants sharing one environment, each its own server: with the
	// environment constraint enforced only 2 of 3 replicas can be placed
	// (2 tenants in one env + nothing else); relaxed, all 3 fit on distinct
	// servers if rows/columns allow.
	infos := []TenantPlacementInfo{
		{ID: 0, Environment: "shared", ReimageRate: 0.1, PeakCPU: 0.2, AvailableBytes: 100, Servers: []tenant.ServerID{0}},
		{ID: 1, Environment: "shared", ReimageRate: 0.9, PeakCPU: 0.8, AvailableBytes: 100, Servers: []tenant.ServerID{1}},
		{ID: 2, Environment: "other", ReimageRate: 0.5, PeakCPU: 0.5, AvailableBytes: 100, Servers: []tenant.ServerID{2}},
	}
	scheme, err := BuildPlacementScheme(infos)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	strict, errStrict := scheme.PlaceReplicas(rng, PlacementConstraints{
		Replication: 3, Writer: 0, EnforceEnvironment: true,
	})
	if errStrict == nil && len(strict) == 3 {
		// If it succeeded, environments must be distinct — impossible here.
		t.Fatalf("strict placement should not be able to place 3 replicas: %v", strict)
	}
	relaxed, errRelaxed := scheme.PlaceReplicas(rng, PlacementConstraints{
		Replication: 3, Writer: 0, EnforceEnvironment: false,
	})
	if errRelaxed != nil {
		t.Fatalf("relaxed placement should succeed: %v", errRelaxed)
	}
	if len(relaxed) != 3 {
		t.Fatalf("relaxed placement placed %d replicas, want 3", len(relaxed))
	}
}

func TestPlaceReplicasNeverDuplicatesServerProperty(t *testing.T) {
	infos := gridInfos(45, 2, 1000)
	scheme, err := BuildPlacementScheme(infos)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64, repRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		replication := int(repRaw)%5 + 1
		replicas, err := scheme.PlaceReplicas(rng, PlacementConstraints{
			Replication:        replication,
			Writer:             infos[int(seed%45+44)%45].Servers[0],
			EnforceEnvironment: true,
		})
		if err != nil {
			// Running out of eligible tenants for very high replication with
			// strict constraints is acceptable; duplicates are not.
			return true
		}
		seen := map[tenant.ServerID]bool{}
		for _, srv := range replicas {
			if seen[srv] {
				return false
			}
			seen[srv] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSpaceImbalanceEmptyCells(t *testing.T) {
	// With only two tenants, most cells are empty, so imbalance reports 0
	// (no meaningful min).
	infos := gridInfos(2, 1, 100)
	scheme, err := BuildPlacementScheme(infos)
	if err != nil {
		t.Fatal(err)
	}
	if imb := scheme.SpaceImbalance(); imb != 0 {
		t.Fatalf("imbalance with empty cells should be 0, got %v", imb)
	}
}
