package hdfssim

import (
	"testing"
	"time"

	"harvest/internal/cluster"
	"harvest/internal/tenant"
	"harvest/internal/timeseries"
	"harvest/internal/trace"
)

// buildTestCluster generates a scaled-down DC-9 cluster for tests.
func buildTestCluster(t *testing.T, seed int64, scale float64) (*cluster.Cluster, *trace.Generator) {
	t.Helper()
	profile, ok := trace.ProfileByName("DC-9")
	if !ok {
		t.Fatal("DC-9 profile missing")
	}
	gen := trace.NewGenerator(profile.Scaled(scale), seed)
	pop, err := gen.Generate()
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(pop, tenant.DefaultServerResources(), tenant.DefaultReserve())
	if err != nil {
		t.Fatal(err)
	}
	return cl, gen
}

func TestNewValidation(t *testing.T) {
	cl, _ := buildTestCluster(t, 1, 0.05)
	if _, err := New(nil, DefaultConfig(PolicyStock)); err == nil {
		t.Errorf("nil cluster should error")
	}
	cfg := DefaultConfig(PolicyStock)
	cfg.Replication = 0
	if _, err := New(cl, cfg); err == nil {
		t.Errorf("zero replication should error")
	}
	cfg = DefaultConfig(PolicyStock)
	cfg.BusyThreshold = 0
	if _, err := New(cl, cfg); err == nil {
		t.Errorf("zero busy threshold should error")
	}
	if _, err := New(cl, DefaultConfig(PolicyHistory)); err != nil {
		t.Errorf("history policy should build its placement scheme: %v", err)
	}
}

func TestPolicyString(t *testing.T) {
	if PolicyStock.String() != "HDFS-Stock" || PolicyPT.String() != "HDFS-PT" || PolicyHistory.String() != "HDFS-H" {
		t.Errorf("unexpected policy strings")
	}
	if Policy(9).String() == "" {
		t.Errorf("unknown policy should have a string")
	}
}

func TestCreateBlockDistinctServers(t *testing.T) {
	cl, _ := buildTestCluster(t, 2, 0.05)
	for _, policy := range []Policy{PolicyStock, PolicyPT, PolicyHistory} {
		fs, err := New(cl, DefaultConfig(policy))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			writer := cl.ServerList()[i%cl.NumServers()].ID
			b, err := fs.CreateBlock(writer, 0)
			if err != nil {
				t.Fatalf("%v: %v", policy, err)
			}
			reps := fs.Replicas(b)
			if len(reps) != 3 {
				t.Fatalf("%v: %d replicas, want 3", policy, len(reps))
			}
			seen := map[tenant.ServerID]bool{}
			for _, s := range reps {
				if seen[s] {
					t.Fatalf("%v: duplicate replica server", policy)
				}
				seen[s] = true
			}
		}
		if fs.NumBlocks() != 50 {
			t.Fatalf("NumBlocks = %d", fs.NumBlocks())
		}
	}
}

func TestHistoryPlacementSpansEnvironments(t *testing.T) {
	cl, _ := buildTestCluster(t, 3, 0.05)
	fs, err := New(cl, DefaultConfig(PolicyHistory))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		writer := cl.ServerList()[(i*7)%cl.NumServers()].ID
		b, err := fs.CreateBlock(writer, 0)
		if err != nil {
			t.Fatal(err)
		}
		envs := map[string]bool{}
		for _, s := range fs.Replicas(b) {
			env := cl.Server(s).Tenant.Environment
			if envs[env] {
				t.Fatalf("block %d has two replicas in environment %q", b, env)
			}
			envs[env] = true
		}
	}
}

func TestReplicasOutOfRange(t *testing.T) {
	cl, _ := buildTestCluster(t, 4, 0.05)
	fs, err := New(cl, DefaultConfig(PolicyStock))
	if err != nil {
		t.Fatal(err)
	}
	if fs.Replicas(-1) != nil || fs.Replicas(0) != nil {
		t.Fatalf("out-of-range blocks should have no replicas")
	}
}

func TestAccessSemantics(t *testing.T) {
	// Build a tiny cluster by hand: one always-busy tenant, one idle tenant.
	busy := &tenant.Tenant{
		ID: 0, Environment: "busy", Servers: []tenant.ServerID{0, 1},
		Utilization:               timeseries.New(timeseries.SlotDuration, []float64{0.95, 0.95}),
		ReimagesPerServerMonth:    0.5,
		HarvestableBytesPerServer: 1 << 40,
	}
	idle := &tenant.Tenant{
		ID: 1, Environment: "idle", Servers: []tenant.ServerID{2, 3},
		Utilization:               timeseries.New(timeseries.SlotDuration, []float64{0.05, 0.05}),
		ReimagesPerServerMonth:    0.1,
		HarvestableBytesPerServer: 1 << 40,
	}
	pop, err := tenant.NewPopulation("DC-T", []*tenant.Tenant{busy, idle})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(pop, tenant.DefaultServerResources(), tenant.DefaultReserve())
	if err != nil {
		t.Fatal(err)
	}
	fs, err := New(cl, DefaultConfig(PolicyPT))
	if err != nil {
		t.Fatal(err)
	}
	// Force a block whose replicas are only on the busy tenant's servers.
	fs.replicas = append(fs.replicas, []tenant.ServerID{0, 1})
	if fs.Access(0, 0) {
		t.Fatalf("access should fail when all replicas are busy")
	}
	if !fs.AllReplicasBusy(0, 0) {
		t.Fatalf("AllReplicasBusy should be true")
	}
	// A block with one replica on the idle tenant succeeds.
	fs.replicas = append(fs.replicas, []tenant.ServerID{0, 2})
	if !fs.Access(1, 0) {
		t.Fatalf("access should succeed via the idle replica")
	}
	// Stock never denies.
	fsStock, err := New(cl, DefaultConfig(PolicyStock))
	if err != nil {
		t.Fatal(err)
	}
	fsStock.replicas = append(fsStock.replicas, []tenant.ServerID{0, 1})
	if !fsStock.Access(0, 0) {
		t.Fatalf("stock access should not be denied")
	}
	// A block with no replicas fails everywhere.
	fsStock.replicas = append(fsStock.replicas, nil)
	if fsStock.Access(1, 0) {
		t.Fatalf("a lost block cannot be accessed")
	}
}

func TestPTPlacementAvoidsBusyServers(t *testing.T) {
	busy := &tenant.Tenant{
		ID: 0, Environment: "busy", Servers: []tenant.ServerID{0, 1, 2},
		Utilization:               timeseries.New(timeseries.SlotDuration, []float64{0.95}),
		HarvestableBytesPerServer: 1 << 40,
	}
	idle := &tenant.Tenant{
		ID: 1, Environment: "idle", Servers: []tenant.ServerID{3, 4, 5, 6},
		Utilization:               timeseries.New(timeseries.SlotDuration, []float64{0.05}),
		HarvestableBytesPerServer: 1 << 40,
	}
	pop, err := tenant.NewPopulation("DC-T", []*tenant.Tenant{busy, idle})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(pop, tenant.DefaultServerResources(), tenant.DefaultReserve())
	if err != nil {
		t.Fatal(err)
	}
	fs, err := New(cl, DefaultConfig(PolicyPT))
	if err != nil {
		t.Fatal(err)
	}
	b, err := fs.CreateBlock(-1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range fs.Replicas(b) {
		if cl.Server(s).Tenant.ID == 0 {
			t.Fatalf("PT placement chose a busy server %v", s)
		}
	}
}

func TestSimulateDurabilityHistoryBeatsStock(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping durability comparison in -short mode")
	}
	horizon := 365 * 24 * time.Hour
	// DC-3 is the datacenter with the highest reimaging rates in the
	// characterization, which is where durability differences show up most.
	profile, ok := trace.ProfileByName("DC-3")
	if !ok {
		t.Fatal("DC-3 profile missing")
	}
	run := func(policy Policy, replication int) *DurabilityResult {
		gen := trace.NewGenerator(profile.Scaled(0.1), 7)
		pop, err := gen.Generate()
		if err != nil {
			t.Fatal(err)
		}
		cl, err := cluster.New(pop, tenant.DefaultServerResources(), tenant.DefaultReserve())
		if err != nil {
			t.Fatal(err)
		}
		events := gen.GenerateReimageEvents(cl.Population, horizon)
		cfg := DefaultConfig(policy)
		cfg.Replication = replication
		cfg.Seed = 99
		fs, err := New(cl, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := fs.SimulateDurability(30000, events, horizon)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	stock3 := run(PolicyStock, 3)
	hist3 := run(PolicyHistory, 3)
	t.Logf("stock R=3: lost=%d/%d events=%d", stock3.LostBlocks, stock3.Blocks, stock3.ReimageEvents)
	t.Logf("hist  R=3: lost=%d/%d events=%d", hist3.LostBlocks, hist3.Blocks, hist3.ReimageEvents)
	if stock3.LostBlocks == 0 {
		t.Fatalf("stock placement should lose blocks under a year of correlated reimages")
	}
	if hist3.LostBlocks >= stock3.LostBlocks {
		t.Fatalf("history placement (%d lost) should beat stock (%d lost)", hist3.LostBlocks, stock3.LostBlocks)
	}
	// Four-way replication loses no more than three-way.
	hist4 := run(PolicyHistory, 4)
	if hist4.LostBlocks > hist3.LostBlocks {
		t.Fatalf("R=4 (%d lost) should not lose more than R=3 (%d lost)", hist4.LostBlocks, hist3.LostBlocks)
	}
}

func TestSimulateDurabilityValidation(t *testing.T) {
	cl, _ := buildTestCluster(t, 8, 0.03)
	fs, err := New(cl, DefaultConfig(PolicyStock))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.SimulateDurability(0, nil, time.Hour); err == nil {
		t.Errorf("zero blocks should error")
	}
	// No events means no losses.
	res, err := fs.SimulateDurability(100, nil, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if res.LostBlocks != 0 || res.LostFraction != 0 {
		t.Fatalf("no reimages should mean no losses, got %+v", res)
	}
}

func TestSimulateAvailabilityHistoryBeatsStock(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping availability comparison in -short mode")
	}
	run := func(policy Policy, target float64) *AvailabilityResult {
		cl, _ := buildTestCluster(t, 9, 0.08)
		cl.ScaleUtilization(target, timeseries.ScaleLinear)
		cfg := DefaultConfig(policy)
		cfg.Seed = 42
		fs, err := New(cl, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := fs.SimulateAvailability(2000, 20000, 30*24*time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	stock := run(PolicyStock, 0.55)
	hist := run(PolicyHistory, 0.55)
	t.Logf("stock: failed=%v hist: failed=%v", stock.FailedFraction, hist.FailedFraction)
	if hist.FailedFraction > stock.FailedFraction {
		t.Fatalf("history placement (%v) should not fail more accesses than stock (%v)",
			hist.FailedFraction, stock.FailedFraction)
	}
}

func TestSimulateAvailabilityValidation(t *testing.T) {
	cl, _ := buildTestCluster(t, 10, 0.03)
	fs, err := New(cl, DefaultConfig(PolicyPT))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.SimulateAvailability(0, 10, time.Hour); err == nil {
		t.Errorf("zero blocks should error")
	}
	if _, err := fs.SimulateAvailability(10, 0, time.Hour); err == nil {
		t.Errorf("zero accesses should error")
	}
	res, err := fs.SimulateAvailability(50, 500, 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedFraction < 0 || res.FailedFraction > 1 {
		t.Fatalf("failed fraction out of range: %v", res.FailedFraction)
	}
	if res.MeanUtilization <= 0 {
		t.Fatalf("mean utilization should be positive")
	}
}

func TestSpaceAccountingLimitsPlacement(t *testing.T) {
	// Tiny disks: each server can hold only two blocks.
	small := &tenant.Tenant{
		ID: 0, Environment: "a", Servers: []tenant.ServerID{0, 1, 2},
		Utilization:               timeseries.New(timeseries.SlotDuration, []float64{0.1}),
		HarvestableBytesPerServer: 2 * BlockSizeBytes,
	}
	other := &tenant.Tenant{
		ID: 1, Environment: "b", Servers: []tenant.ServerID{3, 4, 5},
		Utilization:               timeseries.New(timeseries.SlotDuration, []float64{0.1}),
		HarvestableBytesPerServer: 2 * BlockSizeBytes,
	}
	pop, err := tenant.NewPopulation("DC-T", []*tenant.Tenant{small, other})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(pop, tenant.DefaultServerResources(), tenant.DefaultReserve())
	if err != nil {
		t.Fatal(err)
	}
	fs, err := New(cl, DefaultConfig(PolicyStock))
	if err != nil {
		t.Fatal(err)
	}
	// 6 servers * 2 blocks = 12 replica slots = at most 4 blocks at R=3; the
	// random spread may strand one slot, so 3 is also acceptable.
	placed := 0
	for i := 0; i < 10; i++ {
		if _, err := fs.CreateBlock(-1, 0); err != nil {
			break
		}
		placed++
	}
	if placed < 3 || placed > 4 {
		t.Fatalf("placed %d blocks, want 3 or 4 given the disk capacity", placed)
	}
}

// BenchmarkPlaceReplicasStock measures the stock/PT HDFS placement path
// (random spread with rack awareness) through CreateBlock.
func BenchmarkPlaceReplicasStock(b *testing.B) {
	profile, ok := trace.ProfileByName("DC-9")
	if !ok {
		b.Fatal("DC-9 profile missing")
	}
	gen := trace.NewGenerator(profile.Scaled(0.05), 1)
	pop, err := gen.Generate()
	if err != nil {
		b.Fatal(err)
	}
	// Effectively infinite disks so placement never runs out of space.
	for _, t := range pop.Tenants {
		t.HarvestableBytesPerServer = 1 << 60
	}
	cl, err := cluster.New(pop, tenant.DefaultServerResources(), tenant.DefaultReserve())
	if err != nil {
		b.Fatal(err)
	}
	fs, err := New(cl, DefaultConfig(PolicyStock))
	if err != nil {
		b.Fatal(err)
	}
	writer := cl.ServerList()[0].ID
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fs.CreateBlock(writer, 0); err != nil {
			b.Fatal(err)
		}
	}
}
