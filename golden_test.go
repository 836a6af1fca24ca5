// Golden determinism tests: the event engine and the replica samplers must
// produce byte-identical outputs for fixed seeds, run after run and build
// after build. The hex digests below are the golden baseline of the
// zero-allocation implementations (PR 1): the engine preserves the seed
// implementation's exact event ordering, while the samplers draw the same
// uniform distributions but consume the rand stream differently than the
// seed's rng.Perm (a partial Fisher–Yates stops early, by design), so their
// seeded outputs are pinned fresh here rather than inherited. Any change to
// event ordering or to how the samplers consume randomness shows up as a
// digest mismatch and must be an explicit, reviewed decision.
package harvest_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"harvest/internal/cluster"
	"harvest/internal/core"
	"harvest/internal/hdfssim"
	"harvest/internal/simulator"
	"harvest/internal/tenant"
	"harvest/internal/trace"
)

// engineTraceDigest schedules a seeded pseudo-random event workload —
// including events that schedule further events, the yarnsim shape — and
// digests the exact execution order (event id, execution time).
func engineTraceDigest(seed int64) string {
	e := simulator.New()
	rng := rand.New(rand.NewSource(seed))
	h := sha256.New()
	var buf [16]byte
	record := func(id uint64, now time.Duration) {
		binary.LittleEndian.PutUint64(buf[:8], id)
		binary.LittleEndian.PutUint64(buf[8:], uint64(now))
		h.Write(buf[:])
	}
	id := uint64(0)
	for i := 0; i < 400; i++ {
		id++
		evID := id
		at := time.Duration(rng.Intn(5000)) * time.Millisecond
		_ = e.Schedule(at, func(now time.Duration) {
			record(evID, now)
		})
		// A quarter of the events spawn a follow-up, like container
		// completions scheduling the next scheduling pass.
		if i%4 == 0 {
			id++
			childID := id
			_ = e.Schedule(at, func(now time.Duration) {
				e.ScheduleAfter(time.Duration(childID%7)*time.Second, func(done time.Duration) {
					record(childID, done)
				})
			})
		}
	}
	e.Every(time.Second, 10*time.Second, func(now time.Duration) bool {
		record(1<<32|uint64(now/time.Second), now)
		return true
	})
	e.RunAll()
	return hex.EncodeToString(h.Sum(nil))
}

func TestGoldenEngineEventOrdering(t *testing.T) {
	const want = "f697ab4985fa0b253d56fec5aa0af3a2d6ef2f6f9d86db662cd0e8a753cb1699"
	first := engineTraceDigest(7)
	second := engineTraceDigest(7)
	if first != second {
		t.Fatalf("engine is not deterministic: %s vs %s", first, second)
	}
	if first != want {
		t.Fatalf("engine event ordering changed: got %s, want %s", first, want)
	}
}

// placementDigest builds a scaled DC-9 cluster and digests the replica lists
// of 200 blocks placed under the given policy with a fixed seed.
func placementDigest(t *testing.T, policy hdfssim.Policy) string {
	t.Helper()
	profile, ok := trace.ProfileByName("DC-9")
	if !ok {
		t.Fatal("DC-9 profile missing")
	}
	gen := trace.NewGenerator(profile.Scaled(0.05), 11)
	pop, err := gen.Generate()
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(pop, tenant.DefaultServerResources(), tenant.DefaultReserve())
	if err != nil {
		t.Fatal(err)
	}
	cfg := hdfssim.DefaultConfig(policy)
	cfg.Seed = 23
	if policy == hdfssim.PolicyPT {
		// A low busy threshold makes the PT busy-server exclusion actually
		// bite at the sampled times, so this digest pins that path too and
		// cannot collapse into the Stock digest.
		cfg.BusyThreshold = 0.3
	}
	fs, err := hdfssim.New(cl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var buf [8]byte
	for i := 0; i < 200; i++ {
		writer := cl.ServerList()[(i*13)%cl.NumServers()].ID
		b, err := fs.CreateBlock(writer, time.Duration(i)*time.Minute)
		if err != nil {
			t.Fatalf("%v: block %d: %v", policy, i, err)
		}
		for _, s := range fs.Replicas(b) {
			binary.LittleEndian.PutUint64(buf[:], uint64(s))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestGoldenReplicaPlacements(t *testing.T) {
	want := map[hdfssim.Policy]string{
		hdfssim.PolicyStock:   "bd0997320b82b2931b1fac46d25752d65c8db80ec221c53cc2b2e9ffdae0cc6e",
		hdfssim.PolicyPT:      "5c05f4b1f44ee88a74d78a9c39235035e56f62c5281c8181c4e6d8d8977cbefd",
		hdfssim.PolicyHistory: "437b91459c042989b8ecc118d3cfc47c7c8240b46c7b02e3f63c64ede4f1c645",
	}
	for _, policy := range []hdfssim.Policy{hdfssim.PolicyStock, hdfssim.PolicyPT, hdfssim.PolicyHistory} {
		first := placementDigest(t, policy)
		second := placementDigest(t, policy)
		if first != second {
			t.Fatalf("%v placement is not deterministic: %s vs %s", policy, first, second)
		}
		if first != want[policy] {
			t.Errorf("%v placement changed: got %s, want %s", policy, first, want[policy])
		}
	}
}

// buildSyntheticScheme builds a synthetic 60-tenant scheme spanning all nine
// cells, the shape BuildPlacementScheme produces from the real traces.
func buildSyntheticScheme(t *testing.T) (*core.PlacementScheme, []core.TenantPlacementInfo) {
	t.Helper()
	infos := make([]core.TenantPlacementInfo, 60)
	server := 0
	for i := range infos {
		servers := make([]tenant.ServerID, 3)
		for s := range servers {
			servers[s] = tenant.ServerID(server)
			server++
		}
		infos[i] = core.TenantPlacementInfo{
			ID:             tenant.ID(i),
			Environment:    fmt.Sprintf("env-%d", i),
			ReimageRate:    float64(i%9) * 0.25,
			PeakCPU:        float64((i*7)%10) / 10,
			AvailableBytes: 1000,
			Servers:        servers,
		}
	}
	scheme, err := core.BuildPlacementScheme(infos)
	if err != nil {
		t.Fatal(err)
	}
	return scheme, infos
}

// schemeDigest digests 500 Algorithm 2 placements on the synthetic
// 60-tenant scheme, exercising the partial-Fisher–Yates sampler directly.
func schemeDigest(t *testing.T, seed int64) string {
	t.Helper()
	scheme, infos := buildSyntheticScheme(t)
	rng := rand.New(rand.NewSource(seed))
	h := sha256.New()
	var buf [8]byte
	for i := 0; i < 500; i++ {
		replicas, err := scheme.PlaceReplicas(rng, core.PlacementConstraints{
			Replication:        3,
			Writer:             infos[i%60].Servers[0],
			EnforceEnvironment: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range replicas {
			binary.LittleEndian.PutUint64(buf[:], uint64(s))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestGoldenPlacementScheme(t *testing.T) {
	const want = "fef14fad0189914fe688906bedb554b3e8d571812b7693f18bb454fb570fd984"
	first := schemeDigest(t, 31)
	second := schemeDigest(t, 31)
	if first != second {
		t.Fatalf("scheme placement is not deterministic: %s vs %s", first, second)
	}
	if first != want {
		t.Fatalf("scheme placement changed: got %s, want %s", first, want)
	}
}

// classificationDigest generates a datacenter's population at the given scale
// (seed 1), runs the full §4.1 pipeline over it and digests what the FFT
// decided — each tenant's (ID, Pattern, DominantFrequency) — and what K-Means
// made of it — each class's (ID, Pattern, len(Servers)).
func classificationDigest(t *testing.T, dc string, scale float64) string {
	t.Helper()
	profile, ok := trace.ProfileByName(dc)
	if !ok {
		t.Fatalf("%s profile missing", dc)
	}
	pop, err := trace.NewGenerator(profile.Scaled(scale), 1).Generate()
	if err != nil {
		t.Fatal(err)
	}
	clustering, err := core.NewClusteringService(core.DefaultClusteringConfig()).Cluster(pop)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var buf [24]byte
	record := func(a, b, c int) {
		binary.LittleEndian.PutUint64(buf[:8], uint64(a))
		binary.LittleEndian.PutUint64(buf[8:16], uint64(b))
		binary.LittleEndian.PutUint64(buf[16:], uint64(c))
		h.Write(buf[:])
	}
	for _, tn := range pop.Tenants {
		record(int(tn.ID), int(tn.Profile.Pattern), tn.Profile.DominantFrequency)
	}
	for _, cls := range clustering.Classes {
		record(int(cls.ID), int(cls.Pattern), len(cls.Servers))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenClassification pins the characterization the transform kernel
// feeds: a change to internal/signalproc that moves one tenant's pattern or
// dominant bin, or one server between classes, shows up here.
func TestGoldenClassification(t *testing.T) {
	want := map[string]string{
		"DC-1@0.05": "ef4bcb30e401420d8f420126786dbd427f9897d51ca3e777c29a0db974a9d30d",
		"DC-1@0.3":  "a34857d4b9fd5eee966c82b34b92192eaf691bac181c1bdab517f0fe30c87b34",
		"DC-4@0.05": "fac3aff5a8c4267c55d8fa174e4f13045386d6e41d4475167265ff5854c78b20",
		"DC-4@0.3":  "df900549f23814029bac1f81ba13e7ce3217d199cc4d226d18188e52493cbf37",
		"DC-9@0.05": "19b2e51415b06bae195bdbbe326758629965754f4b55b1ea0f079bdafab0dc3d",
		"DC-9@0.3":  "f3f8aa99770ece35957938be1872a33b361e3e13ac2527241ec5d454380314c1",
	}
	for _, dc := range []string{"DC-1", "DC-4", "DC-9"} {
		for _, scale := range []float64{0.05, 0.3} {
			key := fmt.Sprintf("%s@%g", dc, scale)
			if got := classificationDigest(t, dc, scale); got != want[key] {
				t.Errorf("%s classification changed: got %s, want %s", key, got, want[key])
			}
		}
	}
}
