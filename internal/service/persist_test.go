package service_test

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"harvest/internal/core"
	"harvest/internal/service"
)

// newPersistedService builds a service over dir and returns it after one
// refresh, so dir holds a generation-2 snapshot (and ledger) file.
func newPersistedService(t *testing.T, dir string) (*service.Service, service.Config) {
	t.Helper()
	cfg := testConfig()
	cfg.PersistDir = dir
	svc, err := service.New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := svc.Refresh("DC-9"); err != nil {
		t.Fatalf("Refresh: %v", err)
	}
	return svc, cfg
}

// bootGeneration builds a fresh service over cfg and reports DC-9's boot
// generation plus whether it still answers queries — the "clean full build"
// contract every restore failure must fall back to.
func bootGeneration(t *testing.T, cfg service.Config) uint64 {
	t.Helper()
	svc, err := service.New(cfg)
	if err != nil {
		t.Fatalf("New after restore problem: %v", err)
	}
	snap, ok := svc.Snapshot("DC-9")
	if !ok {
		t.Fatal("no snapshot after restore problem")
	}
	if sel, _, err := svc.Select("DC-9", core.JobRequest{Type: core.JobMedium, MaxConcurrentCores: 2}); err != nil || sel.Empty() {
		t.Fatalf("service not queryable after restore problem: %v %+v", err, sel)
	}
	return snap.Generation
}

func TestRestoreTruncatedSnapshotFile(t *testing.T) {
	dir := t.TempDir()
	svc, cfg := newPersistedService(t, dir)
	svc.Close()
	path := filepath.Join(dir, "DC-9.snapshot.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Chop the file mid-JSON — the torn-write case the atomic rename is
	// supposed to prevent, simulated anyway (e.g. a truncating copy tool).
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if gen := bootGeneration(t, cfg); gen != 1 {
		t.Errorf("generation after truncated file = %d, want 1 (clean full build)", gen)
	}
}

func TestRestoreCorruptLedgerFile(t *testing.T) {
	dir := t.TempDir()
	svc, cfg := newPersistedService(t, dir)
	if grant, _, err := svc.SelectReserve("DC-9", core.JobRequest{Type: core.JobMedium, MaxConcurrentCores: 4}, -1); err != nil || !grant.Reserved() {
		t.Fatalf("SelectReserve: %+v, %v", grant, err)
	}
	svc.Close()
	// Corrupt only the ledger: the snapshot must still restore, with an
	// empty ledger.
	if err := os.WriteFile(filepath.Join(dir, "DC-9.ledger.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	svc2, err := service.New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	snap, _ := svc2.Snapshot("DC-9")
	if snap.Generation != 2 {
		t.Errorf("snapshot generation = %d, want 2 (snapshot restore unaffected)", snap.Generation)
	}
	if st, _ := ledgerStats(svc2, "DC-9"); st.ActiveLeases != 0 || st.ReservedMillis != 0 {
		t.Errorf("corrupt ledger file was trusted: %+v", st)
	}
}

func TestRestoreFingerprintMismatch(t *testing.T) {
	dir := t.TempDir()
	svc, cfg := newPersistedService(t, dir)
	svc.Close()
	// A different datacenter scale regenerates a different population: the
	// persisted clustering is meaningless over it and must be discarded.
	cfg2 := cfg
	cfg2.Scale.Datacenter = cfg.Scale.Datacenter * 2
	if gen := bootGeneration(t, cfg2); gen != 1 {
		t.Errorf("generation after scale change = %d, want 1", gen)
	}
}

func TestRestoreMissingDirectory(t *testing.T) {
	cfg := testConfig()
	cfg.PersistDir = filepath.Join(t.TempDir(), "never", "created")
	if gen := bootGeneration(t, cfg); gen != 1 {
		t.Errorf("generation with missing persist dir = %d, want 1", gen)
	}
	// And persisting into it creates the directory on the fly.
	svc, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Refresh("DC-9"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(cfg.PersistDir, "DC-9.snapshot.json")); err != nil {
		t.Errorf("refresh did not create the persist dir: %v", err)
	}
	st, _ := svc.Stats("DC-9")
	if st.PersistErrors != 0 {
		t.Errorf("persist errors = %d, want 0", st.PersistErrors)
	}
}

// mutatePersisted rewrites one field of the persisted snapshot JSON.
func mutatePersisted(t *testing.T, dir string, mutate func(m map[string]any)) {
	t.Helper()
	path := filepath.Join(dir, "DC-9.snapshot.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	mutate(m)
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestRestoreRejectsBadContents(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(m map[string]any)
	}{
		{"future version", func(m map[string]any) { m["version"] = 999 }},
		{"wrong datacenter", func(m map[string]any) { m["datacenter"] = "DC-3" }},
		{"no classes", func(m map[string]any) { m["classes"] = []any{} }},
		{"tenant count mismatch", func(m map[string]any) { m["num_tenants"] = 1 }},
		{"unknown tenant", func(m map[string]any) {
			cls := m["classes"].([]any)[0].(map[string]any)
			cls["tenants"] = append(cls["tenants"].([]any), float64(99999999))
		}},
		{"bad pattern", func(m map[string]any) {
			cls := m["classes"].([]any)[0].(map[string]any)
			cls["pattern"] = 17
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			svc, cfg := newPersistedService(t, dir)
			svc.Close()
			mutatePersisted(t, dir, tc.mutate)
			if gen := bootGeneration(t, cfg); gen != 1 {
				t.Errorf("generation = %d, want 1 (file must be rejected)", gen)
			}
		})
	}
}

// TestRestoredProfilesMatchTheRings: a restarted daemon's tenants are
// classified from the windows its rings hold, as a fresh boot's are, so the
// first warm refresh after a restore — with no telemetry since — finds no
// tenant drifted. Profiles of the generated month instead of the rings'
// three days made nine of 21 tenants drift and four change pattern.
func TestRestoredProfilesMatchTheRings(t *testing.T) {
	for _, slots := range []int{0, 2160} {
		t.Run(fmt.Sprintf("ring slots %d", slots), func(t *testing.T) {
			cfg := testConfig()
			cfg.PersistDir = t.TempDir()
			cfg.RingSlots = slots
			cfg.FullRebuildEvery = -1
			svc, err := service.New(cfg)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			boot, _ := svc.Snapshot("DC-9")
			svc.Close()
			svc, err = service.New(cfg)
			if err != nil {
				t.Fatalf("New over the persisted state: %v", err)
			}
			defer svc.Close()
			if snap, _ := svc.Snapshot("DC-9"); !snap.BuiltAt.Equal(boot.BuiltAt) {
				t.Fatalf("restart built a snapshot at %v instead of restoring the one built at %v", snap.BuiltAt, boot.BuiltAt)
			}
			if err := svc.Refresh("DC-9"); err != nil {
				t.Fatalf("Refresh: %v", err)
			}
			st, _ := svc.Stats("DC-9")
			if r := st.Recluster; r.FullRebuild || r.Tenants == 0 || r.Drifted != 0 || r.PatternChanged != 0 {
				t.Fatalf("first warm refresh after a restore: %+v", r)
			}
		})
	}
}

// TestWarmRefreshAllocs pins the warm refresh's garbage to a constant: with
// telemetry arriving for every tenant and all three files persisted, a
// refresh in which nobody drifted allocates at most warmRefreshBudget objects
// however many blocks it re-validates and writes out and however many
// tenants and classes it re-clusters, and the same bytes however many
// tenants drifted. The re-clustering, the K-Means passes, the class records
// and the lease re-key run in storage the shard keeps, and a class nothing
// moved in is the previous generation's own. Before that it was 286 objects
// at scale 0.3 and 155 at 0.05; before the rings were drift-checked in place,
// blocks re-validated on the stack and the ledger files built in storage the
// shard keeps, it was two window copies per tenant and about four objects
// per block (144,700 at the benchmark's 36,000 blocks); before a
// classification borrowed its spectrum, each drifted tenant added 86 kB.
func TestWarmRefreshAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const warmRefreshBudget = 80
	measure := func(scale float64, blocks int) uint64 {
		l := newWarmRefreshLoad(t, scale, blocks, 0) // noiseless: nobody drifts
		for warmup := 0; warmup < 2; warmup++ {
			l.slots(t, 5)
			l.refresh(t)
		}
		// The least of three refreshes is compared across states: a GC between
		// two refreshes empties encoding/json's pool of encoders, which the next
		// one's file headers refill. Every one of them is held to the budget.
		least := uint64(math.MaxUint64)
		for round := 0; round < 3; round++ {
			l.slots(t, 5)
			n, bytes := allocated(func() { l.refresh(t) })
			st, _ := l.svc.Stats("DC-9")
			if st.Blocks.Blocks != int64(blocks) || st.Recluster.Quiet != 0 || st.Recluster.Drifted != 0 || st.PersistErrors != 0 {
				t.Fatalf("scale %v, %d blocks: not the refresh this test measures: %+v", scale, blocks, st)
			}
			if n > warmRefreshBudget {
				t.Errorf("a warm refresh at scale %v over %d blocks allocates %d objects, budget %d", scale, blocks, n, warmRefreshBudget)
			}
			t.Logf("scale %v, %d tenants in %d classes, %d blocks: %d objects, %d B", scale, st.Tenants, st.Classes, blocks, n, bytes)
			least = min(least, n)
		}
		return least
	}
	small, large, larger := measure(0.05, 2000), measure(0.3, 2000), measure(0.3, 8000)
	if diff := int64(larger) - int64(large); diff < -16 || diff > 16 {
		t.Errorf("warm refresh allocations scale with the block count: %d objects at 2,000 and %d at 8,000 blocks", large, larger)
	}
	if diff := int64(large) - int64(small); diff < -8 || diff > 8 {
		t.Errorf("warm refresh allocations scale with the tenant and class count: %d objects at scale 0.05, %d at 0.3", small, large)
	}

	// With the benchmark harness's noise, at its population, a raised peak
	// drifts a tenant every few refreshes, and the tenant is classified again.
	// A refresh measures ≈4 kB with or without one; the budget is under what
	// a single drifted tenant's own spectrum added on top.
	const noisyBudget = 128 << 10
	l := newWarmRefreshLoad(t, 0.3, 2000, 0.02)
	for warmup := 0; warmup < 2; warmup++ {
		l.slots(t, 5)
		l.refresh(t)
	}
	drifted := 0
	for round := 0; round < 12; round++ {
		l.slots(t, 5)
		n, bytes := allocated(func() { l.refresh(t) })
		st, _ := l.svc.Stats("DC-9")
		if st.Recluster.FullRebuild || st.PersistErrors != 0 {
			t.Fatalf("noisy refresh %d: not the refresh this test measures: %+v", round, st)
		}
		if bytes > noisyBudget {
			t.Errorf("noisy refresh %d: %d drifted, %d B allocated, budget %d", round, st.Recluster.Drifted, bytes, noisyBudget)
		}
		t.Logf("noisy refresh %d: %d drifted, %d objects, %d B", round, st.Recluster.Drifted, n, bytes)
		drifted += st.Recluster.Drifted
	}
	if drifted == 0 {
		t.Fatal("no tenant drifted in 12 noisy refreshes")
	}
}

// TestUsageViewRebuildAllocs pins what a select pays when telemetry has moved
// since the live usage view was built: one view, its usage map and its select
// index, at any tenant and class count. Before the index kept its six lists
// in one array it was about 20 objects.
func TestUsageViewRebuildAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const rebuildBudget = 8
	for _, scale := range []float64{0.05, 0.3} {
		l := newWarmRefreshLoad(t, scale, 0, 0.02)
		l.slots(t, 1)
		l.refresh(t)
		l.svc.LiveSelectIndex("DC-9")
		l.slots(t, 1)
		rebuilt, _ := allocated(func() { l.svc.LiveSelectIndex("DC-9") })
		cached, _ := allocated(func() { l.svc.LiveSelectIndex("DC-9") })
		st, _ := l.svc.Stats("DC-9")
		if rebuilt > rebuildBudget || cached != 0 {
			t.Errorf("scale %v, %d classes: a view rebuild allocates %d objects, budget %d; a cached view %d, want 0", scale, st.Classes, rebuilt, rebuildBudget, cached)
		}
		t.Logf("scale %v, %d classes: %d objects", scale, st.Classes, rebuilt)
	}
}
