package service_test

import (
	"encoding/json"
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
	if st, _ := svc2.LedgerStats("DC-9"); st.ActiveLeases != 0 || st.ReservedMillis != 0 {
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

// TestWarmRefreshAllocs pins the warm refresh's garbage to a constant: with
// telemetry arriving for every tenant, nobody drifting and all three files
// persisted, a refresh allocates a few hundred objects however many blocks it
// re-validates and writes out. Before the rings were drift-checked in place,
// blocks re-validated on the stack and the ledger files built in storage the
// shard keeps, it was two window copies per tenant and about four objects per
// block (144,700 at the benchmark's 36,000 blocks).
func TestWarmRefreshAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	var counts []uint64
	for _, blocks := range []int{2000, 8000} {
		l := newWarmRefreshLoad(t, 0.05, blocks, 0) // noiseless: a raised peak would add an FFT's objects
		for warmup := 0; warmup < 2; warmup++ {
			l.slots(t, 5)
			l.refresh(t)
		}
		l.slots(t, 5)
		n := mallocs(func() { l.refresh(t) })
		st, _ := l.svc.Stats("DC-9")
		if st.Blocks.Blocks != int64(blocks) || st.Recluster.Quiet != 0 || st.Recluster.Drifted != 0 || st.PersistErrors != 0 {
			t.Fatalf("%d blocks: not the refresh this test measures: %+v", blocks, st)
		}
		if n >= 1000 {
			t.Errorf("a warm refresh over %d blocks allocates %d objects, budget 1000", blocks, n)
		}
		t.Logf("%d blocks: %d objects", blocks, n)
		counts = append(counts, n)
	}
	if diff := int64(counts[1]) - int64(counts[0]); diff < -16 || diff > 16 {
		t.Errorf("warm refresh allocations scale with the block count: %v objects at 2,000 and 8,000 blocks", counts)
	}
}
