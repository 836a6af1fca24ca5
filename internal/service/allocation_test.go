package service_test

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"harvest/internal/core"
	"harvest/internal/fleettest"
	"harvest/internal/ledger"
	"harvest/internal/service"
)

// checkBooks asserts the exact conservation invariant over a shard's ledger:
// reserved == released + expired + forfeited + outstanding, in millicores.
func checkBooks(t *testing.T, svc *service.Service, dc string) ledger.Stats {
	t.Helper()
	st, ok := ledgerStats(svc, dc)
	if !ok {
		t.Fatalf("no ledger stats for %s", dc)
	}
	if st.ReservedMillis != st.ReleasedMillis+st.ExpiredMillis+st.ForfeitedMillis+st.OutstandingMillis {
		t.Fatalf("books out of balance: reserved %d != released %d + expired %d + forfeited %d + outstanding %d",
			st.ReservedMillis, st.ReleasedMillis, st.ExpiredMillis, st.ForfeitedMillis, st.OutstandingMillis)
	}
	return st
}

func TestSelectReserveAndRelease(t *testing.T) {
	svc := newTestService(t)

	job := core.JobRequest{Type: core.JobMedium, MaxConcurrentCores: 8}
	grant, snap, err := svc.SelectReserve("DC-9", job, -1) // no expiry
	if err != nil {
		t.Fatalf("SelectReserve: %v", err)
	}
	if !grant.Reserved() || grant.Selection.Empty() {
		t.Fatalf("grant = %+v, want a reserved lease", grant)
	}
	var granted float64
	for _, g := range grant.Granted {
		granted += g
	}
	if math.Abs(granted-8) > 0.001 {
		t.Fatalf("granted %v cores, want ~8", granted)
	}
	st := checkBooks(t, svc, "DC-9")
	if st.OutstandingMillis != 8000 {
		t.Fatalf("outstanding = %d millis, want 8000", st.OutstandingMillis)
	}

	// The reservation is visible to the advisory path: the same class's
	// headroom shrank by the grant.
	usage := svc.UsageFor(snap)
	cls := snap.Clustering.Class(grant.Selection.Classes[0])
	u := usage[cls.ID]
	u.AllocatedCores = 0
	if a, _ := ledgerStats(svc, "DC-9"); true {
		got := ledger.CoresOf(a.AllocatedMillisByClass[int(cls.ID)])
		if math.Abs(got-grant.Granted[0]) > 0.001 {
			t.Errorf("class %d ledger occupancy = %v, want %v", cls.ID, got, grant.Granted[0])
		}
	}

	rel, err := svc.Release("DC-9", grant.Lease)
	if err != nil {
		t.Fatalf("Release: %v", err)
	}
	if rel.TotalMillis() != 8000 {
		t.Errorf("released %d millis, want 8000", rel.TotalMillis())
	}
	if _, err := svc.Release("DC-9", grant.Lease); err == nil {
		t.Error("double release succeeded")
	}
	st = checkBooks(t, svc, "DC-9")
	if st.OutstandingMillis != 0 {
		t.Errorf("outstanding after release = %d, want 0", st.OutstandingMillis)
	}
}

// TestRepeatedSelectsStopOverPromising is the regression the tentpole
// exists for: before the ledger, every select re-promised the same spare
// capacity; now repeated selects deplete it and eventually report
// unsatisfiable until releases return the cores. The heated row ingests a
// burst above the history first: the selects must then drain the capacity at
// the live utilization, no less, since that is the one bound both selection
// and admission run against.
func TestRepeatedSelectsStopOverPromising(t *testing.T) {
	for _, tc := range []struct {
		name string
		heat float64 // utilization every tenant reports before the selects; 0 ingests nothing
	}{
		{"as built", 0},
		{"heated", 0.55},
	} {
		t.Run(tc.name, func(t *testing.T) {
			svc := newTestService(t)
			snap, _ := svc.Snapshot("DC-9")
			if tc.heat > 0 {
				var burst []service.IngestSample
				for _, cls := range snap.Clustering.Classes {
					for _, tid := range cls.Tenants {
						burst = append(burst, service.IngestSample{Tenant: tid, Server: -1, Value: tc.heat})
					}
				}
				if res, err := svc.Ingest("DC-9", burst); err != nil || res.Accepted != len(burst) {
					t.Fatalf("Ingest: %+v, %v", res, err)
				}
			}

			// The total medium-job capacity of the datacenter at the live view.
			usage := svc.UsageFor(snap)
			var totalCap, builtCap float64
			for _, cls := range snap.Clustering.Classes {
				totalCap += snap.CapacityCores(core.JobMedium, cls.ID, usage[cls.ID])
				builtCap += snap.CapacityCores(core.JobMedium, cls.ID, snap.Usage[cls.ID])
			}
			if tc.heat > 0 && !(totalCap > 64 && totalCap < builtCap) {
				t.Fatalf("live capacity %v against %v as built: the burst must shrink it and leave room for a job", totalCap, builtCap)
			}

			job := core.JobRequest{Type: core.JobMedium, MaxConcurrentCores: 64}
			var leases []uint64
			var reserved float64
			for i := 0; ; i++ {
				grant, _, err := svc.SelectReserve("DC-9", job, -1)
				if err != nil {
					t.Fatalf("SelectReserve %d: %v", i, err)
				}
				if !grant.Reserved() {
					break // depleted — exactly what must happen
				}
				leases = append(leases, grant.Lease)
				for _, g := range grant.Granted {
					reserved += g
				}
				if reserved > totalCap+0.001 {
					t.Fatalf("reserved %v cores past the %v capacity bound", reserved, totalCap)
				}
				if i > 100000 {
					t.Fatal("selects never became unsatisfiable")
				}
			}
			if len(leases) == 0 {
				t.Fatalf("no select ever succeeded against %v cores of capacity", totalCap)
			}
			// Headroom must be essentially gone: less than one more 64-core job.
			if totalCap-reserved >= 64 {
				t.Fatalf("selects stopped with %v of %v cores still free", totalCap-reserved, totalCap)
			}
			st := checkBooks(t, svc, "DC-9")
			if got := ledger.CoresOf(st.OutstandingMillis); math.Abs(got-reserved) > 0.001 {
				t.Fatalf("outstanding %v != granted %v", got, reserved)
			}
			// Releasing everything restores the headroom.
			for _, id := range leases {
				if _, err := svc.Release("DC-9", id); err != nil {
					t.Fatalf("Release: %v", err)
				}
			}
			st = checkBooks(t, svc, "DC-9")
			if st.OutstandingMillis != 0 {
				t.Fatalf("outstanding after full release = %d", st.OutstandingMillis)
			}
			if grant, _, err := svc.SelectReserve("DC-9", job, -1); err != nil || !grant.Reserved() {
				t.Fatalf("select after release unsatisfiable: %+v, %v", grant, err)
			}
		})
	}
}

// TestConcurrentSelectReserveNeverOverPromises is the PR's acceptance test:
// N goroutines hammer reserving selects against classes with bounded
// headroom — first against a fixed snapshot (the per-class bound must hold
// exactly), then with snapshot refreshes re-keying the ledger mid-flight
// (totals must be conserved and the books must balance).
func TestConcurrentSelectReserveNeverOverPromises(t *testing.T) {
	svc := newTestService(t)
	snap, _ := svc.Snapshot("DC-9")
	usage := svc.UsageFor(snap)

	capacity := make(map[core.ClassID]float64, len(snap.Clustering.Classes))
	var totalCap float64
	for _, cls := range snap.Clustering.Classes {
		capacity[cls.ID] = snap.CapacityCores(core.JobMedium, cls.ID, usage[cls.ID])
		totalCap += capacity[cls.ID]
	}

	// Phase 1: fixed snapshot, 8 goroutines grabbing 16-core mediums until
	// the datacenter is dry.
	const workers = 8
	job := core.JobRequest{Type: core.JobMedium, MaxConcurrentCores: 16}
	var wg sync.WaitGroup
	var granted atomic.Int64 // millicores
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				grant, _, err := svc.SelectReserve("DC-9", job, -1)
				if err != nil {
					t.Errorf("SelectReserve: %v", err)
					return
				}
				if !grant.Reserved() {
					return
				}
				for _, g := range grant.Granted {
					granted.Add(ledger.ToMillis(g))
				}
			}
		}()
	}
	wg.Wait()
	st := checkBooks(t, svc, "DC-9")
	if st.OutstandingMillis != granted.Load() {
		t.Fatalf("outstanding %d != granted %d", st.OutstandingMillis, granted.Load())
	}
	// The hard bound: no class may hold more than its capacity — jointly,
	// across every concurrent select.
	for _, cls := range snap.Clustering.Classes {
		got := ledger.CoresOf(st.AllocatedMillisByClass[int(cls.ID)])
		if got > capacity[cls.ID]+1e-9 {
			t.Errorf("class %d jointly over-promised: %v reserved > %v capacity", cls.ID, got, capacity[cls.ID])
		}
	}
	if remaining := totalCap - ledger.CoresOf(st.OutstandingMillis); remaining >= 16*float64(len(snap.Clustering.Classes)) {
		t.Errorf("workers stopped with %v cores still free", remaining)
	}

	// Phase 2: keep hammering selects and releases while refreshes re-key
	// the ledger underneath. Totals are conserved across every re-key and
	// the books balance at the end.
	outstandingBefore := st.OutstandingMillis
	var stop atomic.Bool
	var refreshErr error
	refreshDone := make(chan struct{})
	go func() {
		defer close(refreshDone)
		defer stop.Store(true)
		for i := 0; i < 3; i++ {
			if refreshErr = svc.Refresh("DC-9"); refreshErr != nil {
				return
			}
		}
	}()
	smallJob := core.JobRequest{Type: core.JobShort, MaxConcurrentCores: 1}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []uint64
			for !stop.Load() {
				grant, _, err := svc.SelectReserve("DC-9", smallJob, -1)
				if err != nil {
					t.Errorf("phase-2 SelectReserve: %v", err)
					return
				}
				if grant.Reserved() {
					mine = append(mine, grant.Lease)
				}
				if len(mine) > 4 {
					if _, err := svc.Release("DC-9", mine[0]); err != nil {
						t.Errorf("phase-2 Release: %v", err)
						return
					}
					mine = mine[1:]
				}
			}
			for _, id := range mine {
				if _, err := svc.Release("DC-9", id); err != nil {
					t.Errorf("phase-2 drain Release: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	<-refreshDone
	if refreshErr != nil {
		t.Fatalf("refresh: %v", refreshErr)
	}
	st = checkBooks(t, svc, "DC-9")
	// Phase 1's leases were never released: their total must have survived
	// all three re-keys exactly (same tenants, nothing evicted, so no
	// forfeits either).
	if st.ForfeitedMillis != 0 {
		t.Errorf("forfeited %d millis with no eviction", st.ForfeitedMillis)
	}
	if st.OutstandingMillis != outstandingBefore {
		t.Errorf("outstanding changed across re-keys: %d -> %d", outstandingBefore, st.OutstandingMillis)
	}
	final, _ := svc.Snapshot("DC-9")
	ls, _ := ledgerStats(svc, "DC-9")
	if ls.Generation != final.Generation {
		t.Errorf("ledger generation %d != snapshot generation %d", ls.Generation, final.Generation)
	}
}

// TestSelectReserveSubMillicoreDemand pins the rounding edge: a demand
// below the ledger's fixed point must round up to one millicore, not floor
// to an empty reservation (which would surface as a server error).
func TestSelectReserveSubMillicoreDemand(t *testing.T) {
	svc := newTestService(t)
	grant, _, err := svc.SelectReserve("DC-9", core.JobRequest{Type: core.JobLong, MaxConcurrentCores: 0.0004}, -1)
	if err != nil {
		t.Fatalf("SelectReserve: %v", err)
	}
	if !grant.Reserved() {
		t.Fatalf("sub-millicore select unsatisfiable: %+v", grant)
	}
	st := checkBooks(t, svc, "DC-9")
	if st.OutstandingMillis != 1 {
		t.Errorf("outstanding = %d millis, want 1", st.OutstandingMillis)
	}
	if _, err := svc.Release("DC-9", grant.Lease); err != nil {
		t.Fatal(err)
	}
}

func TestLeaseExpirySweep(t *testing.T) {
	// The sweeper runs every 10 s at the default TTL; the clock is stepped.
	clk := fleettest.NewClock()
	cfg := testConfig()
	cfg.Clock = clk
	svc, err := service.New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	svc.Start()
	defer svc.Close()
	job := core.JobRequest{Type: core.JobMedium, MaxConcurrentCores: 4}
	grant, _, err := svc.SelectReserve("DC-9", job, 15*time.Second)
	if err != nil || !grant.Reserved() {
		t.Fatalf("SelectReserve: %+v, %v", grant, err)
	}
	if !grant.ExpiresAt.Equal(clk.Now().Add(15 * time.Second)) {
		t.Fatalf("lease expires at %v, want 15 s after %v", grant.ExpiresAt, clk.Now())
	}
	// Not expired at the first sweep.
	clk.Advance(10 * time.Second)
	if st := checkBooks(t, svc, "DC-9"); st.ActiveLeases != 1 || st.ExpiredMillis != 0 {
		t.Fatalf("swept before the deadline: %+v", st)
	}
	clk.Advance(10 * time.Second)
	if _, err := svc.Release("DC-9", grant.Lease); err == nil {
		t.Error("released an expired lease")
	}
	st := checkBooks(t, svc, "DC-9")
	if st.ExpiredMillis != 4000 || st.OutstandingMillis != 0 {
		t.Errorf("expired/outstanding = %d/%d, want 4000/0", st.ExpiredMillis, st.OutstandingMillis)
	}
}

// TestSelectReserveHTTP exercises the full HTTP loop: select reserves and
// returns a lease, classes shows the occupancy, release returns the cores,
// and a second release 404s.
func TestSelectReserveHTTP(t *testing.T) {
	svc := newTestService(t)
	srv := httptest.NewServer(service.NewAPI(svc))
	defer srv.Close()

	resp, body := postJSON(t, srv.URL+"/v1/DC-9/select", `{"job_type":"medium","max_concurrent_cores":6,"hold_seconds":300}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("select status = %d, body %s", resp.StatusCode, body)
	}
	var sel struct {
		Satisfiable      bool      `json:"satisfiable"`
		Classes          []int     `json:"classes"`
		Lease            uint64    `json:"lease"`
		Granted          []float64 `json:"granted"`
		ExpiresInSeconds float64   `json:"expires_in_seconds"`
	}
	decode(t, body, &sel)
	if !sel.Satisfiable || sel.Lease == 0 || len(sel.Granted) != len(sel.Classes) {
		t.Fatalf("select response = %+v, want a lease", sel)
	}
	if sel.ExpiresInSeconds <= 0 || sel.ExpiresInSeconds > 300 {
		t.Errorf("expires_in_seconds = %v, want (0, 300]", sel.ExpiresInSeconds)
	}
	var granted float64
	for _, g := range sel.Granted {
		granted += g
	}
	if math.Abs(granted-6) > 0.001 {
		t.Errorf("granted %v, want ~6", granted)
	}

	// The classes endpoint reports the occupancy.
	_, body = get(t, srv.URL+"/v1/DC-9/classes")
	var classes struct {
		Classes []struct {
			ID             int     `json:"id"`
			AllocatedCores float64 `json:"allocated_cores"`
		} `json:"classes"`
	}
	decode(t, body, &classes)
	var shown float64
	for _, c := range classes.Classes {
		shown += c.AllocatedCores
	}
	if math.Abs(shown-6) > 0.001 {
		t.Errorf("classes endpoint shows %v allocated cores, want ~6", shown)
	}

	// A dry-run select sees the shrunken headroom but reserves nothing.
	resp, body = postJSON(t, srv.URL+"/v1/DC-9/select", `{"job_type":"medium","max_concurrent_cores":6,"dry_run":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dry-run status = %d", resp.StatusCode)
	}
	var dry struct {
		Lease uint64 `json:"lease"`
	}
	decode(t, body, &dry)
	if dry.Lease != 0 {
		t.Errorf("dry-run returned lease %d", dry.Lease)
	}

	// Release.
	resp, body = postJSON(t, srv.URL+"/v1/DC-9/release", fmt.Sprintf(`{"lease":%d}`, sel.Lease))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("release status = %d, body %s", resp.StatusCode, body)
	}
	var rel struct {
		ReleasedCores float64   `json:"released_cores"`
		Classes       []int     `json:"classes"`
		Cores         []float64 `json:"cores"`
	}
	decode(t, body, &rel)
	if math.Abs(rel.ReleasedCores-6) > 0.001 || len(rel.Classes) == 0 || len(rel.Classes) != len(rel.Cores) {
		t.Errorf("release response = %+v, want ~6 cores", rel)
	}
	if resp, _ := postJSON(t, srv.URL+"/v1/DC-9/release", fmt.Sprintf(`{"lease":%d}`, sel.Lease)); resp.StatusCode != http.StatusNotFound {
		t.Errorf("double release status = %d, want 404", resp.StatusCode)
	}
	if resp, _ := postJSON(t, srv.URL+"/v1/DC-9/release", `{"lease":0}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("lease=0 release status = %d, want 400", resp.StatusCode)
	}
	if resp, _ := postJSON(t, srv.URL+"/v1/DC-99/release", `{"lease":1}`); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown DC release status = %d, want 404", resp.StatusCode)
	}
	if resp, _ := postJSON(t, srv.URL+"/v1/DC-9/select", `{"job_type":"short","max_concurrent_cores":1,"hold_seconds":1e9}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("absurd hold_seconds status = %d, want 400", resp.StatusCode)
	}
	checkBooks(t, svc, "DC-9")

	// The metrics endpoint carries the books, in exact millis.
	_, body = get(t, srv.URL+"/metrics")
	var m struct {
		Datacenters map[string]struct {
			Ledger struct {
				ReservedMillis    int64  `json:"reserved_millis"`
				ReleasedMillis    int64  `json:"released_millis"`
				ExpiredMillis     int64  `json:"expired_millis"`
				ForfeitedMillis   int64  `json:"forfeited_millis"`
				OutstandingMillis int64  `json:"outstanding_millis"`
				Reserves          uint64 `json:"reserves"`
			} `json:"ledger"`
		} `json:"datacenters"`
	}
	decode(t, body, &m)
	led := m.Datacenters["DC-9"].Ledger
	if led.Reserves == 0 {
		t.Error("metrics report no reserves")
	}
	if led.ReservedMillis != led.ReleasedMillis+led.ExpiredMillis+led.ForfeitedMillis+led.OutstandingMillis {
		t.Errorf("metrics books out of balance: %+v", led)
	}
}

// TestLedgerPersistence pins the restart story: leases persisted at Close
// are restored with the snapshot, survive with their grants, and expired
// ones are reclaimed on the way in.
func TestLedgerPersistence(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.PersistDir = dir

	svc, err := service.New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	keep, _, err := svc.SelectReserve("DC-9", core.JobRequest{Type: core.JobMedium, MaxConcurrentCores: 5}, -1)
	if err != nil || !keep.Reserved() {
		t.Fatalf("SelectReserve: %+v, %v", keep, err)
	}
	doomed, _, err := svc.SelectReserve("DC-9", core.JobRequest{Type: core.JobShort, MaxConcurrentCores: 2}, time.Millisecond)
	if err != nil || !doomed.Reserved() {
		t.Fatalf("SelectReserve: %+v, %v", doomed, err)
	}
	before := checkBooks(t, svc, "DC-9")
	svc.Close() // persists the ledger next to the snapshot

	time.Sleep(5 * time.Millisecond) // let the doomed lease pass its deadline

	svc2, err := service.New(cfg)
	if err != nil {
		t.Fatalf("restart New: %v", err)
	}
	st := checkBooks(t, svc2, "DC-9")
	if st.ReservedMillis != before.ReservedMillis {
		t.Errorf("reserved counter lost across restart: %d -> %d", before.ReservedMillis, st.ReservedMillis)
	}
	if st.OutstandingMillis != 5000 {
		t.Errorf("outstanding after restart = %d, want 5000 (doomed lease must have expired)", st.OutstandingMillis)
	}
	if st.ExpiredMillis != 2000 {
		t.Errorf("expired after restart = %d, want 2000", st.ExpiredMillis)
	}
	// The surviving lease is releasable, and refreshes keep re-keying it.
	if err := svc2.Refresh("DC-9"); err != nil {
		t.Fatalf("Refresh: %v", err)
	}
	rel, err := svc2.Release("DC-9", keep.Lease)
	if err != nil || rel.TotalMillis() != 5000 {
		t.Fatalf("post-restart release: %+v, %v", rel, err)
	}
	checkBooks(t, svc2, "DC-9")

	// A restart with a different population fingerprint starts an empty
	// ledger (the snapshot is discarded too, so leases would be meaningless).
	svc2.Close()
	cfg3 := cfg
	cfg3.Scale.Seed = 99
	svc3, err := service.New(cfg3)
	if err != nil {
		t.Fatalf("mismatched New: %v", err)
	}
	if st, _ := ledgerStats(svc3, "DC-9"); st.ReservedMillis != 0 || st.ActiveLeases != 0 {
		t.Errorf("mismatched-seed restart inherited ledger state: %+v", st)
	}
}

// TestReserveBenchmarkPathAllocFree guards the advisory hot path: reading
// ledger-adjusted usage must not add allocations to Select.
func TestReserveBenchmarkPathAllocFree(t *testing.T) {
	svc := newTestService(t)
	// Hold some cores so the ledger overlay is actually exercised.
	if grant, _, err := svc.SelectReserve("DC-9", core.JobRequest{Type: core.JobMedium, MaxConcurrentCores: 8}, -1); err != nil || !grant.Reserved() {
		t.Fatalf("SelectReserve: %+v, %v", grant, err)
	}
	job := core.JobRequest{Type: core.JobMedium, MaxConcurrentCores: 4}
	svc.Select("DC-9", job) // warm the usage view cache
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, err := svc.Select("DC-9", job); err != nil {
			t.Fatal(err)
		}
	})
	// The selection itself allocates its result slices (5 allocs at the
	// seed); the ledger overlay must add zero on top.
	if allocs > 5 {
		t.Errorf("Select allocates %v/op, want <= 5 (ledger overlay must be allocation-free)", allocs)
	}
}
