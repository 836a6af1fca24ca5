package yarnsim

import (
	"math/rand"
	"testing"
	"time"

	"harvest/internal/cluster"
	"harvest/internal/core"
	"harvest/internal/tenant"
	"harvest/internal/timeseries"
	"harvest/internal/trace"
	"harvest/internal/workload"
)

// flatSeries builds a constant utilization trace.
func flatSeries(level float64) *timeseries.Series {
	values := make([]float64, 1440)
	for i := range values {
		values[i] = level
	}
	return timeseries.New(timeseries.SlotDuration, values)
}

// burstySeries builds a trace that idles then spikes to the given level.
func burstySeries(idle, spike float64, spikeEvery int) *timeseries.Series {
	values := make([]float64, 1440)
	for i := range values {
		if spikeEvery > 0 && (i/spikeEvery)%2 == 1 {
			values[i] = spike
		} else {
			values[i] = idle
		}
	}
	return timeseries.New(timeseries.SlotDuration, values)
}

// testCluster builds a small cluster of two tenants: a calm one and a bursty
// one, ten servers each.
func testCluster(t *testing.T) (*cluster.Cluster, *tenant.Population) {
	t.Helper()
	calm := &tenant.Tenant{
		ID: 0, Environment: "calm", Servers: serverIDs(0, 10), Utilization: flatSeries(0.2),
	}
	bursty := &tenant.Tenant{
		ID: 1, Environment: "bursty", Servers: serverIDs(10, 10), Utilization: burstySeries(0.1, 0.95, 4),
	}
	pop, err := tenant.NewPopulation("DC-T", []*tenant.Tenant{calm, bursty})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(pop, tenant.DefaultServerResources(), tenant.DefaultReserve())
	if err != nil {
		t.Fatal(err)
	}
	return cl, pop
}

func serverIDs(lo, n int) []tenant.ServerID {
	out := make([]tenant.ServerID, n)
	for i := range out {
		out[i] = tenant.ServerID(lo + i)
	}
	return out
}

// smallJobs builds a simple workload of identical two-stage jobs.
func smallJobs(n int, gap time.Duration, taskDur time.Duration) []*workload.Job {
	var jobs []*workload.Job
	for i := 0; i < n; i++ {
		dag := &workload.DAG{
			Name: "small",
			Stages: []*workload.Stage{
				{Name: "map", Tasks: 8, TaskDuration: taskDur},
				{Name: "reduce", Tasks: 2, TaskDuration: taskDur, Deps: []int{0}},
			},
		}
		jobs = append(jobs, &workload.Job{
			ID: i, Name: "small", DAG: dag, Arrive: time.Duration(i) * gap,
			LastRunDuration: 2 * taskDur, CoresPerTask: 1, MemoryMBPerTask: 1024,
		})
	}
	return jobs
}

func TestNewSimulationValidation(t *testing.T) {
	cl, _ := testCluster(t)
	jobs := smallJobs(1, time.Minute, 30*time.Second)
	if _, err := NewSimulation(nil, jobs, DefaultConfig(PolicyPT)); err == nil {
		t.Errorf("nil cluster should error")
	}
	cfg := DefaultConfig(PolicyPT)
	cfg.HeartbeatInterval = 0
	if _, err := NewSimulation(cl, jobs, cfg); err == nil {
		t.Errorf("zero heartbeat should error")
	}
	if _, err := NewSimulation(cl, jobs, DefaultConfig(PolicyHistory)); err == nil {
		t.Errorf("history policy without selector should error")
	}
	bad := smallJobs(1, time.Minute, 30*time.Second)
	bad[0].DAG = &workload.DAG{Name: "empty"}
	if _, err := NewSimulation(cl, bad, DefaultConfig(PolicyPT)); err == nil {
		t.Errorf("invalid job DAG should error")
	}
}

func TestPolicyString(t *testing.T) {
	if PolicyStock.String() != "YARN-Stock" || PolicyPT.String() != "YARN-PT" ||
		PolicyHistory.String() != "YARN-H/Tez-H" {
		t.Errorf("unexpected policy names")
	}
	if Policy(9).String() == "" {
		t.Errorf("unknown policy should still have a string")
	}
}

func TestStockCompletesJobs(t *testing.T) {
	cl, _ := testCluster(t)
	jobs := smallJobs(5, 2*time.Minute, 30*time.Second)
	sim, err := NewSimulation(cl, jobs, DefaultConfig(PolicyStock))
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run(2 * time.Hour)
	if res.CompletedJobs != 5 {
		t.Fatalf("completed %d jobs, want 5", res.CompletedJobs)
	}
	if res.TasksKilled != 0 {
		t.Fatalf("stock YARN never kills containers, got %d kills", res.TasksKilled)
	}
	if res.AvgJobRuntime <= 0 {
		t.Fatalf("average runtime should be positive")
	}
	for _, j := range res.Jobs {
		if !j.Completed {
			t.Fatalf("job %d incomplete", j.JobID)
		}
		if j.Finish < j.Start || j.Start < j.Arrive {
			t.Fatalf("job %d has inconsistent timeline: %+v", j.JobID, j)
		}
	}
}

func TestPTKillsContainersUnderBursts(t *testing.T) {
	cl, _ := testCluster(t)
	// Saturate the cluster so containers must land on the bursty servers too.
	jobs := smallJobs(40, 20*time.Second, 2*time.Minute)
	cfg := DefaultConfig(PolicyPT)
	cfg.HeartbeatInterval = 30 * time.Second
	sim, err := NewSimulation(cl, jobs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run(4 * time.Hour)
	if res.TasksKilled == 0 {
		t.Fatalf("expected kills when the bursty primary spikes")
	}
	if res.CompletedJobs == 0 {
		t.Fatalf("some jobs should still complete")
	}
}

func TestPTRespectsPrimaryAndReserve(t *testing.T) {
	cl, _ := testCluster(t)
	jobs := smallJobs(40, 20*time.Second, 2*time.Minute)
	cfg := DefaultConfig(PolicyPT)
	cfg.HeartbeatInterval = 30 * time.Second
	violated := false
	cfg.Observer = func(now time.Duration, srv *cluster.Server, secondaryCores int) {
		// After a heartbeat's enforcement, allocations must fit under
		// capacity - primary - reserve (primary cores rounded up).
		budget := srv.Resources.Cores - srv.PrimaryCores(now) - srv.Reserve.Cores
		if budget < 0 {
			budget = 0
		}
		if secondaryCores > budget {
			violated = true
		}
	}
	sim, err := NewSimulation(cl, jobs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(2 * time.Hour)
	if violated {
		t.Fatalf("secondary allocations exceeded the harvested budget after enforcement")
	}
}

func TestHistoryPolicyUsesCalmServersForLongJobs(t *testing.T) {
	cl, pop := testCluster(t)
	svc := core.NewClusteringService(core.DefaultClusteringConfig())
	clustering, err := svc.Cluster(pop)
	if err != nil {
		t.Fatal(err)
	}
	selector, err := core.NewSelector(core.DefaultSelectorConfig(), clustering, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	// One long job (last run far above the long threshold).
	dag := &workload.DAG{
		Name: "long",
		Stages: []*workload.Stage{
			{Name: "work", Tasks: 20, TaskDuration: 5 * time.Minute},
		},
	}
	jobs := []*workload.Job{{
		ID: 0, Name: "long", DAG: dag, Arrive: 0,
		LastRunDuration: 20 * time.Minute, CoresPerTask: 1, MemoryMBPerTask: 1024,
	}}
	cfg := DefaultConfig(PolicyHistory)
	cfg.Selector = selector
	cfg.Clustering = clustering
	calmOnly := true
	cfg.Observer = func(now time.Duration, srv *cluster.Server, secondaryCores int) {
		if secondaryCores > 0 && srv.Tenant.ID != 0 {
			calmOnly = false
		}
	}
	sim, err := NewSimulation(cl, jobs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run(3 * time.Hour)
	if res.CompletedJobs != 1 {
		t.Fatalf("long job should complete, got %d", res.CompletedJobs)
	}
	if !calmOnly {
		t.Fatalf("long job containers should stay on the calm (constant, low-peak) tenant's servers")
	}
}

func TestHistoryImprovesOnPTUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping loaded YARN-H vs YARN-PT comparison in -short mode")
	}
	profile, ok := trace.ProfileByName("DC-9")
	if !ok {
		t.Fatal("missing DC-9")
	}
	pop, err := trace.NewGenerator(profile.Scaled(0.05), 17).Generate()
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(pop, tenant.DefaultServerResources(), tenant.DefaultReserve())
	if err != nil {
		t.Fatal(err)
	}
	cl.ScaleUtilization(0.45, timeseries.ScaleLinear)
	cat, err := workload.TPCDSLikeCatalogue(rand.New(rand.NewSource(2)), workload.CatalogueConfig{NumQueries: 20})
	if err != nil {
		t.Fatal(err)
	}
	arrCfg := workload.DefaultArrivalConfig(3 * time.Hour)
	arrCfg.MeanInterArrival = 45 * time.Second
	arrCfg.DurationScale = 4
	jobs, err := cat.GenerateArrivals(rand.New(rand.NewSource(3)), arrCfg)
	if err != nil {
		t.Fatal(err)
	}

	run := func(policy Policy) *Result {
		cfg := DefaultConfig(policy)
		cfg.HeartbeatInterval = time.Minute
		cfg.Seed = 11
		if policy == PolicyHistory {
			svc := core.NewClusteringService(core.DefaultClusteringConfig())
			clustering, err := svc.Cluster(pop)
			if err != nil {
				t.Fatal(err)
			}
			selector, err := core.NewSelector(core.DefaultSelectorConfig(), clustering, rand.New(rand.NewSource(4)))
			if err != nil {
				t.Fatal(err)
			}
			cfg.Selector = selector
			cfg.Clustering = clustering
			// Calibrate the short/long cut-offs to the workload and the
			// per-pattern capacity, as the paper does for its testbed (§6.1).
			var lastRuns []time.Duration
			for _, j := range jobs {
				lastRuns = append(lastRuns, j.LastRunDuration)
			}
			cfg.Thresholds = core.CalibrateThresholds(lastRuns,
				core.CapacityByPattern(clustering, core.DefaultSelectorConfig()))
		}
		sim, err := NewSimulation(cl, cloneJobs(jobs), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sim.Run(5 * time.Hour)
	}

	pt := run(PolicyPT)
	hist := run(PolicyHistory)
	t.Logf("PT: completed=%d avgRuntime=%v kills=%d", pt.CompletedJobs, pt.AvgJobRuntime, pt.TasksKilled)
	t.Logf("H:  completed=%d avgRuntime=%v kills=%d", hist.CompletedJobs, hist.AvgJobRuntime, hist.TasksKilled)
	if pt.CompletedJobs == 0 || hist.CompletedJobs == 0 {
		t.Fatalf("both policies should complete some jobs (pt=%d hist=%d)", pt.CompletedJobs, hist.CompletedJobs)
	}
	// The headline mechanism (§4.1, Fig 13): history-based scheduling avoids
	// servers likely to reclaim resources, so it kills fewer tasks than
	// YARN-PT under the same load while staying competitive on throughput and
	// runtime. The full runtime benefit appears with long tasks (exercised by
	// the Figure 13/14 experiments); this small-cluster test asserts the
	// robust part of the claim.
	if hist.TasksKilled >= pt.TasksKilled {
		t.Fatalf("YARN-H should kill fewer tasks than YARN-PT (H=%d, PT=%d)",
			hist.TasksKilled, pt.TasksKilled)
	}
	if hist.CompletedJobs*4 < pt.CompletedJobs*3 {
		t.Fatalf("YARN-H completed %d jobs, substantially fewer than YARN-PT's %d",
			hist.CompletedJobs, pt.CompletedJobs)
	}
	if float64(hist.AvgJobRuntime) > float64(pt.AvgJobRuntime)*1.5 {
		t.Fatalf("YARN-H average runtime %v should stay within 1.5x of YARN-PT %v",
			hist.AvgJobRuntime, pt.AvgJobRuntime)
	}
}

func cloneJobs(jobs []*workload.Job) []*workload.Job {
	out := make([]*workload.Job, len(jobs))
	for i, j := range jobs {
		cp := *j
		out[i] = &cp
	}
	return out
}

func TestUtilizationAccounting(t *testing.T) {
	cl, _ := testCluster(t)
	jobs := smallJobs(10, time.Minute, time.Minute)
	cfg := DefaultConfig(PolicyPT)
	sim, err := NewSimulation(cl, jobs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run(time.Hour)
	if res.AvgPrimaryUtilization <= 0 || res.AvgPrimaryUtilization > 1 {
		t.Fatalf("primary utilization out of range: %v", res.AvgPrimaryUtilization)
	}
	if res.AvgClusterCPUUtilization < res.AvgPrimaryUtilization {
		t.Fatalf("total utilization (%v) should be at least primary (%v)",
			res.AvgClusterCPUUtilization, res.AvgPrimaryUtilization)
	}
	if res.AvgClusterCPUUtilization > 1 {
		t.Fatalf("total utilization should not exceed 1")
	}
}

func TestUnfinishedJobsReported(t *testing.T) {
	cl, _ := testCluster(t)
	// A job that cannot finish within the horizon.
	dag := &workload.DAG{
		Name:   "huge",
		Stages: []*workload.Stage{{Name: "work", Tasks: 4, TaskDuration: 10 * time.Hour}},
	}
	jobs := []*workload.Job{{ID: 0, Name: "huge", DAG: dag, CoresPerTask: 1, MemoryMBPerTask: 1024}}
	sim, err := NewSimulation(cl, jobs, DefaultConfig(PolicyPT))
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run(time.Hour)
	if res.CompletedJobs != 0 {
		t.Fatalf("job should not complete")
	}
	if len(res.Jobs) != 1 || res.Jobs[0].Completed {
		t.Fatalf("unfinished job should still be reported")
	}
}

func TestDeterministicForSeed(t *testing.T) {
	cl, _ := testCluster(t)
	jobs := smallJobs(10, time.Minute, time.Minute)
	run := func() *Result {
		sim, err := NewSimulation(cl, cloneJobs(jobs), DefaultConfig(PolicyPT))
		if err != nil {
			t.Fatal(err)
		}
		return sim.Run(2 * time.Hour)
	}
	a := run()
	b := run()
	if a.AvgJobRuntime != b.AvgJobRuntime || a.TasksKilled != b.TasksKilled {
		t.Fatalf("identical seeds should give identical results")
	}
}

// BenchmarkYarnHeartbeat measures one NM/RM heartbeat exchange over a
// DC-9-shaped cluster with an active TPC-DS-like workload under the PT
// policy: reserve enforcement, per-server free-resource scans, weighted
// container scheduling, and utilization sampling.
func BenchmarkYarnHeartbeat(b *testing.B) {
	profile, ok := trace.ProfileByName("DC-9")
	if !ok {
		b.Fatal("DC-9 profile missing")
	}
	gen := trace.NewGenerator(profile.Scaled(0.05), 1)
	pop, err := gen.Generate()
	if err != nil {
		b.Fatal(err)
	}
	cl, err := cluster.New(pop, tenant.DefaultServerResources(), tenant.DefaultReserve())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	cat, err := workload.TPCDSLikeCatalogue(rng, workload.DefaultCatalogueConfig())
	if err != nil {
		b.Fatal(err)
	}
	horizon := 2 * time.Hour
	jobs, err := cat.GenerateArrivals(rng, workload.DefaultArrivalConfig(horizon))
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig(PolicyPT)
	sim, err := NewSimulation(cl, jobs, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	now := time.Duration(0)
	for i := 0; i < b.N; i++ {
		now += cfg.HeartbeatInterval
		sim.Heartbeat(now)
	}
}
