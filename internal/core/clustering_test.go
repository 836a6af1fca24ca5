package core

import (
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"harvest/internal/signalproc"
	"harvest/internal/tenant"
	"harvest/internal/timeseries"
	"harvest/internal/trace"
)

// testPopulation generates a small DC-9-like population for core tests.
func testPopulation(t *testing.T, seed int64, scale float64) *tenant.Population {
	t.Helper()
	profile, ok := trace.ProfileByName("DC-9")
	if !ok {
		t.Fatal("DC-9 profile missing")
	}
	pop, err := trace.NewGenerator(profile.Scaled(scale), seed).Generate()
	if err != nil {
		t.Fatal(err)
	}
	return pop
}

func TestClusterEmptyPopulation(t *testing.T) {
	svc := NewClusteringService(DefaultClusteringConfig())
	empty, err := tenant.NewPopulation("DC-X", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Cluster(empty); err == nil {
		t.Fatalf("clustering an empty population should error")
	}
}

func TestClusterCoversAllTenantsAndServers(t *testing.T) {
	pop := testPopulation(t, 1, 0.1)
	svc := NewClusteringService(DefaultClusteringConfig())
	clustering, err := svc.Cluster(pop)
	if err != nil {
		t.Fatal(err)
	}
	if len(clustering.Classes) == 0 {
		t.Fatalf("no classes produced")
	}
	// Every tenant and every server must be mapped to exactly one class.
	tenantCount := 0
	serverCount := 0
	for _, cls := range clustering.Classes {
		tenantCount += len(cls.Tenants)
		serverCount += len(cls.Servers)
		for _, tid := range cls.Tenants {
			cid, ok := clustering.ClassOfTenant(tid)
			if !ok || cid != cls.ID {
				t.Fatalf("tenant %v maps to class %v, expected %v", tid, cid, cls.ID)
			}
		}
		for _, sid := range cls.Servers {
			cid, ok := clustering.ClassOfServer(sid)
			if !ok || cid != cls.ID {
				t.Fatalf("server %v maps to class %v, expected %v", sid, cid, cls.ID)
			}
		}
	}
	if tenantCount != len(pop.Tenants) {
		t.Fatalf("classes cover %d tenants, want %d", tenantCount, len(pop.Tenants))
	}
	if serverCount != pop.NumServers() {
		t.Fatalf("classes cover %d servers, want %d", serverCount, pop.NumServers())
	}
}

func TestClusterClassTagsAreConsistent(t *testing.T) {
	pop := testPopulation(t, 2, 0.1)
	svc := NewClusteringService(DefaultClusteringConfig())
	clustering, err := svc.Cluster(pop)
	if err != nil {
		t.Fatal(err)
	}
	for _, cls := range clustering.Classes {
		if cls.NumServers() == 0 {
			t.Fatalf("class %d has no servers", cls.ID)
		}
		if cls.AvgUtilization < 0 || cls.AvgUtilization > 1 {
			t.Fatalf("class %d avg utilization %v out of range", cls.ID, cls.AvgUtilization)
		}
		if cls.PeakUtilization < cls.AvgUtilization-1e-9 {
			t.Fatalf("class %d peak %v below average %v", cls.ID, cls.PeakUtilization, cls.AvgUtilization)
		}
		// All member tenants must share the class pattern.
		for _, tid := range cls.Tenants {
			if pop.ByID(tid).Pattern() != cls.Pattern {
				t.Fatalf("tenant %v pattern %v does not match class pattern %v",
					tid, pop.ByID(tid).Pattern(), cls.Pattern)
			}
		}
	}
}

func TestClusterRespectsExplicitClassCounts(t *testing.T) {
	pop := testPopulation(t, 3, 0.2)
	cfg := DefaultClusteringConfig()
	cfg.ClassesPerPattern = map[signalproc.Pattern]int{
		signalproc.PatternConstant:      5,
		signalproc.PatternPeriodic:      3,
		signalproc.PatternUnpredictable: 2,
	}
	svc := NewClusteringService(cfg)
	clustering, err := svc.Cluster(pop)
	if err != nil {
		t.Fatal(err)
	}
	counts := clustering.PatternCounts()
	if counts[signalproc.PatternConstant] > 5 {
		t.Errorf("constant classes = %d, want <= 5", counts[signalproc.PatternConstant])
	}
	if counts[signalproc.PatternPeriodic] > 3 {
		t.Errorf("periodic classes = %d, want <= 3", counts[signalproc.PatternPeriodic])
	}
	if counts[signalproc.PatternUnpredictable] > 2 {
		t.Errorf("unpredictable classes = %d, want <= 2", counts[signalproc.PatternUnpredictable])
	}
}

// withProcs runs f with GOMAXPROCS set to procs, which sets how many
// goroutines ClusterFromAllCores classifies the tenants on.
func withProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// TestClusterDeterministicForSeed: the same seed gives the same classes,
// centroids, membership and tenant profiles, bit for bit, whether the tenants
// are classified on one goroutine (ClusterFrom) or on as many as GOMAXPROCS
// allows (ClusterFromAllCores).
func TestClusterDeterministicForSeed(t *testing.T) {
	svc := NewClusteringService(DefaultClusteringConfig())
	var pops []*tenant.Population
	var runs []*Clustering
	for _, procs := range []int{0, 1, 8, 1, 8} { // 0: ClusterFrom
		pop := testPopulation(t, 4, 0.1)
		for _, tn := range pop.Tenants {
			tn.Profile = signalproc.Profile{} // the clustering must derive them
		}
		src := tenant.TraceHistory{Pop: pop}
		var c *Clustering
		var err error
		if procs == 0 {
			c, err = svc.ClusterFrom(pop, src)
		} else {
			withProcs(procs, func() { c, err = svc.ClusterFromAllCores(pop, src) })
		}
		if err != nil {
			t.Fatal(err)
		}
		pops, runs = append(pops, pop), append(runs, c)
	}
	for r := 1; r < len(runs); r++ {
		if !reflect.DeepEqual(runs[r], runs[0]) {
			t.Fatalf("run %d: classes, centroids or membership differ from ClusterFrom's", r)
		}
		for i, tn := range pops[r].Tenants {
			if want := pops[0].Tenants[i].Profile; tn.Profile != want {
				t.Fatalf("run %d: tenant %v profile %+v, run 0 has %+v", r, tn.ID, tn.Profile, want)
			}
		}
	}
}

func TestClassLookupOutOfRange(t *testing.T) {
	pop := testPopulation(t, 5, 0.05)
	svc := NewClusteringService(DefaultClusteringConfig())
	clustering, err := svc.Cluster(pop)
	if err != nil {
		t.Fatal(err)
	}
	if clustering.Class(ClassID(-1)) != nil {
		t.Errorf("negative class id should return nil")
	}
	if clustering.Class(ClassID(len(clustering.Classes))) != nil {
		t.Errorf("out-of-range class id should return nil")
	}
	if clustering.Class(clustering.Classes[0].ID) == nil {
		t.Errorf("valid class id should be found")
	}
	if _, ok := clustering.ClassOfTenant(tenant.ID(1 << 30)); ok {
		t.Errorf("unknown tenant should not resolve")
	}
	if _, ok := clustering.ClassOfServer(tenant.ServerID(1 << 30)); ok {
		t.Errorf("unknown server should not resolve")
	}
}

// TestClusterErrorsOnUnclassifiableTenant: a population nobody can be
// classified in fails, and when several tenants' windows cannot be classified
// the error names the first of them in population order, however many
// goroutines classify the tenants.
func TestClusterErrorsOnUnclassifiableTenant(t *testing.T) {
	bad := &tenant.Tenant{ID: 1} // no utilization series
	pop, err := tenant.NewPopulation("DC-X", []*tenant.Tenant{bad})
	if err != nil {
		t.Fatal(err)
	}
	svc := NewClusteringService(DefaultClusteringConfig())
	if _, err := svc.Cluster(pop); err == nil {
		t.Fatalf("expected classification failure to propagate")
	}

	// Tenants 100..131 in order; the classifier fails those at indices 9, 10
	// and 30, whose windows start with a negative sample.
	tenants := make([]*tenant.Tenant, 32)
	for i := range tenants {
		values := make([]float64, 2*timeseries.SlotsPerDay)
		for j := range values {
			values[j] = 0.5 + 0.1*math.Sin(float64(i+j))
		}
		if i == 9 || i == 10 || i == 30 {
			values[0] = -1
		}
		tenants[i] = &tenant.Tenant{ID: tenant.ID(100 + i), Servers: []tenant.ServerID{tenant.ServerID(i)},
			Utilization: timeseries.New(timeseries.SlotDuration, values)}
	}
	pop, err = tenant.NewPopulation("DC-X", tenants)
	if err != nil {
		t.Fatal(err)
	}
	svc.classify = func(values []float64, cfg signalproc.ClassifierConfig) (signalproc.Profile, error) {
		if values[0] < 0 {
			return signalproc.Profile{}, errors.New("unclassifiable window")
		}
		return signalproc.Classify(values, cfg)
	}
	for _, procs := range []int{1, 8} {
		src := &gatedHistory{TraceHistory: tenant.TraceHistory{Pop: pop}}
		if procs > 1 {
			// Tenant 109's failure is found after tenant 110's.
			src.wait, src.until, src.read = 109, 110, make(chan struct{})
		}
		withProcs(procs, func() {
			_, err := svc.ClusterFromAllCores(pop, src)
			if err == nil || !strings.Contains(err.Error(), "tenant 109:") {
				t.Fatalf("GOMAXPROCS %d: ClusterFromAllCores = %v, want tenant 109's error", procs, err)
			}
		})
	}
}

// gatedHistory is the trace-backed source, except that, when read is set,
// tenant wait's window is handed out only once tenant until's has been and its
// classification has had ample time to finish.
type gatedHistory struct {
	tenant.TraceHistory
	wait, until tenant.ID
	read        chan struct{}
}

func (h *gatedHistory) SeriesFor(id tenant.ID) *timeseries.Series {
	if h.read != nil {
		switch id {
		case h.until:
			defer close(h.read)
		case h.wait:
			<-h.read
			time.Sleep(20 * time.Millisecond)
		}
	}
	return h.TraceHistory.SeriesFor(id)
}
