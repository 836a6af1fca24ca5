package cluster

import (
	"math"
	"testing"
	"time"

	"harvest/internal/tenant"
	"harvest/internal/timeseries"
	"harvest/internal/trace"
)

func twoTenantPopulation(t *testing.T) *tenant.Population {
	t.Helper()
	low := &tenant.Tenant{
		ID:          0,
		Environment: "env-low",
		Servers:     []tenant.ServerID{0, 1},
		Utilization: timeseries.New(timeseries.SlotDuration, []float64{0.2, 0.2, 0.2, 0.2}),
	}
	high := &tenant.Tenant{
		ID:          1,
		Environment: "env-high",
		Servers:     []tenant.ServerID{2},
		Utilization: timeseries.New(timeseries.SlotDuration, []float64{0.9, 0.9, 0.9, 0.9}),
	}
	pop, err := tenant.NewPopulation("DC-T", []*tenant.Tenant{low, high})
	if err != nil {
		t.Fatal(err)
	}
	return pop
}

func TestNewValidation(t *testing.T) {
	pop := twoTenantPopulation(t)
	if _, err := New(nil, tenant.DefaultServerResources(), tenant.DefaultReserve()); err == nil {
		t.Errorf("nil population should error")
	}
	if _, err := New(pop, tenant.Resources{Cores: 0}, tenant.DefaultReserve()); err == nil {
		t.Errorf("zero cores should error")
	}
	if _, err := New(pop, tenant.Resources{Cores: 4}, tenant.Reserve{Cores: 4}); err == nil {
		t.Errorf("reserve as large as capacity should error")
	}
}

func TestNewBuildsServers(t *testing.T) {
	pop := twoTenantPopulation(t)
	c, err := New(pop, tenant.DefaultServerResources(), tenant.DefaultReserve())
	if err != nil {
		t.Fatal(err)
	}
	if c.NumServers() != 3 {
		t.Fatalf("NumServers = %d, want 3", c.NumServers())
	}
	if c.Server(0) == nil || c.Server(2) == nil || c.Server(99) != nil {
		t.Fatalf("server lookup wrong")
	}
	if c.TotalCores() != 3*12 {
		t.Fatalf("TotalCores = %d", c.TotalCores())
	}
	if got := c.Server(2).Tenant.ID; got != 1 {
		t.Fatalf("server 2 owned by tenant %v, want 1", got)
	}
}

func TestPrimaryCoresAndHarvestable(t *testing.T) {
	pop := twoTenantPopulation(t)
	c, err := New(pop, tenant.DefaultServerResources(), tenant.DefaultReserve())
	if err != nil {
		t.Fatal(err)
	}
	low := c.Server(0)
	// 0.2 * 12 = 2.4 -> 3 cores rounded up.
	if got := low.PrimaryCores(0); got != 3 {
		t.Fatalf("PrimaryCores = %d, want 3", got)
	}
	// 12 - 3 - 4 = 5 harvestable.
	if got := low.HarvestableCores(0); got != 5 {
		t.Fatalf("HarvestableCores = %d, want 5", got)
	}
	if low.IsBusy(0) {
		t.Fatalf("low-utilization server should not be busy")
	}
	high := c.Server(2)
	// 0.9 * 12 = 10.8 -> 11 cores; 12 - 11 - 4 < 0 -> 0 harvestable, busy.
	if got := high.HarvestableCores(0); got != 0 {
		t.Fatalf("HarvestableCores = %d, want 0", got)
	}
	if !high.IsBusy(0) {
		t.Fatalf("high-utilization server should be busy")
	}
}

func TestPrimaryUtilizationNilSeries(t *testing.T) {
	s := &Server{Resources: tenant.DefaultServerResources(), Reserve: tenant.DefaultReserve()}
	if s.PrimaryUtilization(time.Hour) != 0 || s.PrimaryCores(0) != 0 {
		t.Fatalf("nil series should report zero utilization")
	}
	if s.HarvestableCores(0) != 8 {
		t.Fatalf("idle server should expose capacity minus reserve")
	}
}

func TestPrimaryCoresCapsAtCapacity(t *testing.T) {
	s := &Server{
		Resources:   tenant.Resources{Cores: 4},
		Reserve:     tenant.Reserve{Cores: 1},
		Utilization: timeseries.New(time.Minute, []float64{1.0}),
	}
	if got := s.PrimaryCores(0); got != 4 {
		t.Fatalf("PrimaryCores = %d, want 4", got)
	}
}

func TestAverageAndBusyFraction(t *testing.T) {
	pop := twoTenantPopulation(t)
	c, err := New(pop, tenant.DefaultServerResources(), tenant.DefaultReserve())
	if err != nil {
		t.Fatal(err)
	}
	want := (0.2 + 0.2 + 0.9) / 3
	if math.Abs(c.MeanPrimaryUtilization()-want) > 1e-9 {
		t.Fatalf("MeanPrimaryUtilization = %v, want %v", c.MeanPrimaryUtilization(), want)
	}
}

func TestScaleUtilization(t *testing.T) {
	profile, ok := trace.ProfileByName("DC-9")
	if !ok {
		t.Fatal("missing profile")
	}
	pop, err := trace.NewGenerator(profile.Scaled(0.05), 3).Generate()
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(pop, tenant.DefaultServerResources(), tenant.DefaultReserve())
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range []float64{0.2, 0.5} {
		for _, method := range []timeseries.ScalingMethod{timeseries.ScaleLinear, timeseries.ScaleRoot} {
			c.ScaleUtilization(target, method)
			got := c.MeanPrimaryUtilization()
			// Per-tenant scaling hits the target per tenant; the per-server
			// mean can deviate a little because tenants differ in size.
			if math.Abs(got-target) > 0.08 {
				t.Fatalf("scaled mean utilization = %v, want ~%v (method %v)", got, target, method)
			}
		}
	}
}

func TestHarvestableBytesFlowThrough(t *testing.T) {
	pop := twoTenantPopulation(t)
	pop.Tenants[0].HarvestableBytesPerServer = 1234
	c, err := New(pop, tenant.DefaultServerResources(), tenant.DefaultReserve())
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Server(0).Resources.DiskBytes; got != 1234 {
		t.Fatalf("DiskBytes = %d, want 1234", got)
	}
}

func TestEmptyClusterAggregates(t *testing.T) {
	c := &Cluster{}
	if c.MeanPrimaryUtilization() != 0 {
		t.Fatalf("empty cluster aggregates should be zero")
	}
}
