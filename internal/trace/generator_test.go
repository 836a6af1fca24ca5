package trace

import (
	"errors"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"harvest/internal/signalproc"
	"harvest/internal/stats"
	"harvest/internal/tenant"
	"harvest/internal/timeseries"
)

// smallProfile shrinks DC-9 so tests run quickly.
func smallProfile(t *testing.T) DatacenterProfile {
	t.Helper()
	p, ok := ProfileByName("DC-9")
	if !ok {
		t.Fatal("DC-9 profile missing")
	}
	return p.Scaled(0.1) // ~42 tenants
}

func TestBuiltinProfiles(t *testing.T) {
	profiles := BuiltinProfiles()
	if len(profiles) != 10 {
		t.Fatalf("expected 10 built-in profiles, got %d", len(profiles))
	}
	names := map[string]bool{}
	for _, p := range profiles {
		if names[p.Name] {
			t.Errorf("duplicate profile name %q", p.Name)
		}
		names[p.Name] = true
		mix := p.PeriodicTenantFraction + p.ConstantTenantFraction + p.UnpredictableTenantFraction
		if math.Abs(mix-1) > 0.01 {
			t.Errorf("%s class mix sums to %v, want ~1", p.Name, mix)
		}
		if p.NumTenants <= 0 {
			t.Errorf("%s has no tenants", p.Name)
		}
		if p.ConstantTenantFraction <= p.PeriodicTenantFraction {
			t.Errorf("%s should have more constant than periodic tenants (Fig 2)", p.Name)
		}
	}
}

func TestProfileByName(t *testing.T) {
	if _, ok := ProfileByName("DC-3"); !ok {
		t.Errorf("DC-3 should exist")
	}
	if _, ok := ProfileByName("DC-99"); ok {
		t.Errorf("DC-99 should not exist")
	}
}

func TestScaled(t *testing.T) {
	p, _ := ProfileByName("DC-0")
	small := p.Scaled(0.01)
	if small.NumTenants < 1 {
		t.Fatalf("scaled profile must keep at least one tenant")
	}
	tiny := p.Scaled(0)
	if tiny.NumTenants != 1 {
		t.Fatalf("zero scaling should clamp to 1 tenant, got %d", tiny.NumTenants)
	}
}

func TestGenerateErrorsOnBadProfile(t *testing.T) {
	g := NewGenerator(DatacenterProfile{Name: "bad", NumTenants: 0}, 1)
	if _, err := g.Generate(); err == nil {
		t.Fatalf("zero tenants should error")
	}
	g = NewGenerator(DatacenterProfile{Name: "bad", NumTenants: 5}, 1)
	if _, err := g.Generate(); err == nil {
		t.Fatalf("zero class mix should error")
	}
}

func TestGeneratePopulationShape(t *testing.T) {
	g := NewGenerator(smallProfile(t), 42)
	pop, err := g.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(pop.Tenants) != g.Profile.NumTenants {
		t.Fatalf("generated %d tenants, want %d", len(pop.Tenants), g.Profile.NumTenants)
	}
	for _, tn := range pop.Tenants {
		if tn.NumServers() < 1 {
			t.Fatalf("tenant %v has no servers", tn.ID)
		}
		if tn.Utilization.Len() != 21600 {
			t.Fatalf("utilization length = %d, want 21600", tn.Utilization.Len())
		}
		if tn.Utilization.Peak() > 1 || tn.Utilization.Min() < 0 {
			t.Fatalf("utilization out of [0,1]")
		}
		if tn.ReimagesPerServerMonth < 0 {
			t.Fatalf("negative reimage rate")
		}
		if len(tn.MonthlyReimageRates) != 36 {
			t.Fatalf("monthly history length = %d, want 36", len(tn.MonthlyReimageRates))
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := smallProfile(t)
	a, err := NewGenerator(p, 7).Generate()
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewGenerator(p, 7).Generate()
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Tenants {
		if a.Tenants[i].NumServers() != b.Tenants[i].NumServers() {
			t.Fatalf("server counts differ for the same seed")
		}
		if a.Tenants[i].ReimagesPerServerMonth != b.Tenants[i].ReimagesPerServerMonth {
			t.Fatalf("reimage rates differ for the same seed")
		}
		if a.Tenants[i].Utilization.Values[100] != b.Tenants[i].Utilization.Values[100] {
			t.Fatalf("utilization traces differ for the same seed")
		}
	}
}

// TestStreamHandsOverGeneratesMonths: Stream visits each tenant with the month
// Generate keeps, under the id TenantIDs promised, and returns Generate's
// tenants without the series and unclassified; a visitor's error at tenant k
// stops it there, comes back from Stream, and leaves no drawing goroutine
// behind, and so does a visitor's panic.
func TestStreamHandsOverGeneratesMonths(t *testing.T) {
	p := smallProfile(t)
	want, err := NewGenerator(p, 7).Generate()
	if err != nil {
		t.Fatal(err)
	}
	g := NewGenerator(p, 7)
	ids := g.TenantIDs()
	visited := 0
	got, err := g.Stream(func(tn *tenant.Tenant, month *timeseries.Series) error {
		if tn.ID != ids[visited] || !slices.Equal(month.Values, want.Tenants[visited].Utilization.Values) {
			t.Fatalf("visit %d: tenant %v, or its month, is not Generate's", visited, tn.ID)
		}
		visited++
		return nil
	})
	if err != nil || len(got.Tenants) != len(ids) {
		t.Fatalf("Stream = %d tenants, %v; want %d", len(got.Tenants), err, len(ids))
	}
	for i, tn := range got.Tenants {
		w := *want.Tenants[i]
		w.Utilization, w.Profile = nil, signalproc.Profile{}
		if !reflect.DeepEqual(tn, &w) || tn.PeakUtilization() != want.Tenants[i].PeakUtilization() {
			t.Fatalf("streamed tenant %v differs from Generate's", tn.ID)
		}
	}

	stop := errors.New("stop")
	for _, k := range []int{0, 3, len(ids) - 1} {
		before := runtime.NumGoroutine()
		visited := 0
		_, err := NewGenerator(p, 7).Stream(func(tn *tenant.Tenant, _ *timeseries.Series) error {
			if tn.ID != ids[visited] {
				t.Fatalf("visit %d after a failure at %d: tenant %v", visited, k, tn.ID)
			}
			visited++
			if visited > k {
				return stop
			}
			return nil
		})
		if err != stop || visited != k+1 {
			t.Fatalf("visitor failing at tenant %d: Stream = %v after %d visits", k, err, visited)
		}
		waitForGoroutines(t, before)
	}

	before := runtime.NumGoroutine()
	func() {
		defer func() {
			if r := recover(); r != stop {
				t.Fatalf("visitor panicking at tenant 3: recovered %v", r)
			}
		}()
		NewGenerator(p, 7).Stream(func(tn *tenant.Tenant, _ *timeseries.Series) error {
			if tn.ID == ids[3] {
				panic(stop)
			}
			return nil
		})
	}()
	waitForGoroutines(t, before)
}

// waitForGoroutines fails t unless the goroutine count is back to before
// within a second: a drawing goroutine has closed its channel by the time
// Stream returns, and is given the moment it needs to exit.
func waitForGoroutines(t *testing.T, before int) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left running, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestGenerateClassMixMatchesCharacterization(t *testing.T) {
	// Use a larger slice of DC-9 so the statistics are stable.
	p, _ := ProfileByName("DC-9")
	p = p.Scaled(0.5)
	g := NewGenerator(p, 11)
	pop, err := g.Generate()
	if err != nil {
		t.Fatal(err)
	}
	tenantShare, serverShare := pop.PatternShares()
	// Fig 2: periodic tenants are a small minority; constants dominate.
	if tenantShare[signalproc.PatternPeriodic] > 0.35 {
		t.Errorf("periodic tenant share = %v, expected a small minority", tenantShare[signalproc.PatternPeriodic])
	}
	if tenantShare[signalproc.PatternConstant] < 0.4 {
		t.Errorf("constant tenant share = %v, expected the majority", tenantShare[signalproc.PatternConstant])
	}
	// Fig 3: periodic tenants own a much larger share of servers than of tenants.
	if serverShare[signalproc.PatternPeriodic] < tenantShare[signalproc.PatternPeriodic] {
		t.Errorf("periodic server share (%v) should exceed tenant share (%v)",
			serverShare[signalproc.PatternPeriodic], tenantShare[signalproc.PatternPeriodic])
	}
	// ~75% of servers should be predictable (periodic + constant).
	predictable := serverShare[signalproc.PatternPeriodic] + serverShare[signalproc.PatternConstant]
	if predictable < 0.55 {
		t.Errorf("predictable server share = %v, expected a strong majority", predictable)
	}
}

func TestGenerateUtilizationPatternsClassifyCorrectly(t *testing.T) {
	g := NewGenerator(smallProfile(t), 3)
	correct := 0
	const trials = 30
	for i := 0; i < trials; i++ {
		for _, want := range []signalproc.Pattern{
			signalproc.PatternPeriodic, signalproc.PatternConstant, signalproc.PatternUnpredictable,
		} {
			s := g.GenerateUtilization(want)
			got, err := signalproc.Classify(s.Values, signalproc.DefaultClassifierConfig())
			if err != nil {
				t.Fatal(err)
			}
			if got.Pattern == want {
				correct++
			}
		}
	}
	// The generator and classifier should agree for the vast majority of
	// traces (a small overlap between classes is realistic and fine).
	if frac := float64(correct) / float64(trials*3); frac < 0.8 {
		t.Fatalf("generator/classifier agreement = %v, want >= 0.8", frac)
	}
}

func TestReimageEventsRatesRoughlyMatch(t *testing.T) {
	p := smallProfile(t)
	g := NewGenerator(p, 5)
	pop, err := g.Generate()
	if err != nil {
		t.Fatal(err)
	}
	horizon := 3 * 30 * 24 * time.Hour // three months
	events := g.GenerateReimageEvents(pop, horizon)
	if len(events) == 0 {
		t.Fatalf("expected some reimage events")
	}
	// Events must reference servers owned by the named tenant and be ordered.
	for i, e := range events {
		owner := pop.OwnerOf(e.Server)
		if owner == nil || owner.ID != e.Tenant {
			t.Fatalf("event %d references server %v not owned by tenant %v", i, e.Server, e.Tenant)
		}
		if e.At < 0 || e.At > horizon+2*time.Hour {
			t.Fatalf("event time %v outside horizon", e.At)
		}
		if i > 0 && events[i].At < events[i-1].At {
			t.Fatalf("events not sorted by time")
		}
	}
	// Aggregate rate should be in the same ballpark as the configured rates.
	expected := 0.0
	for _, tn := range pop.Tenants {
		expected += tn.ReimagesPerServerMonth * float64(tn.NumServers()) * 3
	}
	got := float64(len(events))
	if got < expected*0.3 || got > expected*3 {
		t.Fatalf("total reimages = %v, expected within 3x of %v", got, expected)
	}
}

func TestPerServerAndPerTenantRates(t *testing.T) {
	p := smallProfile(t)
	g := NewGenerator(p, 6)
	pop, err := g.Generate()
	if err != nil {
		t.Fatal(err)
	}
	horizonMonths := 2.0
	events := g.GenerateReimageEvents(pop, time.Duration(horizonMonths*30*24)*time.Hour)
	perServer := PerServerReimageRates(pop, events, horizonMonths)
	if len(perServer) != pop.NumServers() {
		t.Fatalf("per-server map has %d entries, want %d", len(perServer), pop.NumServers())
	}
	perTenant := PerTenantReimageRates(pop, events, horizonMonths)
	if len(perTenant) != len(pop.Tenants) {
		t.Fatalf("per-tenant map has %d entries, want %d", len(perTenant), len(pop.Tenants))
	}
	// The per-tenant aggregate must equal the per-server aggregate.
	serverTotal := 0.0
	for _, r := range perServer {
		serverTotal += r
	}
	tenantTotal := 0.0
	for _, tn := range pop.Tenants {
		tenantTotal += perTenant[tn.ID] * float64(tn.NumServers())
	}
	if math.Abs(serverTotal-tenantTotal) > 1e-6 {
		t.Fatalf("per-server total %v != per-tenant total %v", serverTotal, tenantTotal)
	}
	// Zero horizon returns zero-filled maps rather than dividing by zero.
	zero := PerServerReimageRates(pop, events, 0)
	for _, v := range zero {
		if v != 0 {
			t.Fatalf("zero horizon should produce zero rates")
		}
	}
	zeroT := PerTenantReimageRates(pop, events, 0)
	for _, v := range zeroT {
		if v != 0 {
			t.Fatalf("zero horizon should produce zero per-tenant rates")
		}
	}
}

func TestReimageRateCharacterization(t *testing.T) {
	// Fig 4/5: most servers and tenants see at most ~1 reimage/month; a tail
	// reimages more often. Check on DC-7, a low-rate datacenter.
	p, _ := ProfileByName("DC-7")
	p = p.Scaled(0.3)
	g := NewGenerator(p, 8)
	pop, err := g.Generate()
	if err != nil {
		t.Fatal(err)
	}
	rates := make([]float64, 0, len(pop.Tenants))
	for _, tn := range pop.Tenants {
		rates = append(rates, tn.ReimagesPerServerMonth)
	}
	atMostOne := stats.CDFAt(rates, 1.0)
	if atMostOne < 0.7 {
		t.Fatalf("fraction of tenants at <=1 reimage/month = %v, want >= 0.7", atMostOne)
	}
	// There must still be diversity (not all tenants identical).
	if stats.StdDev(rates) == 0 {
		t.Fatalf("reimage rates should be diverse")
	}
}

func TestMonthlyGroupsAndChanges(t *testing.T) {
	p := smallProfile(t)
	g := NewGenerator(p, 9)
	pop, err := g.Generate()
	if err != nil {
		t.Fatal(err)
	}
	groups, err := MonthlyGroups(pop)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != len(pop.Tenants) {
		t.Fatalf("groups for %d tenants, want %d", len(groups), len(pop.Tenants))
	}
	for id, seq := range groups {
		if len(seq) != 36 {
			t.Fatalf("tenant %v has %d monthly groups, want 36", id, len(seq))
		}
		for _, grp := range seq {
			if grp < 0 || grp >= NumReimageGroups {
				t.Fatalf("invalid group %v", grp)
			}
		}
	}
	changes := GroupChanges(groups)
	// Fig 6: at least ~80% of tenants change groups at most 8 times out of 35.
	counts := make([]float64, 0, len(changes))
	for _, c := range changes {
		counts = append(counts, float64(c))
	}
	stable := stats.CDFAt(counts, 8)
	if stable < 0.6 {
		t.Fatalf("fraction of tenants with <=8 group changes = %v, want >= 0.6", stable)
	}
}

func TestMonthlyGroupsEmptyAndMismatch(t *testing.T) {
	empty, err := tenant.NewPopulation("DC-X", nil)
	if err != nil {
		t.Fatal(err)
	}
	groups, err := MonthlyGroups(empty)
	if err != nil || len(groups) != 0 {
		t.Fatalf("empty population should give empty groups, err=%v", err)
	}
	a := &tenant.Tenant{ID: 1, MonthlyReimageRates: []float64{1, 2}}
	b := &tenant.Tenant{ID: 2, MonthlyReimageRates: []float64{1}}
	pop, err := tenant.NewPopulation("DC-X", []*tenant.Tenant{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MonthlyGroups(pop); err == nil {
		t.Fatalf("mismatched history lengths should error")
	}
}

func TestReimageGroupString(t *testing.T) {
	if ReimageInfrequent.String() != "infrequent" ||
		ReimageIntermediate.String() != "intermediate" ||
		ReimageFrequent.String() != "frequent" {
		t.Errorf("unexpected group strings")
	}
	if ReimageGroup(7).String() == "" {
		t.Errorf("unknown group should produce non-empty string")
	}
}

func TestGroupChangesCounting(t *testing.T) {
	groups := map[tenant.ID][]ReimageGroup{
		1: {ReimageInfrequent, ReimageInfrequent, ReimageFrequent, ReimageFrequent},
		2: {ReimageIntermediate},
	}
	changes := GroupChanges(groups)
	if changes[1] != 1 {
		t.Errorf("tenant 1 changes = %d, want 1", changes[1])
	}
	if changes[2] != 0 {
		t.Errorf("tenant 2 changes = %d, want 0", changes[2])
	}
}
