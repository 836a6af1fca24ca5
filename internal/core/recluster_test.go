package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"harvest/internal/signalproc"
	"harvest/internal/telemetry"
	"harvest/internal/tenant"
	"harvest/internal/timeseries"
)

// mapSource is a mutable HistorySource for tests: per-tenant series that can
// be swapped out to simulate drift between refreshes.
type mapSource struct {
	series  map[tenant.ID]*timeseries.Series
	horizon time.Duration
}

func newMapSource(pop *tenant.Population) *mapSource {
	src := &mapSource{series: make(map[tenant.ID]*timeseries.Series, len(pop.Tenants))}
	for _, t := range pop.Tenants {
		src.series[t.ID] = t.Utilization
		if d := t.Utilization.Duration(); d > src.horizon {
			src.horizon = d
		}
	}
	return src
}

func (m *mapSource) SeriesFor(id tenant.ID) *timeseries.Series { return m.series[id] }
func (m *mapSource) UtilizationAt(id tenant.ID, at time.Duration) float64 {
	s := m.series[id]
	if s == nil {
		return 0
	}
	return s.At(at)
}
func (m *mapSource) Horizon() time.Duration { return m.horizon }

// bestMatchAgreement maps each class of `got` to the class of `want` sharing
// the most tenants, then returns how many of the given tenants land in
// matching classes under that mapping. Class IDs are arbitrary labels, so
// agreement must be measured up to this correspondence.
func bestMatchAgreement(got, want *Clustering, ids []tenant.ID) int {
	match := make(map[ClassID]ClassID, len(got.Classes))
	for _, g := range got.Classes {
		overlap := make(map[ClassID]int)
		for _, tid := range g.Tenants {
			if w, ok := want.ClassOfTenant(tid); ok {
				overlap[w]++
			}
		}
		best, bestN := ClassID(-1), -1
		for w, n := range overlap {
			if n > bestN {
				best, bestN = w, n
			}
		}
		match[g.ID] = best
	}
	agree := 0
	for _, tid := range ids {
		g, okG := got.ClassOfTenant(tid)
		w, okW := want.ClassOfTenant(tid)
		if okG && okW && match[g] == w {
			agree++
		}
	}
	return agree
}

// TestReclusterNoDriftMatchesPrev pins the steady-state contract: with
// unchanged data, the warm path reclassifies nobody and reproduces the
// previous generation's assignment exactly.
func TestReclusterNoDriftMatchesPrev(t *testing.T) {
	pop := testPopulation(t, 1, 0.1)
	src := newMapSource(pop)
	svc := NewClusteringService(DefaultClusteringConfig())
	prev, err := svc.ClusterFrom(pop, src)
	if err != nil {
		t.Fatal(err)
	}
	next, st, err := svc.Recluster(prev, pop, src)
	if err != nil {
		t.Fatal(err)
	}
	if st.FullRebuild {
		t.Error("undrifted Recluster fell back to a full rebuild")
	}
	if st.Reclassified != 0 {
		t.Errorf("reclassified = %d, want 0 on unchanged data", st.Reclassified)
	}
	if st.WarmPatterns == 0 {
		t.Error("no pattern group was warm-started")
	}
	if len(next.Classes) != len(prev.Classes) {
		t.Fatalf("class count changed: %d -> %d", len(prev.Classes), len(next.Classes))
	}
	for _, tn := range pop.Tenants {
		p, _ := prev.ClassOfTenant(tn.ID)
		n, ok := next.ClassOfTenant(tn.ID)
		if !ok || p != n {
			t.Fatalf("tenant %v moved from class %v to %v with no drift", tn.ID, p, n)
		}
	}
}

// TestReclusterWarmStartSpeedAndAgreement is the PR's acceptance test: with
// ~5%% of tenants drifted, the warm-started Recluster must be at least 3x
// faster than a from-scratch rebuild on the same data, reclassify exactly
// the drifted tenants, and agree with the from-scratch oracle on >= 95%% of
// the non-drifted tenants (up to class-label correspondence).
func TestReclusterWarmStartSpeedAndAgreement(t *testing.T) {
	pop := testPopulation(t, 1, 0.1) // ~40 tenants at 0.1 scale
	src := newMapSource(pop)
	svc := NewClusteringService(DefaultClusteringConfig())

	prev, err := svc.ClusterFrom(pop, src)
	if err != nil {
		t.Fatal(err)
	}

	// Drift ~5% of tenants: shift their utilization clearly past the
	// threshold (a +0.15 mean move on a [0,1] scale).
	drifted := make(map[tenant.ID]bool)
	nDrift := (len(pop.Tenants) + 19) / 20
	for i := 0; i < nDrift; i++ {
		tn := pop.Tenants[i*len(pop.Tenants)/nDrift]
		s := tn.Utilization.Clone()
		for j := range s.Values {
			s.Values[j] = math.Min(s.Values[j]+0.15, 1)
		}
		src.series[tn.ID] = s
		drifted[tn.ID] = true
	}

	// A full rebuild of 42 tenants is some 15 ms, too short for one wall-clock
	// sample on a shared box: each side is timed as its fastest of five runs.
	// A warm run rebases the drifted tenants' profiles on their new windows,
	// so each one starts from the profiles prev left.
	const trials = 5
	base := make([]signalproc.Profile, len(pop.Tenants))
	for i, tn := range pop.Tenants {
		base[i] = tn.Profile
	}
	var warm *Clustering
	var st ReclusterStats
	warmTime := time.Duration(math.MaxInt64)
	for trial := 0; trial < trials; trial++ {
		for i, tn := range pop.Tenants {
			tn.Profile = base[i]
		}
		start := time.Now()
		warm, st, err = svc.Recluster(prev, pop, src)
		warmTime = min(warmTime, time.Since(start))
		if err != nil {
			t.Fatal(err)
		}
		if st.Reclassified != nDrift {
			t.Errorf("reclassified = %d, want exactly the %d drifted tenants", st.Reclassified, nDrift)
		}
	}

	// The from-scratch oracle over the same drifted data.
	var oracle *Clustering
	fullTime := time.Duration(math.MaxInt64)
	for trial := 0; trial < trials; trial++ {
		start := time.Now()
		oracle, err = svc.ClusterFrom(pop, src)
		fullTime = min(fullTime, time.Since(start))
		if err != nil {
			t.Fatal(err)
		}
	}

	if fullTime < 3*warmTime {
		t.Errorf("warm recluster %v vs full rebuild %v: speedup %.1fx, want >= 3x",
			warmTime, fullTime, float64(fullTime)/float64(warmTime))
	}
	t.Logf("warm %v, full %v (%.1fx), reclassified %d/%d, warm/cold patterns %d/%d, iterations %d",
		warmTime, fullTime, float64(fullTime)/float64(warmTime),
		st.Reclassified, st.Tenants, st.WarmPatterns, st.ColdPatterns, st.Iterations)

	var nonDrifted []tenant.ID
	for _, tn := range pop.Tenants {
		if !drifted[tn.ID] {
			nonDrifted = append(nonDrifted, tn.ID)
		}
	}
	agree := bestMatchAgreement(warm, oracle, nonDrifted)
	if frac := float64(agree) / float64(len(nonDrifted)); frac < 0.95 {
		t.Errorf("warm/full assignment agreement on non-drifted tenants = %d/%d (%.1f%%), want >= 95%%",
			agree, len(nonDrifted), 100*frac)
	}
}

// TestReclusterCumulativeDriftNotRebaselined guards the drift baseline: a
// tenant drifting in sub-threshold steps must still be reclassified once the
// cumulative move since its last FFT classification crosses the threshold —
// the baseline may not be refreshed on undrifted rounds.
func TestReclusterCumulativeDriftNotRebaselined(t *testing.T) {
	pop := testPopulation(t, 5, 0.1)
	src := newMapSource(pop)
	cfg := DefaultClusteringConfig()
	svc := NewClusteringService(cfg)
	prev, err := svc.ClusterFrom(pop, src)
	if err != nil {
		t.Fatal(err)
	}
	// A constant-pattern tenant with mean well below the clamp: a uniform
	// +delta shift moves the mean by exactly delta, the peak by delta, and
	// the (tiny) CV by far less than the threshold — so each step drifts
	// only the mean, by a deliberately sub-threshold amount.
	var victim *tenant.Tenant
	for _, tn := range pop.Tenants {
		if tn.Pattern() == signalproc.PatternConstant && tn.Utilization.Peak() < 0.9 {
			victim = tn
			break
		}
	}
	if victim == nil {
		t.Skip("no headroomy constant tenant in this population")
	}
	base := victim.Utilization
	const step = 0.012 // < DefaultDriftThreshold (0.02); two steps cross it
	reclassifiedAt := -1
	for round := 1; round <= 4; round++ {
		s := base.Clone()
		for j := range s.Values {
			s.Values[j] = math.Min(s.Values[j]+step*float64(round), 1)
		}
		src.series[victim.ID] = s
		next, st, err := svc.Recluster(prev, pop, src)
		if err != nil {
			t.Fatal(err)
		}
		if st.Reclassified > 0 && reclassifiedAt < 0 {
			reclassifiedAt = round
		}
		prev = next
	}
	if reclassifiedAt < 0 {
		t.Fatal("cumulative drift never triggered reclassification: baseline is being refreshed away")
	}
	if reclassifiedAt == 1 {
		t.Fatal("first sub-threshold step already reclassified: the test premise broke")
	}
	t.Logf("cumulative drift reclassified at round %d", reclassifiedAt)
}

// TestReclusterNilPrevFallsBack pins the fallback: no previous generation
// degrades to a full from-scratch build.
func TestReclusterNilPrevFallsBack(t *testing.T) {
	pop := testPopulation(t, 2, 0.05)
	src := newMapSource(pop)
	svc := NewClusteringService(DefaultClusteringConfig())
	c, st, err := svc.Recluster(nil, pop, src)
	if err != nil {
		t.Fatal(err)
	}
	if !st.FullRebuild {
		t.Error("nil prev did not report a full rebuild")
	}
	if st.Reclassified != len(pop.Tenants) {
		t.Errorf("full rebuild reclassified %d, want all %d", st.Reclassified, len(pop.Tenants))
	}
	if len(c.Classes) == 0 {
		t.Fatal("fallback produced no classes")
	}
}

// TestReclusterPatternChange drives one tenant across a pattern boundary and
// checks it is re-routed to a class of its new pattern.
func TestReclusterPatternChange(t *testing.T) {
	pop := testPopulation(t, 3, 0.1)
	src := newMapSource(pop)
	svc := NewClusteringService(DefaultClusteringConfig())
	prev, err := svc.ClusterFrom(pop, src)
	if err != nil {
		t.Fatal(err)
	}

	// Find a constant tenant and replace its history with a strong diurnal
	// cycle — unambiguously periodic.
	var victim *tenant.Tenant
	for _, tn := range pop.Tenants {
		if tn.Pattern() == signalproc.PatternConstant {
			victim = tn
			break
		}
	}
	if victim == nil {
		t.Skip("no constant tenant in this population")
	}
	n := victim.Utilization.Len()
	values := make([]float64, n)
	for i := range values {
		day := float64(i) / float64(timeseries.SlotsPerDay)
		values[i] = 0.5 + 0.4*math.Sin(2*math.Pi*day)
	}
	src.series[victim.ID] = timeseries.New(timeseries.SlotDuration, values)

	next, st, err := svc.Recluster(prev, pop, src)
	if err != nil {
		t.Fatal(err)
	}
	if st.PatternChanged < 1 {
		t.Errorf("pattern changes = %d, want >= 1", st.PatternChanged)
	}
	cid, ok := next.ClassOfTenant(victim.ID)
	if !ok {
		t.Fatal("victim lost its class")
	}
	if got := next.Class(cid).Pattern; got != signalproc.PatternPeriodic {
		t.Errorf("victim's class pattern = %v, want periodic", got)
	}
}

// TestNewClusteringFromClasses covers the persistence restore constructor.
func TestNewClusteringFromClasses(t *testing.T) {
	pop := testPopulation(t, 4, 0.05)
	svc := NewClusteringService(DefaultClusteringConfig())
	orig, err := svc.Cluster(pop)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := NewClusteringFromClasses(orig.Classes)
	if err != nil {
		t.Fatal(err)
	}
	for _, tn := range pop.Tenants {
		a, _ := orig.ClassOfTenant(tn.ID)
		b, ok := rebuilt.ClassOfTenant(tn.ID)
		if !ok || a != b {
			t.Fatalf("tenant %v: rebuilt class %v, want %v", tn.ID, b, a)
		}
	}
	for _, sid := range pop.ServerIDs() {
		a, _ := orig.ClassOfServer(sid)
		b, ok := rebuilt.ClassOfServer(sid)
		if !ok || a != b {
			t.Fatalf("server %v: rebuilt class %v, want %v", sid, b, a)
		}
	}
	// Duplicate membership is rejected.
	dup := []*UtilizationClass{
		{ID: 0, Tenants: []tenant.ID{1}},
		{ID: 1, Tenants: []tenant.ID{1}},
	}
	if _, err := NewClusteringFromClasses(dup); err == nil {
		t.Error("duplicate tenant membership not rejected")
	}
}

// seriesOnlySource hides tenant.HistoryWindow from Recluster, leaving the
// path every source took before the in-place window read: one private
// SeriesFor copy per tenant.
type seriesOnlySource struct{ st *telemetry.Store }

func (s seriesOnlySource) SeriesFor(id tenant.ID) *timeseries.Series { return s.st.SeriesFor(id) }
func (s seriesOnlySource) UtilizationAt(id tenant.ID, at time.Duration) float64 {
	return s.st.UtilizationAt(id, at)
}
func (s seriesOnlySource) Horizon() time.Duration { return s.st.Horizon() }
func (s seriesOnlySource) HistoryStats(id tenant.ID) (int, uint64, bool) {
	return s.st.HistoryStats(id)
}

// TestReclusterWindowReadParity runs the same history through Recluster twice
// — once over the ring store, whose windows are read into one scratch buffer,
// once over the store with that extension hidden — and requires the same
// drift verdicts, statistics, class membership and tenant profiles, over
// seeds whose live samples push some tenants past the drift threshold, leave
// some under it and leave some quiet.
func TestReclusterWindowReadParity(t *testing.T) {
	const window = 2 * timeseries.SlotsPerDay
	var _ tenant.HistoryWindow = (*telemetry.Store)(nil)
	if _, exposed := tenant.HistorySource(seriesOnlySource{}).(tenant.HistoryWindow); exposed {
		t.Fatal("the reference source exposes the extension it is meant to hide")
	}
	svc := NewClusteringService(DefaultClusteringConfig())
	drifted := 0
	for seed := int64(1); seed <= 20; seed++ {
		// Two identical worlds: tenants carry re-clustering state (Profile,
		// HistoryMark), so each path gets its own population and store.
		var pops [2]*tenant.Population
		var next [2]*Clustering
		var stats [2]ReclusterStats
		for w := range pops {
			pop := testPopulation(t, seed, 0.05)
			ids := make([]tenant.ID, len(pop.Tenants))
			for i, tn := range pop.Tenants {
				ids[i] = tn.ID
			}
			st := telemetry.NewStore(ids, timeseries.SlotDuration, window)
			for _, tn := range pop.Tenants {
				if err := st.Bootstrap(tn.ID, tn.Utilization, tn.Utilization.Duration()); err != nil {
					t.Fatal(err)
				}
			}
			pops[w] = pop
			var src tenant.HistorySource = st
			if w == 1 {
				src = seriesOnlySource{st}
			}
			prev, err := svc.ClusterFrom(pop, src)
			if err != nil {
				t.Fatal(err)
			}
			// A first round evaluates everyone and records the change marks a
			// later round is quiet against.
			if prev, _, err = svc.Recluster(prev, pop, src); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed))
			for i, tn := range pop.Tenants {
				var slots int
				var shift float64
				switch i % 3 {
				case 0: // a burst long enough to move the window mean past the threshold
					slots, shift = window/4, 0.4
				case 1: // live samples, nothing like a drift
					slots, shift = 5, 0
				}
				for ; slots > 0; slots-- {
					v := tn.UtilizationAt(st.Horizon()) + shift + rng.NormFloat64()*0.01
					if _, err := st.Ingest(tn.ID, 0, v); err != nil {
						t.Fatal(err)
					}
				}
			}
			if next[w], stats[w], err = svc.Recluster(prev, pop, src); err != nil {
				t.Fatal(err)
			}
		}
		got, gotStats, want, wantStats := next[0], stats[0], next[1], stats[1]
		if gotStats != wantStats {
			t.Fatalf("seed %d: stats %+v, want %+v", seed, gotStats, wantStats)
		}
		if gotStats.Quiet == 0 || gotStats.Drifted == 0 || gotStats.Drifted+gotStats.Quiet >= gotStats.Tenants {
			t.Fatalf("seed %d: want quiet, drifted and undrifted tenants in one round, got %+v", seed, gotStats)
		}
		drifted += gotStats.Drifted
		if len(got.Classes) != len(want.Classes) {
			t.Fatalf("seed %d: %d classes, want %d", seed, len(got.Classes), len(want.Classes))
		}
		for i, cls := range got.Classes {
			ref := want.Classes[i]
			if cls.Pattern != ref.Pattern || cls.AvgUtilization != ref.AvgUtilization || cls.PeakUtilization != ref.PeakUtilization ||
				!slices.Equal(cls.Tenants, ref.Tenants) || !slices.Equal(cls.Servers, ref.Servers) || !slices.Equal(cls.Centroid, ref.Centroid) {
				t.Fatalf("seed %d: class %d is %+v, want %+v", seed, i, cls, ref)
			}
		}
		for i, tn := range pops[0].Tenants {
			ref := pops[1].Tenants[i]
			if tn.Profile != ref.Profile || tn.HistoryMark != ref.HistoryMark {
				t.Fatalf("seed %d: tenant %v profile %+v mark %d, want %+v mark %d", seed, tn.ID, tn.Profile, tn.HistoryMark, ref.Profile, ref.HistoryMark)
			}
		}
	}
	t.Logf("%d tenants drifted across the seeds", drifted)
}
