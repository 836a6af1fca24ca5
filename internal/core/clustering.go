// Package core implements the paper's primary contribution: history-based
// smart task scheduling and smart replica placement (§4).
//
// The clustering service groups primary tenants with similar utilization
// patterns into utilization classes (this file). The class selection algorithm
// (schedule.go, Algorithm 1 in the paper) picks the class(es) that should host
// a batch job's tasks based on the job's expected length and each class's
// weighted headroom. The replica placement algorithm (placement.go, Algorithm
// 2) spreads a block's replicas across primary tenants with diverse reimaging
// and peak-utilization behaviour.
package core

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"harvest/internal/kmeans"
	"harvest/internal/signalproc"
	"harvest/internal/stats"
	"harvest/internal/tenant"
)

// ClassID identifies a utilization class produced by the clustering service.
type ClassID int

// UtilizationClass is a group of primary tenants with similar utilization
// patterns. The clustering service tags each class with its pattern, average
// utilization, and peak utilization (§4.1).
type UtilizationClass struct {
	ID      ClassID
	Pattern signalproc.Pattern

	// AvgUtilization and PeakUtilization summarize the class's historical
	// behaviour; they feed the headroom definitions for medium and long jobs.
	AvgUtilization  float64
	PeakUtilization float64

	// Tenants and Servers list the class members.
	Tenants []tenant.ID
	Servers []tenant.ServerID

	// Centroid is the K-Means centroid in profile-feature space.
	Centroid []float64
}

// NumServers returns how many servers belong to the class.
func (c *UtilizationClass) NumServers() int { return len(c.Servers) }

// Clustering is the output of the clustering service: the utilization classes
// and the tenant/server membership maps the scheduler consults.
type Clustering struct {
	Classes []*UtilizationClass

	tenantClass map[tenant.ID]ClassID
	// serverClass maps every server to its class. An incremental generation
	// (Recluster) shares the previous generation's map unchanged and layers
	// serverDelta over it: the delta holds only the servers whose tenant was
	// reassigned (or dropped — classNone tombstones), so a refresh writes
	// O(moved tenants' servers) map entries instead of O(servers). Both maps
	// are immutable once the clustering is published.
	serverClass map[tenant.ServerID]ClassID
	serverDelta map[tenant.ServerID]ClassID
}

// classNone tombstones a server in serverDelta: its tenant dropped out of
// the incremental generation (e.g. an evicted telemetry ring), so lookups
// must fail even though the shared base map still holds an older assignment.
const classNone ClassID = -1

// ClassOfTenant returns the class a tenant belongs to.
func (c *Clustering) ClassOfTenant(id tenant.ID) (ClassID, bool) {
	cid, ok := c.tenantClass[id]
	return cid, ok
}

// ClassOfServer returns the class a server belongs to. The delta (servers
// reassigned since the shared base generation) shadows the base map.
func (c *Clustering) ClassOfServer(id tenant.ServerID) (ClassID, bool) {
	if cid, ok := c.serverDelta[id]; ok {
		return cid, cid != classNone
	}
	cid, ok := c.serverClass[id]
	return cid, ok
}

// SplicedServers reports how many server assignments this generation carries
// as a delta over a shared base map — zero for a from-scratch clustering or
// a fully-shared (no membership change) incremental one.
func (c *Clustering) SplicedServers() int { return len(c.serverDelta) }

// Class returns the class with the given id, or nil.
func (c *Clustering) Class(id ClassID) *UtilizationClass {
	if int(id) < 0 || int(id) >= len(c.Classes) {
		return nil
	}
	return c.Classes[id]
}

// PatternCounts returns how many classes exist per pattern (the paper reports
// 23 classes for DC-9: 13 periodic, 5 constant, 5 unpredictable).
func (c *Clustering) PatternCounts() map[signalproc.Pattern]int {
	out := make(map[signalproc.Pattern]int, signalproc.NumPatterns)
	for _, cls := range c.Classes {
		out[cls.Pattern]++
	}
	return out
}

// ClusteringConfig tunes the clustering service.
type ClusteringConfig struct {
	// ClassesPerPattern fixes the number of K-Means classes for a pattern.
	// Patterns not present in the map use a heuristic of one class per
	// TenantsPerClass tenants (at least one, at most MaxClassesPerPattern).
	ClassesPerPattern map[signalproc.Pattern]int
	// TenantsPerClass is the target number of tenants per class when
	// ClassesPerPattern does not specify a pattern. Zero means 30.
	TenantsPerClass int
	// MaxClassesPerPattern caps the per-pattern class count. Zero means 16.
	MaxClassesPerPattern int
	// Classifier configures the FFT-based pattern classification. Its
	// periodic band is interpreted relative to ReferenceWindow and rescaled
	// per tenant to the actual history window being classified.
	Classifier signalproc.ClassifierConfig
	// ReferenceWindow is the analysis window the Classifier thresholds were
	// tuned for. Zero means the paper's one month.
	ReferenceWindow time.Duration
	// DriftThreshold is the absolute change in a tenant's window mean or CV
	// (twice that for the peak) past which Recluster re-runs the full FFT
	// classification for the tenant instead of keeping its cached profile.
	// Zero means DefaultDriftThreshold.
	DriftThreshold float64
	// Seed drives the K-Means seeding, keeping runs reproducible.
	Seed int64
}

// DefaultDriftThreshold is the Recluster drift cut-off: 2 percentage points
// of utilization (or 0.02 of CV) — well above sampling noise on a multi-day
// window, well below a behaviour change that would move a tenant between
// classes.
const DefaultDriftThreshold = 0.02

// defaultReferenceWindow is the paper's one-month characterization window.
const defaultReferenceWindow = 30 * 24 * time.Hour

// DefaultClusteringConfig returns the configuration used by the experiments.
func DefaultClusteringConfig() ClusteringConfig {
	return ClusteringConfig{
		TenantsPerClass:      30,
		MaxClassesPerPattern: 16,
		Classifier:           signalproc.DefaultClassifierConfig(),
		Seed:                 1,
	}
}

// ClusteringService periodically (e.g. once per day, §4.1) re-derives the
// utilization classes from the most recent telemetry.
type ClusteringService struct {
	cfg ClusteringConfig
	// classify is signalproc.Classify; tests swap it to fail chosen tenants.
	classify func([]float64, signalproc.ClassifierConfig) (signalproc.Profile, error)
}

// NewClusteringService creates a clustering service.
func NewClusteringService(cfg ClusteringConfig) *ClusteringService {
	if cfg.TenantsPerClass <= 0 {
		cfg.TenantsPerClass = 30
	}
	if cfg.MaxClassesPerPattern <= 0 {
		cfg.MaxClassesPerPattern = 16
	}
	return &ClusteringService{cfg: cfg, classify: signalproc.Classify}
}

// patternOrder is the deterministic order pattern groups are clustered in;
// class IDs are assigned in this order, so it is part of the output contract.
var patternOrder = []signalproc.Pattern{
	signalproc.PatternConstant, signalproc.PatternPeriodic, signalproc.PatternUnpredictable,
}

// Cluster runs the full pipeline of §4.1 against the tenants' own generated
// trace series — the behaviour every experiment harness and simulator
// depends on. It is ClusterFrom over the trace-backed history source.
func (s *ClusteringService) Cluster(pop *tenant.Population) (*Clustering, error) {
	return s.ClusterFrom(pop, tenant.TraceHistory{Pop: pop})
}

// ClusterFrom runs the full pipeline of §4.1 from an arbitrary history
// source: classify each tenant's history window with the FFT, group tenants
// by pattern, and run K-Means within each pattern to form utilization
// classes. The source decides what "the most recent telemetry" means —
// a cyclic synthetic trace (tenant.TraceHistory) or live ingestion rings
// (telemetry.Store). Each tenant's Profile is updated in place.
//
// Tenants the source holds no history for (e.g. live rings evicted after the
// tenant stopped reporting) are left out of every class: an uncharacterizable
// tenant must not skew a class's statistics, and excluding its servers from
// the serving set is the SLO-safe direction. Clustering fails only when no
// tenant has history at all.
//
// The tenants are classified on one goroutine, so a serving daemon's periodic
// full rebuild leaves the other cores to requests.
func (s *ClusteringService) ClusterFrom(pop *tenant.Population, src tenant.HistorySource) (*Clustering, error) {
	return s.clusterFrom(pop, src, 1)
}

// ClusterFromAllCores is ClusterFrom with the tenants classified on every
// core, as ClassifyFrom does, for a caller with nothing else to run meanwhile:
// a daemon booting. Its result is ClusterFrom's, bit for bit.
func (s *ClusteringService) ClusterFromAllCores(pop *tenant.Population, src tenant.HistorySource) (*Clustering, error) {
	return s.clusterFrom(pop, src, runtime.GOMAXPROCS(0))
}

func (s *ClusteringService) clusterFrom(pop *tenant.Population, src tenant.HistorySource, workers int) (*Clustering, error) {
	if len(pop.Tenants) == 0 {
		return nil, fmt.Errorf("core: cannot cluster an empty population")
	}
	// (Re)classify tenants so the clustering reflects the latest telemetry.
	active, err := s.classifyFrom(pop, src, workers)
	if err != nil {
		return nil, err
	}
	var w WindowScratch
	w.group(active)
	rng := rand.New(rand.NewSource(s.cfg.Seed))
	var classes []*UtilizationClass
	for _, pattern := range patternOrder {
		tenants := w.groups[pattern]
		if len(tenants) == 0 {
			continue
		}
		k := s.classCount(pattern, len(tenants))
		result, err := w.kmeans.Cluster(rng, w.featureMatrix(tenants), kmeans.Config{K: k})
		if err != nil {
			return nil, fmt.Errorf("core: clustering %v tenants: %w", pattern, err)
		}
		classes = w.appendClasses(classes, nil, pop, pattern, tenants, result, nil)
	}
	return &Clustering{
		Classes:     classes,
		tenantClass: tenantIndex(classes, len(active)),
		serverClass: serverIndex(classes, pop.NumServers()),
	}, nil
}

// ClassifyFrom is ClusterFromAllCores' first pass on its own: it re-derives
// every tenant's Profile from its history window, in place, and returns the
// tenants that had a window to classify, in population order. A daemon
// restoring a clustering from disk runs it so its tenants' profiles describe
// the windows its rings hold, which the next warm Recluster measures drift
// against.
func (s *ClusteringService) ClassifyFrom(pop *tenant.Population, src tenant.HistorySource) ([]*tenant.Tenant, error) {
	return s.classifyFrom(pop, src, runtime.GOMAXPROCS(0))
}

// classifyFrom spreads the tenants over min(workers, tenants) goroutines,
// each with its own window scratch; the result does not depend on how many
// there are. A failure stops the pass, and the error returned is the one of
// the lowest failing index: tenants are claimed in order, so every tenant
// before it has been claimed and is classified before the pass returns.
func (s *ClusteringService) classifyFrom(pop *tenant.Population, src tenant.HistorySource, workers int) ([]*tenant.Tenant, error) {
	n := len(pop.Tenants)
	held := make([]bool, n)
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for range min(workers, n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			windows := newWindowReader(src, nil)
			for !failed.Load() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				t := pop.Tenants[i]
				values, interval := windows.read(t.ID)
				if len(values) < signalproc.MinClassifySamples {
					// Too little history to characterize (evicted ring, or one
					// just refilling): the tenant sits out this generation.
					continue
				}
				if err := s.classifyWindow(t, values, interval); err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
				held[i] = true
			}
		}()
	}
	wg.Wait()
	active := make([]*tenant.Tenant, 0, n)
	for i, t := range pop.Tenants {
		if errs[i] != nil {
			return nil, errs[i]
		}
		if held[i] {
			active = append(active, t)
		}
	}
	if len(active) == 0 {
		return nil, fmt.Errorf("core: history source holds no series for any tenant")
	}
	return active, nil
}

// windowReader reads one tenant's history window at a time for a pass over
// the population. A source that can fill caller-owned storage
// (tenant.HistoryWindow) fills the reader's one scratch buffer, so a pass
// allocates a window once per reader, not once per tenant; any other source
// lends its own series. A reader belongs to one goroutine.
type windowReader struct {
	src     tenant.HistorySource
	window  tenant.HistoryWindow // nil when src does not implement it
	scratch []float64
}

// newWindowReader starts a reader on scratch, which it reuses and grows.
func newWindowReader(src tenant.HistorySource, scratch []float64) *windowReader {
	window, _ := src.(tenant.HistoryWindow)
	return &windowReader{src: src, window: window, scratch: scratch}
}

// WindowScratch is the working storage a warm Recluster keeps across
// generations: the buffer history windows are read into, the tenants grouped
// by pattern, one group's feature matrix, the K-Means workspace, and the
// class list being assembled. A caller that re-clusters again and again keeps
// one and passes it to ReclusterWith, so a refresh in which no tenant moved
// allocates a handful of objects whatever the tenant and class counts; one
// pass uses it at a time. Nothing in it reaches a published Clustering: what
// a generation keeps is copied out of it, or is the previous generation's
// identical value.
type WindowScratch struct {
	values   []float64
	active   []*tenant.Tenant
	groups   [signalproc.NumPatterns][]*tenant.Tenant
	features []float64   // one group's feature vectors, row after row
	points   [][]float64 // the rows of features
	seeds    [][]float64 // the previous generation's centroids for one pattern
	order    []int       // one group's K-Means clusters in first-appearance order
	members  []tenant.ID // one class's tenants
	classes  []*UtilizationClass
	kmeans   kmeans.Workspace
}

// group splits active by pattern into w.groups, population order kept.
func (w *WindowScratch) group(active []*tenant.Tenant) {
	for p := range w.groups {
		w.groups[p] = w.groups[p][:0]
	}
	for _, t := range active {
		w.groups[t.Pattern()] = append(w.groups[t.Pattern()], t)
	}
}

// featureMatrix returns the tenants' feature vectors, one row each, in w's
// storage: valid until the next call.
func (w *WindowScratch) featureMatrix(tenants []*tenant.Tenant) [][]float64 {
	w.features = w.features[:0]
	for _, t := range tenants {
		w.features = t.Profile.AppendFeatures(w.features)
	}
	w.points = w.points[:0]
	for i := range tenants {
		w.points = append(w.points, w.features[i*signalproc.NumFeatures:(i+1)*signalproc.NumFeatures:(i+1)*signalproc.NumFeatures])
	}
	return w.points
}

// seedsFor returns the previous generation's centroids for a pattern, in
// class order, in w's storage.
func (w *WindowScratch) seedsFor(prev *Clustering, pattern signalproc.Pattern) [][]float64 {
	w.seeds = w.seeds[:0]
	for _, cls := range prev.Classes {
		if cls.Pattern == pattern {
			w.seeds = append(w.seeds, cls.Centroid)
		}
	}
	return w.seeds
}

// read returns the tenant's window and the slot width its values are spaced
// at, or no values when the source holds none. The values are only valid
// until the next read, and only to be read.
func (w *windowReader) read(id tenant.ID) ([]float64, time.Duration) {
	if w.window != nil {
		var interval time.Duration
		w.scratch, interval = w.window.AppendWindow(id, w.scratch[:0])
		return w.scratch, interval
	}
	if series := w.src.SeriesFor(id); series != nil {
		return series.Values, series.Interval
	}
	return nil, 0
}

// classifyWindow classifies one tenant from an already-materialized history
// window, rescaling the classifier's periodic band to the window's length.
// values is only read: it may be the pass's scratch window.
func (s *ClusteringService) classifyWindow(t *tenant.Tenant, values []float64, interval time.Duration) error {
	if len(values) == 0 {
		return fmt.Errorf("core: tenant %v: history source holds no series", t.ID)
	}
	ref := s.cfg.ReferenceWindow
	if ref <= 0 {
		ref = defaultReferenceWindow
	}
	window := time.Duration(len(values)) * interval
	p, err := s.classify(values, s.cfg.Classifier.ForWindow(window, ref))
	if err != nil {
		return fmt.Errorf("core: tenant %v: %w", t.ID, err)
	}
	t.Profile = p
	return nil
}

// appendClasses turns one pattern group's K-Means result into utilization
// classes appended to classes, numbered on from len(classes) in the order
// their first member appears in the group, each listing its members in group
// order. Empty clusters are dropped (possible when K exceeds the number of
// distinct profiles). Class utilization statistics are
// server-count-weighted over the members' profile windows: the peak is the
// weighted average of the members' peaks, so the class summarizes how high
// its typical server goes without a single outlier tenant making the whole
// class unusable for long jobs.
//
// Against a previous generation (nil for a from-scratch build), a class whose
// members, ID, pattern, centroid and statistics all equal a previous class's
// is that previous class itself, and one whose members alone match shares the
// previous class's tenant and server lists (immutable once published), which
// st counts as reused. Any other class is built fresh, its centroid copied out
// of the K-Means workspace.
func (w *WindowScratch) appendClasses(classes []*UtilizationClass, prev *Clustering, pop *tenant.Population,
	pattern signalproc.Pattern, tenants []*tenant.Tenant, result *kmeans.Result, st *ReclusterStats) []*UtilizationClass {
	w.order = w.order[:0]
	for _, ci := range result.Assignments {
		if !slices.Contains(w.order, ci) {
			w.order = append(w.order, ci)
		}
	}
	for _, ci := range w.order {
		id := ClassID(len(classes))
		members := w.members[:0]
		totalServers, avg, peak := 0.0, 0.0, 0.0
		for i, t := range tenants {
			if result.Assignments[i] != ci {
				continue
			}
			members = append(members, t.ID)
			weight := float64(t.NumServers())
			totalServers += weight
			avg += t.Profile.Mean * weight
			peak += t.Profile.Peak * weight
		}
		w.members = members
		if totalServers > 0 {
			avg /= totalServers
			peak /= totalServers
		}
		if peak < avg {
			peak = avg
		}
		centroid := result.Centroids[ci]
		p := prevClassMatching(prev, members)
		if p != nil && st != nil {
			st.ReusedClasses++
		}
		if p != nil && p.ID == id && p.Pattern == pattern && sameBits(p.AvgUtilization, avg) &&
			sameBits(p.PeakUtilization, peak) && slices.EqualFunc(p.Centroid, centroid, sameBits) {
			classes = append(classes, p)
			continue
		}
		cls := &UtilizationClass{
			ID:              id,
			Pattern:         pattern,
			AvgUtilization:  avg,
			PeakUtilization: peak,
			Centroid:        slices.Clone(centroid),
		}
		if p != nil {
			cls.Tenants, cls.Servers = p.Tenants, p.Servers
		} else {
			cls.Tenants = slices.Clone(members)
			for _, tid := range members {
				cls.Servers = append(cls.Servers, pop.ByID(tid).Servers...)
			}
		}
		classes = append(classes, cls)
	}
	return classes
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// tenantIndex maps every member tenant to its class.
func tenantIndex(classes []*UtilizationClass, tenants int) map[tenant.ID]ClassID {
	index := make(map[tenant.ID]ClassID, tenants)
	for _, cls := range classes {
		for _, tid := range cls.Tenants {
			index[tid] = cls.ID
		}
	}
	return index
}

// serverIndex maps every member server to its class.
func serverIndex(classes []*UtilizationClass, servers int) map[tenant.ServerID]ClassID {
	index := make(map[tenant.ServerID]ClassID, servers)
	for _, cls := range classes {
		for _, srv := range cls.Servers {
			index[srv] = cls.ID
		}
	}
	return index
}

// NewClusteringFromClasses reassembles a Clustering from its classes — the
// restore path for snapshots read back from disk or a replication frame.
// Membership maps are rebuilt; duplicate tenant or server membership across
// classes is rejected.
func NewClusteringFromClasses(classes []*UtilizationClass) (*Clustering, error) {
	c := &Clustering{
		Classes:     classes,
		tenantClass: make(map[tenant.ID]ClassID),
		serverClass: make(map[tenant.ServerID]ClassID),
	}
	for _, cls := range classes {
		for _, tid := range cls.Tenants {
			if _, dup := c.tenantClass[tid]; dup {
				return nil, fmt.Errorf("core: tenant %v in two classes", tid)
			}
			c.tenantClass[tid] = cls.ID
		}
		for _, srv := range cls.Servers {
			if _, dup := c.serverClass[srv]; dup {
				return nil, fmt.Errorf("core: server %v in two classes", srv)
			}
			c.serverClass[srv] = cls.ID
		}
	}
	slices.SortFunc(c.Classes, func(a, b *UtilizationClass) int { return cmp.Compare(a.ID, b.ID) })
	return c, nil
}

func (s *ClusteringService) classCount(pattern signalproc.Pattern, numTenants int) int {
	if k, ok := s.cfg.ClassesPerPattern[pattern]; ok && k > 0 {
		return k
	}
	k := numTenants / s.cfg.TenantsPerClass
	k = int(stats.Clamp(float64(k), 1, float64(s.cfg.MaxClassesPerPattern)))
	return k
}
