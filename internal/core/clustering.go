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
	"fmt"
	"math/rand"
	"sort"
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
}

// NewClusteringService creates a clustering service.
func NewClusteringService(cfg ClusteringConfig) *ClusteringService {
	if cfg.TenantsPerClass <= 0 {
		cfg.TenantsPerClass = 30
	}
	if cfg.MaxClassesPerPattern <= 0 {
		cfg.MaxClassesPerPattern = 16
	}
	return &ClusteringService{cfg: cfg}
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
func (s *ClusteringService) ClusterFrom(pop *tenant.Population, src tenant.HistorySource) (*Clustering, error) {
	if len(pop.Tenants) == 0 {
		return nil, fmt.Errorf("core: cannot cluster an empty population")
	}
	// (Re)classify tenants so the clustering reflects the latest telemetry.
	windows := newWindowReader(src)
	active := make([]*tenant.Tenant, 0, len(pop.Tenants))
	for _, t := range pop.Tenants {
		values, interval := windows.read(t.ID)
		if len(values) < signalproc.MinClassifySamples {
			// Too little history to characterize (evicted ring, or one just
			// refilling): the tenant sits out this generation.
			continue
		}
		if err := s.classifyWindow(t, values, interval); err != nil {
			return nil, err
		}
		active = append(active, t)
	}
	if len(active) == 0 {
		return nil, fmt.Errorf("core: history source holds no series for any tenant")
	}
	clustering := newClustering(pop)
	rng := rand.New(rand.NewSource(s.cfg.Seed))
	byPattern := groupByPattern(active)
	for _, pattern := range patternOrder {
		tenants := byPattern[pattern]
		if len(tenants) == 0 {
			continue
		}
		k := s.classCount(pattern, len(tenants))
		result, err := kmeans.Cluster(rng, featureVectors(tenants), kmeans.Config{K: k})
		if err != nil {
			return nil, fmt.Errorf("core: clustering %v tenants: %w", pattern, err)
		}
		s.appendClasses(clustering, pop, pattern, tenants, result)
	}
	sortClasses(clustering)
	return clustering, nil
}

// windowReader reads one tenant's history window at a time for a pass over
// the population. A source that can fill caller-owned storage
// (tenant.HistoryWindow) fills the reader's one scratch buffer, so the pass
// allocates a window once, not once per tenant; any other source lends its own
// series.
type windowReader struct {
	src     tenant.HistorySource
	window  tenant.HistoryWindow // nil when src does not implement it
	scratch []float64
}

func newWindowReader(src tenant.HistorySource) *windowReader {
	window, _ := src.(tenant.HistoryWindow)
	return &windowReader{src: src, window: window}
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
	p, err := signalproc.Classify(values, s.cfg.Classifier.ForWindow(window, ref))
	if err != nil {
		return fmt.Errorf("core: tenant %v: %w", t.ID, err)
	}
	t.Profile = p
	return nil
}

func newClustering(pop *tenant.Population) *Clustering {
	return &Clustering{
		tenantClass: make(map[tenant.ID]ClassID, len(pop.Tenants)),
		serverClass: make(map[tenant.ServerID]ClassID, pop.NumServers()),
	}
}

func groupByPattern(tenants []*tenant.Tenant) map[signalproc.Pattern][]*tenant.Tenant {
	byPattern := make(map[signalproc.Pattern][]*tenant.Tenant, signalproc.NumPatterns)
	for _, t := range tenants {
		byPattern[t.Pattern()] = append(byPattern[t.Pattern()], t)
	}
	return byPattern
}

func featureVectors(tenants []*tenant.Tenant) [][]float64 {
	points := make([][]float64, len(tenants))
	for i, t := range tenants {
		points[i] = t.Profile.FeatureVector()
	}
	return points
}

// appendClasses turns one pattern group's K-Means result into utilization
// classes appended to the clustering. Empty clusters are dropped (possible
// when K exceeds the number of distinct profiles). Class utilization
// statistics are server-count-weighted over the members' profile windows:
// the peak is the weighted average of the members' peaks, so the class
// summarizes how high its typical server goes without a single outlier
// tenant making the whole class unusable for long jobs.
func (s *ClusteringService) appendClasses(clustering *Clustering, pop *tenant.Population,
	pattern signalproc.Pattern, tenants []*tenant.Tenant, result *kmeans.Result) {
	s.appendClassesLite(clustering, pop, pattern, tenants, result)
	for _, t := range tenants {
		cls := clustering.Classes[clustering.tenantClass[t.ID]]
		cls.Servers = append(cls.Servers, t.Servers...)
		for _, srv := range t.Servers {
			clustering.serverClass[srv] = cls.ID
		}
	}
}

// appendClassesLite is appendClasses without the per-server work: classes,
// tenant membership, and class statistics only. The incremental path
// (Recluster) uses it and then splices server lists and assignments from the
// previous generation instead of rebuilding them per server.
func (s *ClusteringService) appendClassesLite(clustering *Clustering, pop *tenant.Population,
	pattern signalproc.Pattern, tenants []*tenant.Tenant, result *kmeans.Result) {
	classIndex := make(map[int]*UtilizationClass, len(result.Centroids))
	for i, t := range tenants {
		ci := result.Assignments[i]
		cls, ok := classIndex[ci]
		if !ok {
			cls = &UtilizationClass{
				ID:       ClassID(len(clustering.Classes)),
				Pattern:  pattern,
				Centroid: result.Centroids[ci],
			}
			classIndex[ci] = cls
			clustering.Classes = append(clustering.Classes, cls)
		}
		cls.Tenants = append(cls.Tenants, t.ID)
		clustering.tenantClass[t.ID] = cls.ID
	}
	for _, cls := range classIndex {
		totalServers := 0.0
		avg := 0.0
		peak := 0.0
		for _, tid := range cls.Tenants {
			t := pop.ByID(tid)
			w := float64(t.NumServers())
			totalServers += w
			avg += t.Profile.Mean * w
			peak += t.Profile.Peak * w
		}
		if totalServers > 0 {
			avg /= totalServers
			peak /= totalServers
		}
		if peak < avg {
			peak = avg
		}
		cls.AvgUtilization = avg
		cls.PeakUtilization = peak
	}
}

// sortClasses keeps class ordering stable by ID.
func sortClasses(clustering *Clustering) {
	sort.Slice(clustering.Classes, func(i, j int) bool {
		return clustering.Classes[i].ID < clustering.Classes[j].ID
	})
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
	sortClasses(c)
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
