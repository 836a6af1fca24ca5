// Package service is the serving layer of the reproduction: the paper's
// cluster characterization service (§4.1, §6.2) as a long-running component
// rather than a batch harness. It periodically re-derives each datacenter's
// utilization classes and placement scheme from the latest telemetry and
// exposes them — plus the two online algorithms, class selection (Alg. 1) and
// replica placement (Alg. 2) — to schedulers and file systems over an HTTP
// JSON API (http.go).
//
// Concurrency model: each datacenter is a shard holding an immutable
// *Snapshot behind an atomic.Pointer. Readers load the pointer and work on a
// self-contained, never-mutated object; a per-shard refresher goroutine
// builds the next snapshot off to the side and publishes it with a single
// atomic swap, so queries never block on a rebuild and never see a
// half-updated clustering. The mutable scratch state the core algorithms
// need (placement scratch buffers, RNGs) comes from sync.Pools, keeping the
// steady-state query path allocation-light in the spirit of PR 1.
package service

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"harvest/internal/core"
	"harvest/internal/experiments"
	"harvest/internal/signalproc"
	"harvest/internal/tenant"
	"harvest/internal/wire"
)

// Snapshot is one datacenter's immutable characterization state: the
// clustering, the per-class usage view, and the placement scheme, all derived
// from the same telemetry instant. Every exported field is read-only after
// build; sharing a snapshot between any number of goroutines is safe.
type Snapshot struct {
	// Datacenter is the profile name, e.g. "DC-9".
	Datacenter string
	// Generation counts rebuilds, starting at 1 for the boot snapshot. A
	// daemon restored from a persisted snapshot resumes at the persisted
	// generation.
	Generation uint64
	// AsOf is the position on the telemetry clock the snapshot was built at:
	// the history source's horizon (the offset of the freshest sample in the
	// ingestion rings) at build time. It advances when ingested telemetry
	// does, not per refresh.
	AsOf time.Duration
	// BuiltAt and BuildDuration record when and how expensively the snapshot
	// was produced (exported on /metrics as snapshot age).
	BuiltAt       time.Time
	BuildDuration time.Duration

	// Clustering is the utilization-class structure (§4.1).
	Clustering *core.Clustering
	// Usage holds each class's current utilization at AsOf. Treated as
	// read-only by every query. Between refreshes the service overlays this
	// with a live view recomputed from recent ring samples (Service.UsageFor);
	// this field is the view frozen at build time.
	Usage map[core.ClassID]core.ClassUsage
	// Thresholds are the job-length cut-offs select requests are classified
	// with when they carry a last-run duration instead of an explicit type.
	Thresholds core.LengthThresholds

	selector *core.Selector
	scheme   *core.PlacementScheme

	// placers pools PlacementScheme clones: Alg. 2 needs mutable scratch
	// buffers, so concurrent place queries each borrow a clone sharing this
	// snapshot's immutable indexes. The pool dies with the snapshot.
	placers sync.Pool
}

// buildSnapshot derives a snapshot from a population and a history source,
// clustering from scratch. The refresher's warm path builds the clustering
// with core.Recluster instead and assembles with assembleSnapshot directly.
func buildSnapshot(dc string, pop *tenant.Population, src tenant.HistorySource, cfg Config, generation uint64) (*Snapshot, error) {
	start := time.Now()
	clusterer := core.NewClusteringService(cfg.Clustering)
	clustering, err := clusterer.ClusterFrom(pop, src)
	if err != nil {
		return nil, fmt.Errorf("service: %s: %w", dc, err)
	}
	return assembleSnapshot(dc, pop, src, cfg, generation, clustering, start, nil)
}

// assembleSnapshot wraps a ready clustering in a queryable snapshot: the
// selector, the placement scheme, and the usage view at the source's
// horizon. The caller (one refresher goroutine per shard, serialized by the
// shard mutex) is the only writer of pop; the returned snapshot copies or
// shares only state that is never written afterwards.
//
// When prev is non-nil its placement scheme is shared instead of rebuilt:
// the scheme is a pure function of the population (replica cells are formed
// from tenant reimaging and peak behaviour, not from the clustering), the
// population is fixed for the life of the shard, and published schemes are
// immutable — queries run on pooled clones. This removes the one remaining
// O(servers) stage from the warm refresh path.
func assembleSnapshot(dc string, pop *tenant.Population, src tenant.HistorySource, cfg Config,
	generation uint64, clustering *core.Clustering, start time.Time, prev *Snapshot) (*Snapshot, error) {
	selector, err := core.NewSelector(cfg.Selector, clustering, nil)
	if err != nil {
		return nil, fmt.Errorf("service: %s: %w", dc, err)
	}
	var scheme *core.PlacementScheme
	if prev != nil && prev.scheme != nil {
		scheme = prev.scheme
	} else {
		scheme, err = core.BuildPlacementScheme(experiments.PlacementInfos(pop))
		if err != nil {
			return nil, fmt.Errorf("service: %s: %w", dc, err)
		}
	}

	// The usage view: each class's server-weighted utilization at the
	// source's horizon, the quantity NM heartbeats would report live (§4.1).
	asOf := src.Horizon()
	usage := weightedClassUsage(clustering.Classes, pop, func(_ *core.UtilizationClass, tid tenant.ID) float64 {
		return src.UtilizationAt(tid, asOf)
	})

	snap := &Snapshot{
		Datacenter:    dc,
		Generation:    generation,
		AsOf:          asOf,
		BuiltAt:       start,
		BuildDuration: time.Since(start),
		Clustering:    clustering,
		Usage:         usage,
		Thresholds:    cfg.Selector.Thresholds,
		selector:      selector,
		scheme:        scheme,
	}
	snap.placers.New = func() any { return scheme.CloneForConcurrentUse() }
	return snap, nil
}

// classRecords is a snapshot's class list in record form, each class's current
// utilization read from usage: what <dc>.snapshot.json and an OpReplSnap frame
// both carry, and what snapshotFromRecords reads back.
func classRecords(snap *Snapshot, usage map[core.ClassID]core.ClassUsage) []wire.ReplClass {
	recs := make([]wire.ReplClass, 0, len(snap.Clustering.Classes))
	for _, cls := range snap.Clustering.Classes {
		rc := wire.ReplClass{
			ID:       uint32(cls.ID),
			Pattern:  uint8(cls.Pattern),
			Avg:      cls.AvgUtilization,
			Peak:     cls.PeakUtilization,
			Current:  usage[cls.ID].CurrentUtilization,
			Centroid: cls.Centroid,
			Tenants:  make([]int64, len(cls.Tenants)),
			Servers:  make([]int64, len(cls.Servers)),
		}
		for i, tid := range cls.Tenants {
			rc.Tenants[i] = int64(tid)
		}
		for i, srv := range cls.Servers {
			rc.Servers[i] = int64(srv)
		}
		recs = append(recs, rc)
	}
	return recs
}

// snapshotFromRecords reassembles a shard's snapshot from its record form —
// the one way state written by classRecords comes back, at boot from the file
// and on a follower from a frame, so the two cannot read it differently. The
// records are checked against the shard's population (a class list must be
// non-empty, name known patterns and known tenants, and form a clustering),
// the recorded view is kept verbatim — usage, AsOf, BuiltAt: the snapshot
// represents the state as of its original build, and its age stays honest
// about that — and the telemetry clock is pulled up to the recorded AsOf, past
// the bootstrap window the rings were seeded from, so the next refresh cannot
// move AsOf backwards. prev, when the shard already serves a snapshot, lends
// its placement scheme. The records' centroid slices are kept.
func (s *Service) snapshotFromRecords(sh *shard, generation uint64, asOfSeconds float64, builtAt time.Time,
	recs []wire.ReplClass, prev *Snapshot) (*Snapshot, error) {
	if len(recs) == 0 {
		return nil, fmt.Errorf("no classes")
	}
	start := time.Now()
	classes := make([]*core.UtilizationClass, 0, len(recs))
	usage := make(map[core.ClassID]core.ClassUsage, len(recs))
	for i := range recs {
		rc := &recs[i]
		if int(rc.Pattern) >= signalproc.NumPatterns {
			return nil, fmt.Errorf("class %d: bad pattern %d", rc.ID, rc.Pattern)
		}
		cls := &core.UtilizationClass{
			ID:              core.ClassID(rc.ID),
			Pattern:         signalproc.Pattern(rc.Pattern),
			AvgUtilization:  rc.Avg,
			PeakUtilization: rc.Peak,
			Centroid:        rc.Centroid,
			Tenants:         make([]tenant.ID, len(rc.Tenants)),
			Servers:         make([]tenant.ServerID, len(rc.Servers)),
		}
		for j, tid := range rc.Tenants {
			id := tenant.ID(tid)
			if sh.pop.ByID(id) == nil {
				return nil, fmt.Errorf("class %d names unknown tenant %d (population mismatch: same -dcs/-scale/-seed as the writer?)", rc.ID, tid)
			}
			cls.Tenants[j] = id
		}
		for j, srv := range rc.Servers {
			cls.Servers[j] = tenant.ServerID(srv)
		}
		classes = append(classes, cls)
		usage[cls.ID] = core.ClassUsage{CurrentUtilization: rc.Current}
	}
	clustering, err := core.NewClusteringFromClasses(classes)
	if err != nil {
		return nil, err
	}
	snap, err := assembleSnapshot(sh.dc, sh.pop, sh.rings, s.cfg, generation, clustering, start, prev)
	if err != nil {
		return nil, err
	}
	snap.Usage = usage
	snap.AsOf = time.Duration(asOfSeconds * float64(time.Second))
	snap.BuiltAt = builtAt
	sh.rings.AdvanceClock(snap.AsOf)
	return snap, nil
}

// weightedClassUsage computes the per-class usage view: each class's
// server-count-weighted average of a per-tenant utilization reading. Both
// the build-time view (history source at the horizon) and the live view
// (latest ring samples, Service.UsageFor) are this aggregation with a
// different value lookup.
func weightedClassUsage(classes []*core.UtilizationClass, pop *tenant.Population,
	value func(cls *core.UtilizationClass, tid tenant.ID) float64) map[core.ClassID]core.ClassUsage {
	usage := make(map[core.ClassID]core.ClassUsage, len(classes))
	for _, cls := range classes {
		var sum, weight float64
		for _, tid := range cls.Tenants {
			t := pop.ByID(tid)
			if t == nil {
				continue
			}
			w := float64(t.NumServers())
			sum += value(cls, tid) * w
			weight += w
		}
		if weight > 0 {
			sum /= weight
		}
		usage[cls.ID] = core.ClassUsage{CurrentUtilization: sum}
	}
	return usage
}

// Select runs class selection (Alg. 1) against the snapshot's build-time
// usage view. Safe for any number of concurrent callers; each must bring its
// own RNG. The service's query path uses SelectIndexed with the live view.
func (s *Snapshot) Select(rng *rand.Rand, job core.JobRequest) core.Selection {
	return s.selector.SelectWith(rng, job, s.Usage)
}

// BuildSelectIndex precomputes the headroom index for a utilization view —
// one build per (snapshot generation, ingest progress) pair, shared by every
// query until the view moves.
func (s *Snapshot) BuildSelectIndex(usage map[core.ClassID]core.ClassUsage) *core.SelectIndex {
	return s.selector.BuildIndex(usage)
}

// SelectIndexed runs class selection through a precomputed index, with live
// per-class allocation from alloc. Picks are draw-for-draw identical to
// core.Selector.SelectFrom over the view the index was built from.
func (s *Snapshot) SelectIndexed(rng *rand.Rand, job core.JobRequest, idx *core.SelectIndex, alloc core.AllocSource) core.Selection {
	return s.selector.SelectIndexed(rng, job, idx, alloc)
}

// CapacityCores returns a class's gross spare-core bound for a job type at
// the given usage — the admission ceiling the allocation ledger enforces
// (headroom before subtracting allocations). Zero for unknown classes.
func (s *Snapshot) CapacityCores(jobType core.JobType, id core.ClassID, usage core.ClassUsage) float64 {
	cls := s.Clustering.Class(id)
	if cls == nil {
		return 0
	}
	return s.selector.Capacity(jobType, cls, usage)
}

// Headroom reports a class's available cores for a job type at the
// snapshot's usage view.
func (s *Snapshot) Headroom(jobType core.JobType, cls *core.UtilizationClass) float64 {
	return s.selector.Headroom(jobType, cls, s.Usage[cls.ID])
}

// Place runs replica placement (Alg. 2) on a pooled clone of the snapshot's
// placement scheme. Safe for any number of concurrent callers.
func (s *Snapshot) Place(rng *rand.Rand, c core.PlacementConstraints) ([]tenant.ServerID, error) {
	return s.placeInto(nil, rng, c)
}

// placeInto is Place into the caller's buffer (core's PlaceReplicasInto).
func (s *Snapshot) placeInto(dst []tenant.ServerID, rng *rand.Rand, c core.PlacementConstraints) ([]tenant.ServerID, error) {
	placer := s.placers.Get().(*core.PlacementScheme)
	replicas, err := placer.PlaceReplicasInto(dst, rng, c)
	s.placers.Put(placer)
	return replicas, err
}

// PlaceSlot runs the re-replication variant of Alg. 2 on a pooled clone: one
// server for the empty slot of a block whose slots are given in order, the
// survivors' diversity constraints carried over by slot position. Safe for any
// number of concurrent callers.
func (s *Snapshot) PlaceSlot(rng *rand.Rand, slots []tenant.ServerID, slot int, c core.PlacementConstraints) (tenant.ServerID, error) {
	placer := s.placers.Get().(*core.PlacementScheme)
	server, err := placer.PlaceSlot(rng, slots, slot, c)
	s.placers.Put(placer)
	return server, err
}

// ClassOfServer resolves a server to its utilization class.
func (s *Snapshot) ClassOfServer(id tenant.ServerID) (*core.UtilizationClass, bool) {
	cid, ok := s.Clustering.ClassOfServer(id)
	if !ok {
		return nil, false
	}
	return s.Clustering.Class(cid), true
}

// Scheme exposes the snapshot's placement scheme for read-only inspection
// (cell populations, space imbalance). Callers must not run PlaceReplicas on
// it directly — that is what Place is for.
func (s *Snapshot) Scheme() *core.PlacementScheme { return s.scheme }

// Age returns how long ago the snapshot was built.
func (s *Snapshot) Age() time.Duration { return time.Since(s.BuiltAt) }
