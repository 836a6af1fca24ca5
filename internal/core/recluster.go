package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"harvest/internal/kmeans"
	"harvest/internal/signalproc"
	"harvest/internal/stats"
	"harvest/internal/tenant"
)

// ReclusterStats reports what an incremental re-clustering actually did —
// how much of the full pipeline it was able to skip, and why.
//
// It is also the "recluster" section of the serving layer's /metrics, in both
// expositions (see obs.WriteMetrics for the tags): the most recent warm refresh's
// work, all zeros until the first one (boot is a full build).
type ReclusterStats struct {
	// Tenants is the number of tenants examined.
	Tenants int `json:"tenants"`
	// Skipped counts tenants the history source held no series for (evicted
	// telemetry rings); they are left out of every class.
	Skipped int `json:"-"`
	// Reclassified counts tenants that drifted past the threshold and were
	// re-run through the full FFT classification — the expensive step the
	// warm start exists to avoid. Drifted is the same count under the name
	// /metrics has always published it by. Both are zero on a full rebuild,
	// where every tenant is re-run by definition.
	Reclassified int `json:"reclassified"`
	Drifted      int `json:"drifted"`
	// PatternChanged counts reclassified tenants whose pattern flipped
	// (e.g. periodic -> unpredictable), forcing them into another group.
	PatternChanged int `json:"pattern_changed"`
	// Quiet counts tenants whose history window was provably unchanged since
	// their last drift evaluation (tenant.HistoryStats change mark), letting
	// the drift check skip the window copy and summary entirely.
	Quiet int `json:"quiet"`
	// MovedTenants counts tenants whose class assignment changed from the
	// previous generation (drifted movers, K-Means reshuffles, and drop-outs).
	MovedTenants int `json:"moved_tenants"`
	// ReusedClasses counts classes whose tenant membership is unchanged and
	// which therefore share the previous generation's server list instead of
	// rebuilding it.
	ReusedClasses int `json:"reused_classes"`
	// SplicedServers is the size of the server→class delta this generation
	// layers over the previous generation's shared assignment map — zero
	// when the map is shared outright (steady state) or was flattened fresh.
	SplicedServers int `json:"spliced_servers"`
	// WarmPatterns and ColdPatterns count pattern groups whose K-Means was
	// seeded from the previous generation's centroids vs. re-seeded from
	// scratch (class count changed, or the group is new).
	WarmPatterns int `json:"-"`
	ColdPatterns int `json:"-"`
	// Iterations is the total number of Lloyd iterations across groups.
	Iterations int `json:"-"`
	// FullRebuild is true when Recluster fell back to a from-scratch
	// ClusterFrom (no usable previous generation).
	FullRebuild bool `json:"full_rebuild"`
	// DriftThreshold is the threshold this round's drift checks ran with —
	// the configured value, or the auto-tuned override the serving layer
	// feeds back from full-rebuild agreement (service.refreshShard).
	DriftThreshold float64 `json:"drift_threshold" prom:"harvestd_drift_threshold,gauge,omitzero" help:"Auto-tuned warm-recluster drift threshold."`
	// FullAgreement is the fraction of tenants whose pattern assignment a
	// periodic full rebuild agreed with the previous warm generation on —
	// the disagreement signal the drift-threshold auto-tuner consumes.
	// Negative when not measured (warm rounds, boot).
	FullAgreement float64 `json:"full_agreement" prom:"harvestd_full_rebuild_agreement,gauge" help:"Clustering agreement between warm path and last full rebuild (-1 until measured)."`
}

// Recluster derives the next clustering generation incrementally from the
// previous one. Instead of re-running the full §4.1 pipeline, it
//
//  1. re-runs the FFT classification only for tenants whose history window
//     drifted past the configured threshold (a cheap one-pass time-domain
//     check against the tenant's cached profile decides), and
//  2. warm-starts each pattern group's K-Means from the previous
//     generation's centroids, so Lloyd resumes at (or next to) the old fixed
//     point and converges in a handful of iterations.
//
// A full rebuild remains the fallback — prev == nil (or an empty previous
// clustering) degrades to ClusterFrom — and the correctness oracle: on
// undrifted data Recluster converges to the same fixed point a from-scratch
// run finds, which TestReclusterAgreesWithFullRebuild pins.
//
// The caller must pass the same population the previous clustering was built
// over (tenant profiles cache the previous window's summary statistics; the
// drift check depends on them).
func (s *ClusteringService) Recluster(prev *Clustering, pop *tenant.Population, src tenant.HistorySource) (*Clustering, ReclusterStats, error) {
	return s.ReclusterWith(new(WindowScratch), prev, pop, src)
}

// ReclusterWith is Recluster in the working storage w.
func (s *ClusteringService) ReclusterWith(w *WindowScratch, prev *Clustering, pop *tenant.Population, src tenant.HistorySource) (*Clustering, ReclusterStats, error) {
	var st ReclusterStats
	st.Tenants = len(pop.Tenants)
	st.FullAgreement = -1
	if prev == nil || len(prev.Classes) == 0 {
		st.FullRebuild = true
		st.Reclassified = st.Tenants
		c, err := s.ClusterFrom(pop, src)
		return c, st, err
	}
	if len(pop.Tenants) == 0 {
		return nil, st, fmt.Errorf("core: cannot recluster an empty population")
	}

	thr := s.cfg.DriftThreshold
	if thr <= 0 {
		thr = DefaultDriftThreshold
	}
	st.DriftThreshold = thr
	hist, _ := src.(tenant.HistoryStats)
	reader := newWindowReader(src, w.values)
	defer func() { w.values = reader.scratch }()
	active := w.active[:0]
	defer func() { w.active = active[:0] }()
	for _, t := range pop.Tenants {
		_, hadClass := prev.ClassOfTenant(t.ID)
		var mark uint64
		haveMark := false
		if hist != nil {
			n, m, ok := hist.HistoryStats(t.ID)
			if !ok || n < signalproc.MinClassifySamples {
				st.Skipped++
				continue
			}
			if hadClass && m == t.HistoryMark {
				// The window is bit-identical to the tenant's last drift
				// evaluation, so the verdict is too — and an evaluation
				// always ends "not drifted" (one that drifted reclassified,
				// rebasing the profile on this very window). Skip the O(window)
				// copy and summary. The mark is read before the copy below, so
				// a racing ingest at worst forces a redundant check next round.
				st.Quiet++
				active = append(active, t)
				continue
			}
			mark, haveMark = m, true
		}
		values, interval := reader.read(t.ID)
		if len(values) < signalproc.MinClassifySamples {
			// Same contract as ClusterFrom: a tenant the source holds too
			// little history for (evicted or refilling ring) drops out of
			// every class this generation.
			st.Skipped++
			continue
		}
		active = append(active, t)
		if haveMark {
			t.HistoryMark = mark
		}
		mean, peak, cv := stats.Summary(values)
		// The baseline is the summary captured at the tenant's last FFT
		// classification — it is deliberately NOT refreshed on undrifted
		// rounds, so slow cumulative drift accumulates against the last
		// classification and eventually crosses the threshold instead of
		// being rebaselined away one sub-threshold step at a time.
		drifted := !hadClass ||
			math.Abs(mean-t.Profile.Mean) > thr ||
			math.Abs(peak-t.Profile.Peak) > 2*thr ||
			math.Abs(cv-t.Profile.CV) > thr
		if drifted {
			oldPattern := t.Profile.Pattern
			if err := s.classifyWindow(t, values, interval); err != nil {
				return nil, st, err
			}
			st.Reclassified++
			st.Drifted++
			if hadClass && t.Profile.Pattern != oldPattern {
				st.PatternChanged++
			}
		}
	}
	if len(active) == 0 {
		return nil, st, fmt.Errorf("core: history source holds no series for any tenant")
	}

	// The K-Means passes run in w's storage and assemble the classes in
	// w.classes; server membership is spliced from the previous generation
	// after them. The seeding RNG is made only if a group needs re-seeding.
	w.group(active)
	var rng *rand.Rand
	classes := w.classes[:0]
	defer func() { w.classes = classes[:0] }()
	for _, pattern := range patternOrder {
		tenants := w.groups[pattern]
		if len(tenants) == 0 {
			continue
		}
		k := s.classCount(pattern, len(tenants))
		points := w.featureMatrix(tenants)
		var result *kmeans.Result
		var err error
		if seeds := w.seedsFor(prev, pattern); len(seeds) == k {
			result, err = w.kmeans.ClusterFrom(points, seeds, kmeans.Config{})
			st.WarmPatterns++
		} else {
			// The target class count changed (tenants moved between patterns)
			// or the previous generation had no classes for this pattern:
			// re-seed this group from scratch.
			if rng == nil {
				rng = rand.New(rand.NewSource(s.cfg.Seed))
			}
			result, err = w.kmeans.Cluster(rng, points, kmeans.Config{K: k})
			st.ColdPatterns++
		}
		if err != nil {
			return nil, st, fmt.Errorf("core: reclustering %v tenants: %w", pattern, err)
		}
		st.Iterations += result.Iterations
		classes = w.appendClasses(classes, prev, pop, pattern, tenants, result, &st)
	}
	clustering := &Clustering{Classes: prev.Classes}
	if !slices.Equal(classes, prev.Classes) {
		clustering.Classes = slices.Clone(classes)
	}
	spliceMembership(clustering, prev, pop, &st)
	return clustering, st, nil
}

// spliceMembership fills the incremental generation's membership maps from
// the previous one instead of rebuilding them per server. appendClasses has
// already given every class whose tenant membership is unchanged the previous
// generation's Servers slice. Then:
//
//   - when no tenant changed class, joined or dropped out, the generation
//     shares all three of the previous generation's maps outright, and
//   - otherwise the tenant map is built afresh, and the server→class map is
//     the previous generation's shared outright, shadowed by a delta holding
//     only the servers of tenants whose assignment changed (classNone
//     tombstones for drop-outs).
//
// The delta accumulates across warm generations and is flattened into a
// fresh full map once it outgrows a quarter of the fleet — and on every full
// rebuild, which takes the from-scratch path entirely. In the steady state
// (no drift, stable K-Means fixed point) nothing moved: every class is the
// previous generation's and every map is shared, making the whole refresh
// independent of server count.
func spliceMembership(clustering, prev *Clustering, pop *tenant.Population, st *ReclusterStats) {
	if sameAssignment(clustering.Classes, prev) {
		clustering.tenantClass = prev.tenantClass
		clustering.serverClass, clustering.serverDelta = prev.serverClass, prev.serverDelta
		st.SplicedServers = len(clustering.serverDelta)
		return
	}
	clustering.tenantClass = tenantIndex(clustering.Classes, len(pop.Tenants))

	delta := make(map[tenant.ServerID]ClassID, len(prev.serverDelta))
	for srv, cid := range prev.serverDelta {
		delta[srv] = cid
	}
	for _, t := range pop.Tenants {
		newCID, inNew := clustering.tenantClass[t.ID]
		prevCID, inPrev := prev.ClassOfTenant(t.ID)
		if inNew == inPrev && (!inNew || newCID == prevCID) {
			continue // any inherited delta entries for this tenant still hold
		}
		st.MovedTenants++
		target := classNone
		if inNew {
			target = newCID
		}
		for _, srv := range t.Servers {
			delta[srv] = target
		}
	}

	switch total := pop.NumServers(); {
	case len(prev.serverClass) == 0 || len(delta)*4 > total:
		// No base to share, or the splice stopped paying for itself:
		// flatten into a fresh full map and drop the chain.
		clustering.serverClass = serverIndex(clustering.Classes, total)
	case len(delta) == 0:
		clustering.serverClass = prev.serverClass
	default:
		clustering.serverClass = prev.serverClass
		clustering.serverDelta = delta
	}
	st.SplicedServers = len(clustering.serverDelta)
}

// sameAssignment reports whether classes assign exactly the tenants prev
// does, each to the same class ID.
func sameAssignment(classes []*UtilizationClass, prev *Clustering) bool {
	n := 0
	for _, cls := range classes {
		n += len(cls.Tenants)
		for _, tid := range cls.Tenants {
			if cid, ok := prev.tenantClass[tid]; !ok || cid != cls.ID {
				return false
			}
		}
	}
	return n == len(prev.tenantClass)
}

// prevClassMatching returns the previous generation's class with the exact
// same tenant membership (same tenants, same order) as members, or nil —
// always nil without a previous generation. The candidate is found through
// the first member's previous assignment, so the check is O(members).
func prevClassMatching(prev *Clustering, members []tenant.ID) *UtilizationClass {
	if prev == nil || len(members) == 0 {
		return nil
	}
	pid, ok := prev.ClassOfTenant(members[0])
	if !ok {
		return nil
	}
	p := prev.Class(pid)
	if p == nil || !slices.Equal(p.Tenants, members) {
		return nil
	}
	return p
}
