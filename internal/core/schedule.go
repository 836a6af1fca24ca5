package core

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"harvest/internal/signalproc"
	"harvest/internal/stats"
)

// JobType is the coarse length category of a batch job (§4.1): the scheduler
// only needs to know whether a job is short, medium, or long, not an accurate
// runtime estimate.
type JobType int

const (
	// JobShort is a job shorter than the short/medium threshold.
	JobShort JobType = iota
	// JobMedium is a job between the two thresholds (also the default for
	// jobs that have never run before).
	JobMedium
	// JobLong is a job longer than the medium/long threshold.
	JobLong

	// NumJobTypes is the number of job length categories.
	NumJobTypes = 3
)

// String implements fmt.Stringer.
func (t JobType) String() string {
	switch t {
	case JobShort:
		return "short"
	case JobMedium:
		return "medium"
	case JobLong:
		return "long"
	default:
		return fmt.Sprintf("JobType(%d)", int(t))
	}
}

// LengthThresholds are the two duration cut-offs separating short, medium and
// long jobs. The testbed experiments use 173 s and 433 s (§6.1).
type LengthThresholds struct {
	ShortMax time.Duration
	LongMin  time.Duration
}

// DefaultLengthThresholds mirrors the testbed configuration.
func DefaultLengthThresholds() LengthThresholds {
	return LengthThresholds{ShortMax: 173 * time.Second, LongMin: 433 * time.Second}
}

// ClassifyLength maps a job's previous execution time to a job type. Jobs
// that have never executed (zero duration) are treated as medium, matching
// the paper's first-guess rule.
func ClassifyLength(lastRun time.Duration, th LengthThresholds) JobType {
	if lastRun <= 0 {
		return JobMedium
	}
	if lastRun < th.ShortMax {
		return JobShort
	}
	if lastRun > th.LongMin {
		return JobLong
	}
	return JobMedium
}

// RankingWeights encode the per-job-type preference over utilization patterns
// (Algorithm 1 line 6). Higher weight means higher ranking.
type RankingWeights map[JobType]map[signalproc.Pattern]float64

// DefaultRankingWeights reproduces the paper's ranking:
//
//	long jobs:   constant > periodic > unpredictable
//	medium jobs: periodic > constant > unpredictable
//	short jobs:  unpredictable > periodic > constant
func DefaultRankingWeights() RankingWeights {
	return RankingWeights{
		JobLong: {
			signalproc.PatternConstant:      3,
			signalproc.PatternPeriodic:      2,
			signalproc.PatternUnpredictable: 1,
		},
		JobMedium: {
			signalproc.PatternPeriodic:      3,
			signalproc.PatternConstant:      2,
			signalproc.PatternUnpredictable: 1,
		},
		JobShort: {
			signalproc.PatternUnpredictable: 3,
			signalproc.PatternPeriodic:      2,
			signalproc.PatternConstant:      1,
		},
	}
}

// ClassUsage is the scheduler's current view of one utilization class: the
// live CPU utilization of its servers (reported through NM heartbeats) and
// the resources already allocated to secondary tenants there.
type ClassUsage struct {
	// CurrentUtilization is the current average primary CPU utilization of
	// the servers in the class, as a fraction of capacity.
	CurrentUtilization float64
	// AllocatedCores is the number of cores currently allocated to secondary
	// containers on the servers of this class.
	AllocatedCores float64
}

// SelectorConfig parameterizes the class selection algorithm.
type SelectorConfig struct {
	// CoresPerServer is the physical core count of each server.
	CoresPerServer int
	// ReserveFraction is the share of each server held back for primary
	// bursts (the testbed reserves 4 of 12 cores, i.e. 1/3).
	ReserveFraction float64
	// Weights are the per-job-type class rankings.
	Weights RankingWeights
	// Thresholds are the job length cut-offs.
	Thresholds LengthThresholds
}

// DefaultSelectorConfig mirrors the testbed configuration.
func DefaultSelectorConfig() SelectorConfig {
	return SelectorConfig{
		CoresPerServer:  12,
		ReserveFraction: 1.0 / 3.0,
		Weights:         DefaultRankingWeights(),
		Thresholds:      DefaultLengthThresholds(),
	}
}

// JobRequest describes a job asking for resources: its type (derived from its
// last run) and the maximum number of cores it will use concurrently (derived
// from a breadth-first traversal of its DAG, §4.1).
type JobRequest struct {
	Type JobType
	// MaxConcurrentCores is the peak concurrent core demand of the job.
	MaxConcurrentCores float64
}

// Selection is the outcome of class selection: the classes whose node labels
// the job manager should request, in selection order. An empty selection
// means no combination of classes currently has enough headroom.
type Selection struct {
	Classes []ClassID
	// Headrooms records, for reporting, the headroom (in cores) of each
	// selected class at selection time.
	Headrooms []float64
}

// Empty reports whether no class was selected.
func (s Selection) Empty() bool { return len(s.Classes) == 0 }

// Selector implements the class selection algorithm (Algorithm 1).
type Selector struct {
	cfg        SelectorConfig
	clustering *Clustering
	rng        *rand.Rand
}

// NewSelector creates a selector over a clustering.
func NewSelector(cfg SelectorConfig, clustering *Clustering, rng *rand.Rand) (*Selector, error) {
	if clustering == nil || len(clustering.Classes) == 0 {
		return nil, fmt.Errorf("core: selector needs a non-empty clustering")
	}
	if cfg.CoresPerServer <= 0 {
		return nil, fmt.Errorf("core: CoresPerServer must be positive, got %d", cfg.CoresPerServer)
	}
	if cfg.ReserveFraction < 0 || cfg.ReserveFraction >= 1 {
		return nil, fmt.Errorf("core: ReserveFraction %v out of [0,1)", cfg.ReserveFraction)
	}
	if cfg.Weights == nil {
		cfg.Weights = DefaultRankingWeights()
	}
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	return &Selector{cfg: cfg, clustering: clustering, rng: rng}, nil
}

// Capacity returns the class's gross spare cores for a job of the given type
// (§4.1), before subtracting cores already allocated to secondary work: the
// utilization considered is the current one for short jobs, max(average,
// current) for medium jobs, and max(peak, current) for long jobs, and the
// primary reserve is held back. This is the admission bound a live
// allocation ledger CASes reservations against — total allocation in a class
// must never exceed it.
func (s *Selector) Capacity(jobType JobType, class *UtilizationClass, usage ClassUsage) float64 {
	var util float64
	switch jobType {
	case JobShort:
		util = usage.CurrentUtilization
	case JobMedium:
		util = maxFloat(class.AvgUtilization, usage.CurrentUtilization)
	default: // JobLong
		util = maxFloat(class.PeakUtilization, usage.CurrentUtilization)
	}
	frac := 1 - util - s.cfg.ReserveFraction
	if frac < 0 {
		frac = 0
	}
	return frac * float64(class.NumServers()) * float64(s.cfg.CoresPerServer)
}

// Headroom returns the class's available cores for a job of the given type:
// the Capacity bound minus the cores already allocated to secondary
// containers, clamped at zero.
func (s *Selector) Headroom(jobType JobType, class *UtilizationClass, usage ClassUsage) float64 {
	cores := s.Capacity(jobType, class, usage) - usage.AllocatedCores
	if cores < 0 {
		cores = 0
	}
	return cores
}

// Select implements Algorithm 1. usage maps every class to its current state;
// classes missing from the map are treated as having zero current utilization
// and zero allocations. It draws on the selector's own RNG and is therefore
// not safe for concurrent use; concurrent callers (the serving layer) use
// SelectWith with per-request RNGs instead.
func (s *Selector) Select(job JobRequest, usage map[ClassID]ClassUsage) Selection {
	return s.SelectWith(s.rng, job, usage)
}

// UsageSource provides the per-class live usage a selection runs against.
// The serving layer implements it as an overlay composing a cached
// utilization view with live atomic allocation counters, so selections read
// ledger-adjusted AllocatedCores without materializing a map per request.
// Implementations must be safe for concurrent readers.
type UsageSource interface {
	UsageOf(ClassID) ClassUsage
}

// mapUsage adapts the plain-map usage view (simulators, experiment
// harnesses) to UsageSource. The named map type keeps the interface
// conversion allocation-free — a map header is pointer-shaped.
type mapUsage map[ClassID]ClassUsage

// UsageOf implements UsageSource; classes missing from the map read as zero.
func (m mapUsage) UsageOf(id ClassID) ClassUsage { return m[id] }

// SelectWith is Select with a caller-supplied RNG. Apart from the RNG the
// selector is read-only, so any number of goroutines may call SelectWith on
// the same selector concurrently as long as each brings its own *rand.Rand
// (and treats the usage map as read-only). This is the hook the snapshot
// serving layer uses to run class selection lock-free against an immutable
// clustering.
func (s *Selector) SelectWith(rng *rand.Rand, job JobRequest, usage map[ClassID]ClassUsage) Selection {
	return s.SelectFrom(rng, job, mapUsage(usage))
}

// SelectFrom is SelectWith over a UsageSource instead of a map — the
// live-ledger serving path. Concurrency contract is the same as SelectWith's.
func (s *Selector) SelectFrom(rng *rand.Rand, job JobRequest, usage UsageSource) Selection {
	candidates := make([]selectCandidate, 0, len(s.clustering.Classes))
	for _, cls := range s.clustering.Classes {
		u := usage.UsageOf(cls.ID)
		head := s.Headroom(job.Type, cls, u)
		weight := s.cfg.Weights[job.Type][cls.Pattern]
		candidates = append(candidates, selectCandidate{
			id:           cls.ID,
			headroom:     head,
			weightedRoom: head * weight,
		})
	}

	// Line 8: classes that can host the whole job alone.
	fits := make([]selectCandidate, 0, len(candidates))
	for _, c := range candidates {
		if c.headroom >= job.MaxConcurrentCores && c.weightedRoom > 0 {
			fits = append(fits, c)
		}
	}
	if len(fits) > 0 {
		weights := make([]float64, len(fits))
		for i, c := range fits {
			weights[i] = c.weightedRoom
		}
		idx := stats.WeightedChoice(rng, weights)
		if idx >= 0 {
			return Selection{
				Classes:   []ClassID{fits[idx].id},
				Headrooms: []float64{fits[idx].headroom},
			}
		}
	}

	// Lines 12-14: the job may fit across multiple classes combined.
	totalRoom := 0.0
	for _, c := range candidates {
		totalRoom += c.headroom
	}
	if totalRoom >= job.MaxConcurrentCores {
		weights := make([]float64, len(candidates))
		for i, c := range candidates {
			weights[i] = c.weightedRoom
		}
		var sel Selection
		remaining := job.MaxConcurrentCores
		for remaining > 0 {
			idx := stats.WeightedChoice(rng, weights)
			if idx < 0 {
				// Weighted room exhausted (e.g. remaining headroom only in
				// zero-weight classes); fall back to any class with headroom.
				idx = -1
				for i, c := range candidates {
					if weights[i] == 0 && c.headroom > 0 && !containsClass(sel.Classes, c.id) {
						idx = i
						break
					}
				}
				if idx < 0 {
					break
				}
			}
			c := candidates[idx]
			sel.Classes = append(sel.Classes, c.id)
			sel.Headrooms = append(sel.Headrooms, c.headroom)
			remaining -= c.headroom
			weights[idx] = 0 // without replacement
		}
		if remaining <= 0 {
			return sel
		}
	}

	// Line 16: not enough resources anywhere right now.
	return Selection{}
}

// AllocSource supplies the one per-class quantity that changes between
// snapshot refreshes: the cores currently allocated to secondary work. The
// serving layer implements it directly on the allocation ledger's atomic
// occupancy counters, so the indexed select path reads live headroom without
// composing a full ClassUsage per class. Implementations must be safe for
// concurrent readers.
type AllocSource interface {
	AllocatedCoresOf(ClassID) float64
}

// indexEntry is one class's precomputed select state for one job type: the
// gross capacity bound (fixed for a given utilization view — see Capacity)
// and the pattern ranking weight. Headroom at query time is capacity minus
// the live allocation, clamped at zero.
type indexEntry struct {
	id       ClassID
	capacity float64
	weight   float64
}

// SelectIndex is the headroom index behind SelectIndexed: per job type, the
// classes with positive capacity, stored once in descending-capacity order
// (the phase-1 scan order, enabling early exit) and once in ascending
// class-ID order (the phase-2 spread order). Capacities depend only on the
// utilization view the index was built from, so the index is immutable and
// shared by every query against that view; live allocation enters through
// the AllocSource at query time. Rebuilt whenever the view changes (snapshot
// refresh or ingest progress); reserve/release traffic needs no rebuild —
// those deltas flow through the ledger's occupancy counters.
type SelectIndex struct {
	byCap [NumJobTypes][]indexEntry
	byID  [NumJobTypes][]indexEntry
}

// BuildIndex precomputes the select index for a utilization view. Classes
// whose capacity bound is zero for a job type are dropped from that job
// type's lists: their headroom is pinned at zero, so the naive scan can
// never pick them either alone, in a spread, or through the zero-weight
// fallback — and stats.WeightedChoice ignores non-positive weights, so their
// absence changes neither the outcome nor the RNG stream.
func (s *Selector) BuildIndex(usage map[ClassID]ClassUsage) *SelectIndex {
	idx := &SelectIndex{}
	for t := JobShort; t < NumJobTypes; t++ {
		entries := make([]indexEntry, 0, len(s.clustering.Classes))
		for _, cls := range s.clustering.Classes {
			capacity := s.Capacity(t, cls, usage[cls.ID])
			if capacity <= 0 {
				continue
			}
			entries = append(entries, indexEntry{
				id:       cls.ID,
				capacity: capacity,
				weight:   s.cfg.Weights[t][cls.Pattern],
			})
		}
		byCap := make([]indexEntry, len(entries))
		copy(byCap, entries)
		sort.Slice(byCap, func(i, j int) bool {
			if byCap[i].capacity != byCap[j].capacity {
				return byCap[i].capacity > byCap[j].capacity
			}
			return byCap[i].id < byCap[j].id
		})
		idx.byID[t] = entries // clustering.Classes is ID-sorted
		idx.byCap[t] = byCap
	}
	return idx
}

// selectCandidate is one class as a selection pass (SelectFrom's scan, or
// SelectIndexedInto's) sees it.
type selectCandidate struct {
	id           ClassID
	headroom     float64
	weightedRoom float64
}

// SelectScratch is the working memory of one SelectIndexedInto call and the
// storage its result lives in, owned by the caller and reused across calls:
// one per connection (or per goroutine) makes steady-state selection
// allocation-free. The zero value is ready; it must not be shared between
// concurrent calls.
type SelectScratch struct {
	cands     []selectCandidate
	weights   []float64
	classes   []ClassID
	headrooms []float64
}

// SelectIndexed is SelectIndexedInto with working memory of its own, so the
// returned Selection is the caller's to keep.
func (s *Selector) SelectIndexed(rng *rand.Rand, job JobRequest, idx *SelectIndex, alloc AllocSource) Selection {
	return s.SelectIndexedInto(new(SelectScratch), rng, job, idx, alloc)
}

// SelectIndexedInto is SelectFrom against a precomputed SelectIndex: picks are
// identical, draw for draw, to a naive scan over the same view (the property
// TestSelectIndexedMatchesNaive pins), but the single-class phase inspects
// only the classes whose capacity bound can possibly host the job — the scan
// runs down the capacity-sorted list and stops at the first class whose
// bound is below the demand, since live allocation only ever shrinks
// headroom below that bound. The multi-class spread phase (which only runs
// when no single class fits) still walks every positive-capacity class, as
// the algorithm's without-replacement weighted draw requires.
//
// Every buffer comes from sc, the returned Selection's slices included: they
// are valid until the next call with the same scratch.
//
// job.Type must be a valid JobType; out-of-range types return an empty
// selection (the serving layer validates before calling).
func (s *Selector) SelectIndexedInto(sc *SelectScratch, rng *rand.Rand, job JobRequest, idx *SelectIndex, alloc AllocSource) Selection {
	if job.Type < 0 || job.Type >= NumJobTypes {
		return Selection{}
	}

	// Both phases draw over at most every indexed class; sized once, the
	// scratch never grows again for this index.
	byCap, byID := idx.byCap[job.Type], idx.byID[job.Type]
	if cap(sc.cands) < len(byID) {
		sc.cands = make([]selectCandidate, 0, len(byID))
		sc.weights = make([]float64, 0, len(byID))
	}

	// Phase 1 (Algorithm 1 line 8): classes that can host the whole job
	// alone, collected from the capacity-descending list with early exit.
	fits := sc.cands[:0]
	for i := range byCap {
		e := &byCap[i]
		if e.capacity < job.MaxConcurrentCores {
			break // headroom ≤ capacity: nothing further down can fit alone
		}
		head := e.capacity - alloc.AllocatedCoresOf(e.id)
		if head < 0 {
			head = 0
		}
		room := head * e.weight
		if head < job.MaxConcurrentCores || room <= 0 {
			continue
		}
		// Insert in class-ID order: WeightedChoice walks the weights array
		// in order, so draw-for-draw identity with the naive scan needs its
		// (class-ID) ordering, not the index's capacity ordering.
		at := len(fits)
		for at > 0 && fits[at-1].id > e.id {
			at--
		}
		fits = append(fits, selectCandidate{})
		copy(fits[at+1:], fits[at:])
		fits[at] = selectCandidate{id: e.id, headroom: head, weightedRoom: room}
	}
	if len(fits) > 0 {
		weights := sc.weights[:0]
		for _, c := range fits {
			weights = append(weights, c.weightedRoom)
		}
		if k := stats.WeightedChoice(rng, weights); k >= 0 {
			sc.classes = append(sc.classes[:0], fits[k].id)
			sc.headrooms = append(sc.headrooms[:0], fits[k].headroom)
			return Selection{Classes: sc.classes, Headrooms: sc.headrooms}
		}
	}

	// Phase 2 (lines 12-14): the job may fit across multiple classes
	// combined. Same weighted draw without replacement as the naive scan,
	// over the positive-capacity classes in class-ID order.
	candidates := sc.cands[:0]
	totalRoom := 0.0
	for i := range byID {
		e := &byID[i]
		head := e.capacity - alloc.AllocatedCoresOf(e.id)
		if head < 0 {
			head = 0
		}
		candidates = append(candidates, selectCandidate{id: e.id, headroom: head, weightedRoom: head * e.weight})
		totalRoom += head
	}
	if totalRoom >= job.MaxConcurrentCores {
		weights := sc.weights[:0]
		for _, c := range candidates {
			weights = append(weights, c.weightedRoom)
		}
		classes, headrooms := sc.classes[:0], sc.headrooms[:0]
		remaining := job.MaxConcurrentCores
		for remaining > 0 {
			idx := stats.WeightedChoice(rng, weights)
			if idx < 0 {
				idx = -1
				for i, c := range candidates {
					if weights[i] == 0 && c.headroom > 0 && !containsClass(classes, c.id) {
						idx = i
						break
					}
				}
				if idx < 0 {
					break
				}
			}
			c := candidates[idx]
			classes = append(classes, c.id)
			headrooms = append(headrooms, c.headroom)
			remaining -= c.headroom
			weights[idx] = 0 // without replacement
		}
		sc.classes, sc.headrooms = classes, headrooms
		if remaining <= 0 {
			return Selection{Classes: classes, Headrooms: headrooms}
		}
	}

	return Selection{}
}

func containsClass(ids []ClassID, id ClassID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

func maxFloat(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
