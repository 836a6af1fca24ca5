package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"harvest/internal/signalproc"
	"harvest/internal/tenant"
)

// allocOverlay is the test double for the serving layer's ledger overlay: a
// base usage view plus a mutable per-class allocation, exposed both ways —
// as the UsageSource the naive scan reads and as the AllocSource the indexed
// path reads.
type allocOverlay struct {
	base  map[ClassID]ClassUsage
	alloc map[ClassID]float64
}

func (o *allocOverlay) UsageOf(id ClassID) ClassUsage {
	cu := o.base[id]
	cu.AllocatedCores = o.alloc[id]
	return cu
}

func (o *allocOverlay) AllocatedCoresOf(id ClassID) float64 { return o.alloc[id] }

// randomClustering builds a clustering with nClasses classes of randomized
// size and utilization shape, including degenerate ones: empty classes
// (zero servers → zero capacity) and saturated classes (capacity pinned at
// zero by utilization), both of which the index drops and the naive scan
// carries with zero weight.
func randomClustering(rng *rand.Rand, nClasses int) *Clustering {
	classes := make([]*UtilizationClass, nClasses)
	server := 0
	for i := range classes {
		n := rng.Intn(30)
		if rng.Intn(8) == 0 {
			n = 0
		}
		avg := rng.Float64()
		peak := avg + (1-avg)*rng.Float64()
		classes[i] = &UtilizationClass{
			ID:              ClassID(i),
			Pattern:         signalproc.Pattern(rng.Intn(signalproc.NumPatterns)),
			AvgUtilization:  avg,
			PeakUtilization: peak,
			Tenants:         []tenant.ID{tenant.ID(i)},
			Servers:         serverRange(server, n),
		}
		server += n
	}
	return manualClustering(classes)
}

// TestSelectIndexedMatchesNaive is the property SelectIndexed is built on:
// over randomized reserve/release/rekey sequences, the indexed path and the
// naive O(classes) SelectFrom scan make draw-for-draw identical picks AND
// consume their RNGs identically. The two RNGs are seeded together once and
// never resynchronized, so a single divergent draw anywhere in a sequence
// poisons every later comparison — the strongest form of the equivalence.
func TestSelectIndexedMatchesNaive(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			clustering := randomClustering(rng, 48)
			sel, err := NewSelector(DefaultSelectorConfig(), clustering, nil)
			if err != nil {
				t.Fatal(err)
			}

			overlay := &allocOverlay{
				base:  make(map[ClassID]ClassUsage, len(clustering.Classes)),
				alloc: make(map[ClassID]float64, len(clustering.Classes)),
			}
			reusage := func() {
				for _, cls := range clustering.Classes {
					overlay.base[cls.ID] = ClassUsage{CurrentUtilization: rng.Float64()}
				}
			}
			reusage()
			idx := sel.BuildIndex(overlay.base)

			rngNaive := rand.New(rand.NewSource(seed + 1000))
			rngIdx := rand.New(rand.NewSource(seed + 1000))

			for op := 0; op < 400; op++ {
				switch rng.Intn(10) {
				case 0, 1:
					// Release: return some allocation to a random class.
					id := ClassID(rng.Intn(len(clustering.Classes)))
					overlay.alloc[id] *= rng.Float64()
				case 2:
					// Rekey/refresh: the usage view moves, allocations are
					// partially forfeited, and the index is rebuilt — exactly
					// what a snapshot refresh does.
					reusage()
					for id := range overlay.alloc {
						if rng.Intn(2) == 0 {
							overlay.alloc[id] = 0
						}
					}
					idx = sel.BuildIndex(overlay.base)
				default:
					// Reserve: select through both paths and book the grant.
					job := JobRequest{
						Type:               JobType(rng.Intn(int(NumJobTypes))),
						MaxConcurrentCores: 0.5 + rng.Float64()*float64(rng.Intn(40)+1),
					}
					naive := sel.SelectFrom(rngNaive, job, overlay)
					indexed := sel.SelectIndexed(rngIdx, job, idx, overlay)
					if !reflect.DeepEqual(naive, indexed) {
						t.Fatalf("op %d: job %+v\nnaive   %+v\nindexed %+v", op, job, naive, indexed)
					}
					// Allocate a random share of each granted class's
					// headroom so later selects run against drifted books.
					for i, id := range indexed.Classes {
						overlay.alloc[id] += indexed.Headrooms[i] * rng.Float64()
					}
				}
			}
		})
	}
}

// TestSelectIndexedIntoMatchesSelectIndexed pins the append-into form to the
// allocating one: 10,000 requests drawing from one RNG stream each, one
// scratch reused across all of them on one side and a fresh one per request
// on the other, must answer the same Selection every time — so nothing a
// request leaves in the scratch reaches the next. The table covers both
// phases and the zero-weight fallback (medium jobs rank unpredictable classes
// at zero here, so a spread that exhausts the weighted classes falls back to
// them).
func TestSelectIndexedIntoMatchesSelectIndexed(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	clustering := randomClustering(rng, 24)
	cfg := DefaultSelectorConfig()
	cfg.Weights = DefaultRankingWeights()
	delete(cfg.Weights[JobMedium], signalproc.PatternUnpredictable)
	sel, err := NewSelector(cfg, clustering, nil)
	if err != nil {
		t.Fatal(err)
	}
	overlay := &allocOverlay{
		base:  make(map[ClassID]ClassUsage, len(clustering.Classes)),
		alloc: make(map[ClassID]float64, len(clustering.Classes)),
	}
	total := 0.0
	for _, cls := range clustering.Classes {
		overlay.base[cls.ID] = ClassUsage{CurrentUtilization: 0.3 * rng.Float64()}
		total += sel.Capacity(JobShort, cls, overlay.base[cls.ID])
	}
	idx := sel.BuildIndex(overlay.base)

	rngFresh := rand.New(rand.NewSource(1))
	rngInto := rand.New(rand.NewSource(1))
	var sc SelectScratch
	var single, spread, fallback, empty int
	for i := 0; i < 10000; i++ {
		job := JobRequest{Type: JobType(rng.Intn(int(NumJobTypes)))}
		switch rng.Intn(4) {
		case 0: // spreads, or asks for more than there is
			job.MaxConcurrentCores = total * (0.2 + rng.Float64())
		default:
			job.MaxConcurrentCores = 0.5 + 40*rng.Float64()
		}
		want := sel.SelectIndexed(rngFresh, job, idx, overlay)
		got := sel.SelectIndexedInto(&sc, rngInto, job, idx, overlay)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("request %d: job %+v\nSelectIndexed     %+v\nSelectIndexedInto %+v", i, job, want, got)
		}
		switch {
		case len(got.Classes) == 0:
			empty++
		case len(got.Classes) == 1:
			single++
		default:
			spread++
			for _, id := range got.Classes {
				if job.Type == JobMedium && clustering.Class(id).Pattern == signalproc.PatternUnpredictable {
					fallback++
					break
				}
			}
		}
		// Book part of the grant now and then so the headrooms drift, and
		// clear the books before they fill up.
		if i%1000 == 999 {
			clear(overlay.alloc)
		} else if i%3 == 0 {
			for k, id := range got.Classes {
				overlay.alloc[id] += got.Headrooms[k] * 0.1 * rng.Float64()
			}
		}
	}
	if single < 1000 || spread < 1000 || fallback < 100 || empty < 100 {
		t.Fatalf("the table is lopsided: %d single-class, %d spread (%d through the zero-weight fallback), %d unsatisfiable", single, spread, fallback, empty)
	}
}
