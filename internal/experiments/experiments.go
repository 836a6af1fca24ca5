// Package experiments contains one harness per table/figure of the paper's
// evaluation. Each harness builds its workload, runs the relevant simulation,
// and returns the same rows or series the paper reports, so the results can be
// compared shape-for-shape against the published figures (EXPERIMENTS.md keeps
// that comparison).
//
// Every harness accepts a Scale that shrinks the datacenter and workload so
// the full suite can run as ordinary `go test -bench` targets; Scale = 1
// approximates the paper's sizes.
package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"harvest/internal/core"
	"harvest/internal/tenant"
	"harvest/internal/trace"
	"harvest/internal/workload"
)

// Scale shrinks or grows an experiment relative to the paper's setup.
type Scale struct {
	// Datacenter multiplies the number of primary tenants per datacenter.
	Datacenter float64
	// Blocks multiplies the number of blocks in storage experiments.
	Blocks float64
	// Workload multiplies the batch workload horizon.
	Workload float64
	// Seed drives every randomized component.
	Seed int64
}

// QuickScale is small enough for unit tests and benchmarks.
func QuickScale() Scale {
	return Scale{Datacenter: 0.05, Blocks: 0.005, Workload: 0.15, Seed: 1}
}

// PaperScale approximates the paper's experiment sizes. Running the full
// suite at this scale takes considerably longer.
func PaperScale() Scale {
	return Scale{Datacenter: 1, Blocks: 1, Workload: 1, Seed: 1}
}

func (s Scale) normalized() Scale {
	if s.Datacenter <= 0 {
		s.Datacenter = 0.05
	}
	if s.Blocks <= 0 {
		s.Blocks = 0.005
	}
	if s.Workload <= 0 {
		s.Workload = 0.15
	}
	return s
}

// buildPopulation generates the tenant population of a datacenter at the
// requested scale.
func buildPopulation(dc string, s Scale) (*tenant.Population, *trace.Generator, error) {
	profile, ok := trace.ProfileByName(dc)
	if !ok {
		return nil, nil, fmt.Errorf("experiments: unknown datacenter %q", dc)
	}
	gen := trace.NewGenerator(profile.Scaled(s.Datacenter), s.Seed)
	pop, err := gen.Generate()
	if err != nil {
		return nil, nil, err
	}
	return pop, gen, nil
}

// BuildPopulation generates the tenant population of a datacenter at the
// requested scale. It is the bootstrap hook the serving layer (harvestd)
// shares with the experiment harnesses, so the daemon serves exactly the
// populations the figures are computed over.
func BuildPopulation(dc string, s Scale) (*tenant.Population, *trace.Generator, error) {
	return buildPopulation(dc, s.normalized())
}

// PlacementInfos extracts the per-tenant placement inputs (reimage rate, peak
// CPU, harvestable space, servers) from a population — the input Algorithm 2's
// 3x3 clustering works on. Shared by Figure 8 and the serving layer.
func PlacementInfos(pop *tenant.Population) []core.TenantPlacementInfo {
	infos := make([]core.TenantPlacementInfo, 0, len(pop.Tenants))
	for _, t := range pop.Tenants {
		infos = append(infos, core.TenantPlacementInfo{
			ID: t.ID, Environment: t.Environment, ReimageRate: t.ReimagesPerServerMonth,
			PeakCPU: t.PeakUtilization(), AvailableBytes: t.HarvestableBytes(), Servers: t.Servers,
		})
	}
	return infos
}

// buildWorkload generates a TPC-DS-like job arrival sequence.
func buildWorkload(s Scale, horizon time.Duration, interArrival time.Duration, durationScale float64) ([]*workload.Job, error) {
	rng := rand.New(rand.NewSource(s.Seed + 1000))
	cat, err := workload.TPCDSLikeCatalogue(rng, workload.DefaultCatalogueConfig())
	if err != nil {
		return nil, err
	}
	cfg := workload.DefaultArrivalConfig(horizon)
	cfg.MeanInterArrival = interArrival
	cfg.DurationScale = durationScale
	return cat.GenerateArrivals(rng, cfg)
}

// historyScheduling builds the clustering, selector and calibrated thresholds
// for a population and workload — the full YARN-H/Tez-H configuration.
func historyScheduling(pop *tenant.Population, jobs []*workload.Job, seed int64) (*core.Clustering, *core.Selector, core.LengthThresholds, error) {
	svc := core.NewClusteringService(core.DefaultClusteringConfig())
	clustering, err := svc.Cluster(pop)
	if err != nil {
		return nil, nil, core.LengthThresholds{}, err
	}
	selector, err := core.NewSelector(core.DefaultSelectorConfig(), clustering, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, nil, core.LengthThresholds{}, err
	}
	var lastRuns []time.Duration
	for _, j := range jobs {
		lastRuns = append(lastRuns, j.LastRunDuration)
	}
	thresholds := core.CalibrateThresholds(lastRuns, core.CapacityByPattern(clustering, core.DefaultSelectorConfig()))
	return clustering, selector, thresholds, nil
}

// newRNG returns a deterministic random source for an experiment seed.
func newRNG(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// cloneJobs deep-copies the job headers so independent simulations never share
// mutable job-manager state.
func cloneJobs(jobs []*workload.Job) []*workload.Job {
	out := make([]*workload.Job, len(jobs))
	for i, j := range jobs {
		cp := *j
		out[i] = &cp
	}
	return out
}

// Datacenters lists the datacenters used across experiments, in order.
func Datacenters() []string {
	profiles := trace.BuiltinProfiles()
	out := make([]string, len(profiles))
	for i, p := range profiles {
		out[i] = p.Name
	}
	return out
}

// CharacterizationDatacenters are the five representative datacenters the
// reimaging figures (4, 5 and 6) show.
func CharacterizationDatacenters() []string {
	return []string{"DC-0", "DC-7", "DC-9", "DC-3", "DC-1"}
}
