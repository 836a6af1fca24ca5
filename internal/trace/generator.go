package trace

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"harvest/internal/signalproc"
	"harvest/internal/stats"
	"harvest/internal/tenant"
	"harvest/internal/timeseries"
)

// Generator synthesizes a primary tenant population from a datacenter profile.
type Generator struct {
	Profile DatacenterProfile
	rng     *rand.Rand
}

// NewGenerator creates a generator with a deterministic seed.
func NewGenerator(profile DatacenterProfile, seed int64) *Generator {
	return &Generator{Profile: profile, rng: rand.New(rand.NewSource(seed))}
}

// Generate produces the tenant population for the profile, with one-month
// utilization traces (2-minute slots), classified profiles, reimage rates,
// and a 36-month reimage-rate history.
func (g *Generator) Generate() (*tenant.Population, error) {
	return g.Stream(func(t *tenant.Tenant, month *timeseries.Series) error {
		t.Utilization = month.Clone()
		profile, err := signalproc.Classify(month.Values, signalproc.DefaultClassifierConfig())
		if err != nil {
			return fmt.Errorf("trace: classifying generated tenant %d: %w", t.ID, err)
		}
		t.Profile = profile
		return nil
	})
}

// TenantIDs returns the ids Generate and Stream give the profile's tenants,
// in order.
func (g *Generator) TenantIDs() []tenant.ID {
	ids := make([]tenant.ID, max(g.Profile.NumTenants, 0))
	for i := range ids {
		ids[i] = tenant.ID(i)
	}
	return ids
}

// Stream is Generate for a caller that keeps no series: every tenant's month
// is generated into one of two reused buffers and handed to visit with the
// tenant; the buffer is drawn into again once visit has returned. The tenants
// come back with Utilization nil and a zero Profile (unless visit sets them)
// and the month's peak in MonthPeak. The random draws are Generate's, in
// Generate's order, so both produce the same tenants.
//
// One goroutine owns the generator's rng and draws the next tenant while
// visit runs on the caller's goroutine, in tenant order, one tenant at a time.
// A visit error stops the drawing, and Stream returns it once the drawing
// goroutine has exited.
func (g *Generator) Stream(visit func(t *tenant.Tenant, month *timeseries.Series) error) (*tenant.Population, error) {
	p := g.Profile
	if p.NumTenants <= 0 {
		return nil, fmt.Errorf("trace: profile %q has no tenants", p.Name)
	}
	total := p.PeriodicTenantFraction + p.ConstantTenantFraction + p.UnpredictableTenantFraction
	if total <= 0 {
		return nil, fmt.Errorf("trace: profile %q has a zero tenant-class mix", p.Name)
	}

	// Both buffers are always in one of the two channels or in one
	// goroutine's hands, so no send blocks.
	free := make(chan *timeseries.Series, 2)
	for range cap(free) {
		free <- timeseries.NewZero(timeseries.SlotDuration, timeseries.SlotsPerMonth)
	}
	drawn := make(chan drawnTenant, cap(free))
	stop := make(chan struct{})
	go g.drawAll(free, drawn, stop)
	// However Stream leaves (done, a visit error or a panic in visit), the
	// drawing goroutine stops and has exited.
	defer func() {
		close(stop)
		for range drawn {
		}
	}()

	tenants := make([]*tenant.Tenant, 0, p.NumTenants)
	for d := range drawn {
		if err := visit(d.t, d.month); err != nil {
			return nil, err
		}
		tenants = append(tenants, d.t)
		free <- d.month
	}
	return tenant.NewPopulation(p.Name, tenants)
}

// drawnTenant is one tenant Stream's producer drew, with its month.
type drawnTenant struct {
	t     *tenant.Tenant
	month *timeseries.Series
}

// drawAll draws every tenant in Generate's order, each month into a buffer
// taken from free, and sends it on drawn. It closes drawn when it is done or
// when stop is closed.
func (g *Generator) drawAll(free <-chan *timeseries.Series, drawn chan<- drawnTenant, stop <-chan struct{}) {
	defer close(drawn)
	p := g.Profile
	nextServer := tenant.ServerID(0)
	for i := 0; i < p.NumTenants; i++ {
		var month *timeseries.Series
		select {
		case month = <-free:
		case <-stop:
			return
		}
		pattern := g.samplePattern()
		numServers := g.sampleServerCount(pattern)
		servers := make([]tenant.ServerID, numServers)
		for s := range servers {
			servers[s] = nextServer
			nextServer++
		}
		g.fillUtilization(month, pattern)
		longTermRate := g.sampleReimageRate()
		drawn <- drawnTenant{month: month, t: &tenant.Tenant{
			ID:                        tenant.ID(i),
			Environment:               fmt.Sprintf("%s-env-%03d", p.Name, i),
			MachineFunction:           fmt.Sprintf("mf-%d", i%17),
			Datacenter:                p.Name,
			Servers:                   servers,
			MonthPeak:                 month.Peak(),
			ReimagesPerServerMonth:    longTermRate,
			MonthlyReimageRates:       g.monthlyRates(longTermRate, 36),
			HarvestableBytesPerServer: p.HarvestableBytesPerServer,
		}}
	}
}

// samplePattern draws a tenant pattern according to the profile's mix.
func (g *Generator) samplePattern() signalproc.Pattern {
	p := g.Profile
	weights := []float64{p.ConstantTenantFraction, p.PeriodicTenantFraction, p.UnpredictableTenantFraction}
	idx := stats.WeightedChoice(g.rng, weights)
	switch idx {
	case 1:
		return signalproc.PatternPeriodic
	case 2:
		return signalproc.PatternUnpredictable
	default:
		return signalproc.PatternConstant
	}
}

// sampleServerCount draws a tenant size; periodic tenants are larger so a
// small fraction of periodic tenants owns ~40% of the servers (Figs 2 & 3).
func (g *Generator) sampleServerCount(pattern signalproc.Pattern) int {
	p := g.Profile
	mean := p.ServersPerTenantMean
	if pattern == signalproc.PatternPeriodic {
		mean *= p.PeriodicServerMultiplier
	}
	sigma := p.ServersPerTenantDispersal
	if sigma <= 0 {
		sigma = 0.8
	}
	// Lognormal with the requested mean: mu = ln(mean) - sigma^2/2.
	mu := math.Log(mean) - sigma*sigma/2
	n := int(math.Round(stats.LogNormal(g.rng, mu, sigma)))
	if n < 1 {
		n = 1
	}
	return n
}

// GenerateUtilization creates a one-month, 2-minute-slot utilization trace for
// the given pattern, shaped by the profile's base utilization and variation.
func (g *Generator) GenerateUtilization(pattern signalproc.Pattern) *timeseries.Series {
	s := timeseries.NewZero(timeseries.SlotDuration, timeseries.SlotsPerMonth)
	g.fillUtilization(s, pattern)
	return s
}

// fillUtilization overwrites s with GenerateUtilization's trace.
func (g *Generator) fillUtilization(s *timeseries.Series, pattern signalproc.Pattern) {
	base := stats.Clamp(g.Profile.BaseUtilizationMean+g.rng.NormFloat64()*g.Profile.BaseUtilizationSpread, 0.1, 0.9)
	variation := g.Profile.UtilizationVariation
	switch pattern {
	case signalproc.PatternPeriodic:
		g.fillPeriodic(s.Values, base, variation)
	case signalproc.PatternUnpredictable:
		g.fillUnpredictable(s.Values, base, variation)
	default:
		g.fillConstant(s.Values, base)
	}
	s.ClampUnit()
}

// fillPeriodic writes a diurnal cycle with a weekly modulation, per-slot noise
// and a mild load trend — the shape of user-facing services (Fig 1a).
func (g *Generator) fillPeriodic(values []float64, base, variation float64) {
	amplitude := stats.Clamp(0.15+0.35*variation, 0.05, 0.45)
	weekly := 0.08 * variation
	phase := g.rng.Float64() * 2 * math.Pi
	noise := 0.02 + 0.02*variation
	slotsPerDay := float64(timeseries.SlotsPerDay)
	for i := range values {
		day := float64(i) / slotsPerDay
		diurnal := math.Sin(2*math.Pi*day + phase)
		weeklyMod := math.Sin(2 * math.Pi * day / 7)
		values[i] = base + amplitude*diurnal + weekly*weeklyMod + g.rng.NormFloat64()*noise
	}
}

// fillConstant writes a flat series with small noise and occasional tiny steps
// (deployments), the behaviour of crawlers and scrubbers. The noise and steps
// stay proportional to the base level so the coefficient of variation remains
// well below the classifier's constant threshold.
func (g *Generator) fillConstant(values []float64, base float64) {
	noise := 0.02 * base
	level := base
	for i := range values {
		if g.rng.Float64() < 0.0003 { // a couple of small level shifts per month
			level = stats.Clamp(base*(1+g.rng.NormFloat64()*0.05), 0.05, 0.95)
		}
		values[i] = level + g.rng.NormFloat64()*noise
	}
}

// fillUnpredictable writes rare large bursts over a low baseline with
// exponential decay — development/testing behaviour (Fig 1c). Burst arrivals
// are aperiodic and burst lengths vary widely, so the spectral energy is
// spread over many low-frequency bins instead of concentrating in one peak.
func (g *Generator) fillUnpredictable(values []float64, base, variation float64) {
	level := base * 0.4
	target := level
	burstProb := 0.0015 + 0.003*variation
	decay := 0.03 + 0.05*g.rng.Float64()
	for i := range values {
		if g.rng.Float64() < burstProb {
			target = stats.Clamp(base+g.rng.Float64()*(0.3+0.6*variation), 0, 0.98)
			decay = 0.02 + 0.08*g.rng.Float64() // each burst rises/falls at its own pace
		}
		if g.rng.Float64() < 0.004 {
			target = base * (0.2 + 0.4*g.rng.Float64())
		}
		level += (target - level) * decay
		values[i] = level + g.rng.NormFloat64()*0.02
	}
}

// sampleReimageRate draws a long-term reimage rate (reimages/server/month)
// from a heavy-tailed distribution around the profile median.
func (g *Generator) sampleReimageRate() float64 {
	p := g.Profile
	median := p.ReimageMedianPerServerMonth
	if median <= 0 {
		median = 0.1
	}
	tail := p.ReimageTailFactor
	if tail <= 1 {
		tail = 2
	}
	// Lognormal with the requested median; sigma grows with the tail factor.
	sigma := math.Log(tail)
	rate := stats.LogNormal(g.rng, math.Log(median), sigma)
	return math.Min(rate, 6) // clip absurd tails
}

// monthlyRates derives a per-month reimage-rate history that preserves the
// tenant's long-term rank with the profile's stability: each month is a small
// multiplicative perturbation of the long-term rate, with an occasional
// independent redraw (a re-deployment or robustness-testing campaign).
func (g *Generator) monthlyRates(longTerm float64, months int) []float64 {
	stability := stats.Clamp(g.Profile.ReimageRankStability, 0, 1)
	jitterSigma := 0.5 * (1 - stability)
	redrawProb := 0.25 * (1 - stability)
	out := make([]float64, months)
	for m := range out {
		if stats.Bernoulli(g.rng, redrawProb) {
			out[m] = g.sampleReimageRate()
			continue
		}
		out[m] = longTerm * math.Exp(g.rng.NormFloat64()*jitterSigma)
	}
	return out
}

// ReimageEvent is a single disk reimage of one server.
type ReimageEvent struct {
	Server tenant.ServerID
	Tenant tenant.ID
	// At is the offset from the start of the simulated period.
	At time.Duration
}

// GenerateReimageEvents produces the reimage events for the population over
// the given horizon, honouring each tenant's reimage rate and the profile's
// correlation (batch reimages that hit many of a tenant's servers at once,
// e.g. repurposing). Events are returned sorted by time.
func (g *Generator) GenerateReimageEvents(pop *tenant.Population, horizon time.Duration) []ReimageEvent {
	const month = 30 * 24 * time.Hour
	months := float64(horizon) / float64(month)
	var events []ReimageEvent
	for _, t := range pop.Tenants {
		if len(t.Servers) == 0 {
			continue
		}
		expectedTotal := t.ReimagesPerServerMonth * float64(len(t.Servers)) * months
		// Split the expected volume between correlated batches and independent
		// single-server reimages.
		correlatedShare := stats.Clamp(g.Profile.ReimageCorrelation, 0, 0.9)
		independent := expectedTotal * (1 - correlatedShare)
		correlated := expectedTotal * correlatedShare

		// Independent reimages: Poisson count, uniform times, random servers.
		for i := 0; i < stats.Poisson(g.rng, independent); i++ {
			s := t.Servers[g.rng.Intn(len(t.Servers))]
			events = append(events, ReimageEvent{
				Server: s,
				Tenant: t.ID,
				At:     time.Duration(g.rng.Float64() * float64(horizon)),
			})
		}
		// Correlated batches: each batch reimages a contiguous large fraction
		// of the tenant's servers within a short window.
		for correlated > 0.5 {
			batchSize := int(stats.Clamp(float64(len(t.Servers))*(0.3+0.6*g.rng.Float64()), 1, float64(len(t.Servers))))
			start := time.Duration(g.rng.Float64() * float64(horizon))
			window := time.Duration(30+g.rng.Intn(90)) * time.Minute
			offset := g.rng.Intn(len(t.Servers))
			for b := 0; b < batchSize; b++ {
				s := t.Servers[(offset+b)%len(t.Servers)]
				events = append(events, ReimageEvent{
					Server: s,
					Tenant: t.ID,
					At:     start + time.Duration(g.rng.Float64()*float64(window)),
				})
			}
			correlated -= float64(batchSize)
		}
	}
	// Stable, so events at the same instant keep the order they were drawn in.
	slices.SortStableFunc(events, func(a, b ReimageEvent) int { return cmp.Compare(a.At, b.At) })
	return events
}

// PerServerReimageRates returns, for every server in the population, its
// average reimages/month over the horizon implied by the events (the Fig 4
// sample). horizonMonths must be positive.
func PerServerReimageRates(pop *tenant.Population, events []ReimageEvent, horizonMonths float64) map[tenant.ServerID]float64 {
	out := make(map[tenant.ServerID]float64, pop.NumServers())
	for _, id := range pop.ServerIDs() {
		out[id] = 0
	}
	if horizonMonths <= 0 {
		return out
	}
	for _, e := range events {
		out[e.Server]++
	}
	for id := range out {
		out[id] /= horizonMonths
	}
	return out
}

// PerTenantReimageRates returns, for every tenant, its average reimages per
// server per month over the horizon implied by the events (the Fig 5 sample).
func PerTenantReimageRates(pop *tenant.Population, events []ReimageEvent, horizonMonths float64) map[tenant.ID]float64 {
	counts := make(map[tenant.ID]float64, len(pop.Tenants))
	for _, t := range pop.Tenants {
		counts[t.ID] = 0
	}
	if horizonMonths <= 0 {
		return counts
	}
	for _, e := range events {
		counts[e.Tenant]++
	}
	for _, t := range pop.Tenants {
		if len(t.Servers) == 0 {
			continue
		}
		counts[t.ID] /= float64(len(t.Servers)) * horizonMonths
	}
	return counts
}
