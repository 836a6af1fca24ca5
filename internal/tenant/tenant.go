// Package tenant models primary tenants: the services that own datacenter
// servers and whose spare cycles and storage the harvesting systems use.
//
// In the paper's terminology (§3.1) a primary tenant is an
// <environment, machine function> pair managed by AutoPilot. Each tenant owns
// a set of servers; the harvesting systems never displace the tenant, they
// only use whatever the tenant leaves idle.
package tenant

import (
	"fmt"
	"time"

	"harvest/internal/signalproc"
	"harvest/internal/timeseries"
)

// ID uniquely identifies a primary tenant within a datacenter.
type ID int

// ServerID uniquely identifies a server within a datacenter.
type ServerID int

// Resources describes a server's capacity. The testbed servers in §6.1 have
// 12 cores and 32 GB of memory; 4 cores and 10 GB are reserved for primary
// tenant bursts.
type Resources struct {
	Cores    int
	MemoryMB int
	// DiskBytes is the harvestable storage the primary tenant grants HDFS-H
	// on this server (§5.4 goal G1: primaries declare how much space may be
	// used).
	DiskBytes int64
}

// DefaultServerResources mirrors the testbed configuration.
func DefaultServerResources() Resources {
	return Resources{Cores: 12, MemoryMB: 32 * 1024, DiskBytes: 2 << 40} // 2 TB harvestable
}

// Reserve describes the slice of each server held back for primary bursts.
type Reserve struct {
	Cores    int
	MemoryMB int
}

// DefaultReserve mirrors §6.1: 4 cores (33%) and 10 GB (31%).
func DefaultReserve() Reserve {
	return Reserve{Cores: 4, MemoryMB: 10 * 1024}
}

// Tenant is a primary tenant: a service (environment + machine function) that
// owns a group of servers and exhibits a historical utilization and reimaging
// behaviour.
type Tenant struct {
	ID              ID
	Environment     string
	MachineFunction string
	Datacenter      string

	// Servers lists the servers this tenant owns.
	Servers []ServerID

	// Utilization is the one-month "average server" CPU utilization series
	// (2-minute slots), the input to classification and scheduling.
	Utilization *timeseries.Series

	// MonthPeak is the maximum of the month the tenant was generated with:
	// what PeakUtilization reports for a tenant that keeps no Utilization
	// (the daemon's, whose history lives in its telemetry rings).
	MonthPeak float64

	// Profile is the frequency-domain profile derived from Utilization.
	Profile signalproc.Profile

	// HistoryMark caches the history source's change mark (HistoryStats) at
	// the tenant's last drift evaluation. Like Profile it is re-clustering
	// state living on the tenant: when the source reports the same mark
	// again, the tenant's window is unchanged and the drift check can be
	// skipped. Written only under the owning shard's rebuild lock.
	HistoryMark uint64

	// ReimagesPerServerMonth is the historical average number of disk
	// reimages per server per month for this tenant.
	ReimagesPerServerMonth float64

	// MonthlyReimageRates optionally holds a per-month history of
	// reimages/server/month (e.g. 36 entries for three years), used by the
	// characterization experiments on rank stability (Fig 6).
	MonthlyReimageRates []float64

	// HarvestableBytesPerServer is the storage each of this tenant's servers
	// exposes to the harvesting file system.
	HarvestableBytesPerServer int64
}

// String implements fmt.Stringer.
func (t *Tenant) String() string {
	return fmt.Sprintf("%s/%s(%d servers)", t.Environment, t.MachineFunction, len(t.Servers))
}

// NumServers returns how many servers the tenant owns.
func (t *Tenant) NumServers() int { return len(t.Servers) }

// HarvestableBytes returns the total storage the tenant exposes for harvesting.
func (t *Tenant) HarvestableBytes() int64 {
	return t.HarvestableBytesPerServer * int64(len(t.Servers))
}

// AverageUtilization returns the mean of the tenant's utilization series.
func (t *Tenant) AverageUtilization() float64 {
	if t.Utilization == nil {
		return 0
	}
	return t.Utilization.Mean()
}

// PeakUtilization returns the peak of the tenant's utilization series, or
// MonthPeak when the tenant keeps none.
func (t *Tenant) PeakUtilization() float64 {
	if t.Utilization == nil {
		return t.MonthPeak
	}
	return t.Utilization.Peak()
}

// UtilizationAt returns the tenant's utilization at elapsed time t, replaying
// the one-month trace cyclically.
func (t *Tenant) UtilizationAt(elapsed time.Duration) float64 {
	if t.Utilization == nil {
		return 0
	}
	return t.Utilization.At(elapsed)
}

// Classify (re)derives the tenant's profile from its utilization series.
func (t *Tenant) Classify(cfg signalproc.ClassifierConfig) error {
	if t.Utilization == nil || t.Utilization.Len() == 0 {
		return fmt.Errorf("tenant %v: no utilization series to classify", t.ID)
	}
	p, err := signalproc.Classify(t.Utilization.Values, cfg)
	if err != nil {
		return fmt.Errorf("tenant %v: %w", t.ID, err)
	}
	t.Profile = p
	return nil
}

// Pattern returns the tenant's utilization pattern.
func (t *Tenant) Pattern() signalproc.Pattern { return t.Profile.Pattern }

// Population is a collection of tenants belonging to one datacenter, with
// index structures used by the scheduling and placement code.
type Population struct {
	Datacenter string
	Tenants    []*Tenant

	byID   map[ID]*Tenant
	owners map[ServerID]*Tenant
}

// NewPopulation builds a population and its indexes. Tenants with duplicate
// IDs or overlapping server sets are rejected.
func NewPopulation(datacenter string, tenants []*Tenant) (*Population, error) {
	p := &Population{
		Datacenter: datacenter,
		Tenants:    tenants,
		byID:       make(map[ID]*Tenant, len(tenants)),
		owners:     make(map[ServerID]*Tenant),
	}
	for _, t := range tenants {
		if _, dup := p.byID[t.ID]; dup {
			return nil, fmt.Errorf("tenant: duplicate tenant id %v", t.ID)
		}
		p.byID[t.ID] = t
		for _, s := range t.Servers {
			if owner, taken := p.owners[s]; taken {
				return nil, fmt.Errorf("tenant: server %v owned by both %v and %v", s, owner.ID, t.ID)
			}
			p.owners[s] = t
		}
	}
	return p, nil
}

// ByID returns the tenant with the given id, or nil.
func (p *Population) ByID(id ID) *Tenant { return p.byID[id] }

// OwnerOf returns the tenant owning the given server, or nil.
func (p *Population) OwnerOf(server ServerID) *Tenant { return p.owners[server] }

// NumServers returns the total number of servers across all tenants.
func (p *Population) NumServers() int { return len(p.owners) }

// ServerIDs returns all server ids in the population in tenant order.
func (p *Population) ServerIDs() []ServerID {
	out := make([]ServerID, 0, len(p.owners))
	for _, t := range p.Tenants {
		out = append(out, t.Servers...)
	}
	return out
}

// PatternShares returns, per pattern, the fraction of tenants and the fraction
// of servers exhibiting it — the quantities plotted in Figures 2 and 3.
func (p *Population) PatternShares() (tenantShare, serverShare map[signalproc.Pattern]float64) {
	tenantShare = make(map[signalproc.Pattern]float64, signalproc.NumPatterns)
	serverShare = make(map[signalproc.Pattern]float64, signalproc.NumPatterns)
	if len(p.Tenants) == 0 {
		return tenantShare, serverShare
	}
	totalServers := 0
	for _, t := range p.Tenants {
		tenantShare[t.Pattern()]++
		serverShare[t.Pattern()] += float64(t.NumServers())
		totalServers += t.NumServers()
	}
	for pat := range tenantShare {
		tenantShare[pat] /= float64(len(p.Tenants))
	}
	if totalServers > 0 {
		for pat := range serverShare {
			serverShare[pat] /= float64(totalServers)
		}
	}
	return tenantShare, serverShare
}

// ClassifyAll classifies every tenant in the population.
func (p *Population) ClassifyAll(cfg signalproc.ClassifierConfig) error {
	for _, t := range p.Tenants {
		if err := t.Classify(cfg); err != nil {
			return err
		}
	}
	return nil
}
