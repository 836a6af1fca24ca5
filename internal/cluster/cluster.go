// Package cluster models the physical datacenter state shared by the
// harvesting systems: servers owned by primary tenants, the utilization each
// primary exerts over time, the per-server resource reserve, and the
// harvestable storage.
//
// The YARN-like scheduler (yarnsim) layers container allocations on top of
// this model, and the HDFS-like file system (hdfssim) layers block storage.
package cluster

import (
	"fmt"
	"math"
	"time"

	"harvest/internal/tenant"
	"harvest/internal/timeseries"
)

// Server is one physical machine: its primary tenant, its capacity, its
// reserve, and the utilization series the primary replays during simulation.
type Server struct {
	ID        tenant.ServerID
	Tenant    *tenant.Tenant
	Resources tenant.Resources
	Reserve   tenant.Reserve

	// Utilization is the CPU utilization trace the primary tenant replays on
	// this server (a fraction of the server's cores). It defaults to the
	// tenant's average-server trace and can be replaced by scaled versions
	// when sweeping the utilization spectrum.
	Utilization *timeseries.Series

	// Reimaged tracks whether the server's disk has been reimaged and not yet
	// restored; harvested data on it is gone and new data cannot be placed
	// until the file system notices.
	Reimaged bool
}

// PrimaryUtilization returns the primary tenant's CPU utilization fraction at
// the given simulation time.
func (s *Server) PrimaryUtilization(now time.Duration) float64 {
	if s.Utilization == nil {
		return 0
	}
	return s.Utilization.At(now)
}

// PrimaryCores returns the number of cores the primary tenant occupies at the
// given time, rounded up to a whole core as the NM-H does before reporting to
// the RM (§5.3).
func (s *Server) PrimaryCores(now time.Duration) int {
	return s.CoresForUtilization(s.PrimaryUtilization(now))
}

// CoresForUtilization converts a utilization fraction into the whole cores it
// occupies on this server, rounded up and capped at capacity. It lets callers
// that already hold a sampled utilization (e.g. a per-heartbeat cache) apply
// the same NM-H rounding rule without re-reading the time series.
func (s *Server) CoresForUtilization(util float64) int {
	cores := int(math.Ceil(util * float64(s.Resources.Cores)))
	if cores > s.Resources.Cores {
		cores = s.Resources.Cores
	}
	return cores
}

// HarvestableCores returns how many cores are currently available to
// secondary tenants: capacity minus the primary's (rounded-up) usage minus the
// reserve. It never goes below zero.
func (s *Server) HarvestableCores(now time.Duration) int {
	free := s.Resources.Cores - s.PrimaryCores(now) - s.Reserve.Cores
	if free < 0 {
		return 0
	}
	return free
}

// IsBusy reports whether the primary's utilization leaves no room outside the
// reserve, which is when DN-H denies accesses and NM-H kills containers.
func (s *Server) IsBusy(now time.Duration) bool {
	return s.HarvestableCores(now) == 0
}

// Cluster is a set of servers owned by a tenant population.
type Cluster struct {
	Population *tenant.Population
	Servers    map[tenant.ServerID]*Server

	// serverList preserves a deterministic iteration order.
	serverList []*Server
}

// New builds a cluster from a population, giving every server the same
// capacity and reserve, and the owning tenant's utilization trace.
func New(pop *tenant.Population, res tenant.Resources, reserve tenant.Reserve) (*Cluster, error) {
	if pop == nil || len(pop.Tenants) == 0 {
		return nil, fmt.Errorf("cluster: empty population")
	}
	if res.Cores <= 0 {
		return nil, fmt.Errorf("cluster: servers need at least one core")
	}
	if reserve.Cores < 0 || reserve.Cores >= res.Cores {
		return nil, fmt.Errorf("cluster: reserve of %d cores invalid for %d-core servers", reserve.Cores, res.Cores)
	}
	c := &Cluster{
		Population: pop,
		Servers:    make(map[tenant.ServerID]*Server, pop.NumServers()),
	}
	for _, t := range pop.Tenants {
		for _, sid := range t.Servers {
			srv := &Server{
				ID:          sid,
				Tenant:      t,
				Resources:   res,
				Reserve:     reserve,
				Utilization: t.Utilization,
			}
			if t.HarvestableBytesPerServer > 0 {
				srv.Resources.DiskBytes = t.HarvestableBytesPerServer
			}
			c.Servers[sid] = srv
			c.serverList = append(c.serverList, srv)
		}
	}
	return c, nil
}

// ServerList returns the servers in a deterministic order (tenant order).
func (c *Cluster) ServerList() []*Server { return c.serverList }

// NumServers returns the number of servers in the cluster.
func (c *Cluster) NumServers() int { return len(c.serverList) }

// Server returns the server with the given id, or nil.
func (c *Cluster) Server(id tenant.ServerID) *Server { return c.Servers[id] }

// ScaleUtilization replaces every server's utilization series with a version
// of its tenant's trace rescaled so the cluster-wide average primary
// utilization becomes approximately the target (§6.1 scales the real traces
// linearly or with nth-root functions to explore the utilization spectrum).
func (c *Cluster) ScaleUtilization(target float64, method timeseries.ScalingMethod) {
	// Scale per tenant so every server of a tenant replays the same trace.
	scaled := make(map[tenant.ID]*timeseries.Series, len(c.Population.Tenants))
	for _, t := range c.Population.Tenants {
		if t.Utilization == nil {
			continue
		}
		scaled[t.ID] = t.Utilization.ScaleToMean(target, method)
	}
	for _, srv := range c.serverList {
		if s, ok := scaled[srv.Tenant.ID]; ok {
			srv.Utilization = s
		}
	}
}

// MeanPrimaryUtilization returns the time-averaged primary utilization of the
// whole cluster over its tenants' traces, the x-axis of Figures 13 and 16.
func (c *Cluster) MeanPrimaryUtilization() float64 {
	if len(c.serverList) == 0 {
		return 0
	}
	sum := 0.0
	for _, srv := range c.serverList {
		if srv.Utilization != nil {
			sum += srv.Utilization.Mean()
		}
	}
	return sum / float64(len(c.serverList))
}

// TotalCores returns the cluster's total core count.
func (c *Cluster) TotalCores() int {
	total := 0
	for _, srv := range c.serverList {
		total += srv.Resources.Cores
	}
	return total
}
