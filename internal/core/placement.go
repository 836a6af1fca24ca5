package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"

	"harvest/internal/kmeans"
	"harvest/internal/stats"
	"harvest/internal/tenant"
)

// PlacementGridSize is the number of cells per dimension of the
// two-dimensional placement clustering (3x3 in the paper, Algorithm 2).
const PlacementGridSize = 3

// TenantPlacementInfo is the per-tenant input to the placement scheme: the
// historical reimage rate (durability dimension), the historical peak CPU
// utilization (availability dimension), the harvestable space, and the
// tenant's servers and environment.
type TenantPlacementInfo struct {
	ID          tenant.ID
	Environment string
	// ReimageRate is reimages per server per month.
	ReimageRate float64
	// PeakCPU is the tenant's historical peak CPU utilization fraction.
	PeakCPU float64
	// AvailableBytes is the tenant's total harvestable space.
	AvailableBytes int64
	// Servers lists the tenant's servers.
	Servers []tenant.ServerID
}

// PlacementCell is one cell of the two-dimensional clustering: a reimage
// column and a peak-utilization row, holding roughly 1/9 of the harvestable
// space.
type PlacementCell struct {
	// Col indexes the reimage-frequency dimension (0 = infrequent).
	Col int
	// Row indexes the peak-utilization dimension (0 = low peak).
	Row int
	// Tenants are the members of the cell.
	Tenants []tenant.ID
	// AvailableBytes is the cell's total harvestable space.
	AvailableBytes int64
}

// PlacementScheme is the output of the two-dimensional clustering plus the
// indexes the placement algorithm needs.
//
// The scheme owns reusable scratch buffers for the sampling inner loops, so
// a single scheme must not run PlaceReplicas concurrently from multiple
// goroutines — the same contract as the *rand.Rand each call already takes.
type PlacementScheme struct {
	Cells [PlacementGridSize][PlacementGridSize]*PlacementCell

	infos        map[tenant.ID]*TenantPlacementInfo
	tenantCell   map[tenant.ID][2]int // (col, row)
	serverTenant map[tenant.ServerID]tenant.ID

	// Scratch state reused across PlaceReplicas calls so the steady-state
	// placement path allocates nothing but the returned replica slice.
	scratchCells   [PlacementGridSize * PlacementGridSize]*PlacementCell
	scratchTenants []int32
	scratchServers []int32
	usedEnvs       []string
	usedServers    []tenant.ServerID
	usedCols       uint32 // bitset over columns, bit c = column c used
	usedRows       uint32 // bitset over rows

	// relaxed counts placements that fell back to ignoring row/column
	// diversity (the §7 "space over diversity" degradation). The counter is
	// shared across CloneForConcurrentUse copies so one scheme exposes one
	// total regardless of how many pooled placers serve it.
	relaxed *atomic.Uint64
}

// ErrNoEligibleServer is returned when the placement algorithm cannot find a
// server satisfying all constraints for a replica.
var ErrNoEligibleServer = errors.New("core: no eligible server for replica")

// BuildPlacementScheme clusters the tenants into the 3x3 grid (Algorithm 2
// lines 4-5): first into three reimage-frequency columns of equal harvestable
// space, then, within each column, into three peak-utilization rows of equal
// space. A tenant belongs to exactly one cell (§4.2: tenants are never split,
// which trades perfect balance for diversity).
func BuildPlacementScheme(infos []TenantPlacementInfo) (*PlacementScheme, error) {
	if len(infos) == 0 {
		return nil, fmt.Errorf("core: cannot build a placement scheme without tenants")
	}
	scheme := &PlacementScheme{
		infos:        make(map[tenant.ID]*TenantPlacementInfo, len(infos)),
		tenantCell:   make(map[tenant.ID][2]int, len(infos)),
		serverTenant: make(map[tenant.ServerID]tenant.ID),
		relaxed:      new(atomic.Uint64),
	}
	for col := 0; col < PlacementGridSize; col++ {
		for row := 0; row < PlacementGridSize; row++ {
			scheme.Cells[col][row] = &PlacementCell{Col: col, Row: row}
		}
	}
	for i := range infos {
		info := infos[i]
		if _, dup := scheme.infos[info.ID]; dup {
			return nil, fmt.Errorf("core: duplicate tenant %v in placement input", info.ID)
		}
		scheme.infos[info.ID] = &infos[i]
		for _, s := range info.Servers {
			scheme.serverTenant[s] = info.ID
		}
	}

	// Column split: reimage rate, weighted by available space.
	rates := make([]float64, len(infos))
	weights := make([]float64, len(infos))
	for i, info := range infos {
		rates[i] = info.ReimageRate
		weights[i] = float64(info.AvailableBytes)
	}
	cols, err := kmeans.WeightedQuantileBuckets(rates, weights, PlacementGridSize)
	if err != nil {
		return nil, fmt.Errorf("core: reimage-column split: %w", err)
	}

	// Row split: peak CPU, weighted by space, independently within each column
	// (this is why the row boundaries do not align across columns in Fig 8).
	for col := 0; col < PlacementGridSize; col++ {
		var idxs []int
		var peaks, colWeights []float64
		for i := range infos {
			if cols[i] != col {
				continue
			}
			idxs = append(idxs, i)
			peaks = append(peaks, infos[i].PeakCPU)
			colWeights = append(colWeights, float64(infos[i].AvailableBytes))
		}
		if len(idxs) == 0 {
			continue
		}
		rows, err := kmeans.WeightedQuantileBuckets(peaks, colWeights, PlacementGridSize)
		if err != nil {
			return nil, fmt.Errorf("core: peak-utilization row split: %w", err)
		}
		for j, i := range idxs {
			info := &infos[i]
			cell := scheme.Cells[col][rows[j]]
			cell.Tenants = append(cell.Tenants, info.ID)
			cell.AvailableBytes += info.AvailableBytes
			scheme.tenantCell[info.ID] = [2]int{col, rows[j]}
		}
	}
	return scheme, nil
}

// CloneForConcurrentUse returns a scheme that shares s's immutable clustering
// state — the cells, tenant infos, and tenant/server indexes, which are never
// written after BuildPlacementScheme returns — but owns fresh scratch buffers.
// PlaceReplicas mutates only the scratch state, so each clone may place
// concurrently with the original and with other clones. This is the hook the
// snapshot serving layer uses to keep a pool of placers per immutable
// snapshot instead of serializing placements behind a lock.
func (s *PlacementScheme) CloneForConcurrentUse() *PlacementScheme {
	return &PlacementScheme{
		Cells:        s.Cells,
		infos:        s.infos,
		tenantCell:   s.tenantCell,
		serverTenant: s.serverTenant,
		relaxed:      s.relaxed,
	}
}

// RelaxedCount reports how many replica picks fell back to ignoring
// row/column diversity since the scheme was built, totalled across every
// clone. Operators watch this to see when the grid is too small for R.
func (s *PlacementScheme) RelaxedCount() uint64 {
	if s.relaxed == nil {
		return 0
	}
	return s.relaxed.Load()
}

// CellOfTenant returns the (col, row) cell of a tenant.
func (s *PlacementScheme) CellOfTenant(id tenant.ID) (col, row int, ok bool) {
	cell, ok := s.tenantCell[id]
	return cell[0], cell[1], ok
}

// TenantOfServer returns the tenant owning a server, if known to the scheme.
func (s *PlacementScheme) TenantOfServer(id tenant.ServerID) (tenant.ID, bool) {
	t, ok := s.serverTenant[id]
	return t, ok
}

// SpaceImbalance returns the ratio between the largest and smallest cell
// space (1 means perfectly balanced). It is the quantity the production
// deployment monitors to decide when diversity is getting scarce (§7).
func (s *PlacementScheme) SpaceImbalance() float64 {
	minSpace := int64(-1)
	maxSpace := int64(0)
	for col := 0; col < PlacementGridSize; col++ {
		for row := 0; row < PlacementGridSize; row++ {
			b := s.Cells[col][row].AvailableBytes
			if minSpace < 0 || b < minSpace {
				minSpace = b
			}
			if b > maxSpace {
				maxSpace = b
			}
		}
	}
	if minSpace <= 0 {
		return 0
	}
	return float64(maxSpace) / float64(minSpace)
}

// PlacementConstraints tune a single placement request.
type PlacementConstraints struct {
	// Replication is the number of replicas to place (including the writer's).
	Replication int
	// Writer is the server creating the block; the first replica lands there
	// for locality when the server is known to the scheme. Use -1 when the
	// writer is not a harvested server (e.g. an external client).
	Writer tenant.ServerID
	// ServerEligible, if non-nil, filters out servers that are full, busy, or
	// decommissioned. Returning false excludes the server.
	ServerEligible func(tenant.ServerID) bool
	// EnforceEnvironment keeps the "one replica per environment" constraint.
	// The production deployment initially relaxed it ("soft" constraints) to
	// favour space over diversity (§7); setting this to false reproduces that
	// behaviour for the ablation experiments.
	EnforceEnvironment bool
}

// allServersEligible is the default filter; a package-level value so the
// common no-filter path costs no closure allocation.
var allServersEligible = func(tenant.ServerID) bool { return true }

// eligibility is the request's server filter, defaulted.
func (c PlacementConstraints) eligibility() func(tenant.ServerID) bool {
	if c.ServerEligible == nil {
		return allServersEligible
	}
	return c.ServerEligible
}

// NoServer marks a replica slot that holds nothing — a hole awaiting repair —
// in the slot view PlaceSlot takes.
const NoServer tenant.ServerID = -1

// PlaceReplicas implements Algorithm 2: it returns the servers that should
// hold the block's replicas. The first replica goes to the writer's server
// (when known and eligible); each subsequent replica goes to a random tenant
// of a random cell such that, within a round of three picks, no two cells
// share a row or a column, and no environment receives two replicas.
func (s *PlacementScheme) PlaceReplicas(rng *rand.Rand, c PlacementConstraints) ([]tenant.ServerID, error) {
	return s.PlaceReplicasInto(nil, rng, c)
}

// PlaceReplicasInto is PlaceReplicas into the caller's buffer: the replicas
// overwrite dst from its start (a buffer too small is replaced by one sized to
// the block), so a caller that reuses one buffer places without allocating.
func (s *PlacementScheme) PlaceReplicasInto(dst []tenant.ServerID, rng *rand.Rand, c PlacementConstraints) ([]tenant.ServerID, error) {
	if c.Replication <= 0 {
		return nil, fmt.Errorf("core: replication must be positive, got %d", c.Replication)
	}
	eligible := c.eligibility()

	if cap(dst) < c.Replication {
		dst = make([]tenant.ServerID, 0, c.Replication)
	}
	replicas := dst[:0]
	s.seed(nil, 0)

	// First replica: the writer's server, for locality (lines 6-7).
	if tid, ok := s.serverTenant[c.Writer]; ok && eligible(c.Writer) {
		replicas = s.place(replicas, c.Writer, tid)
	} else {
		// The writer is unknown or ineligible: pick the first replica like any
		// other, from a random cell.
		server, tid, err := s.pickReplica(rng, true, eligible, c.EnforceEnvironment)
		if err != nil {
			return nil, err
		}
		replicas = s.place(replicas, server, tid)
	}

	for len(replicas) < c.Replication {
		// Line 15-17: after every three replicas, forget row/column history.
		if len(replicas)%PlacementGridSize == 0 {
			s.usedCols = 0
			s.usedRows = 0
		}
		server, tid, err := s.pick(rng, eligible, c.EnforceEnvironment)
		if err != nil {
			return replicas, err
		}
		replicas = s.place(replicas, server, tid)
	}
	return replicas, nil
}

// PlaceSlot picks a server for one empty slot of a block — the re-replication
// path after a replica is lost. slots is the block's replica servers in slot
// order, NoServer where a slot is empty; slots[slot] itself is ignored. The
// constraint state is what Algorithm 2 would hold about the block's other
// replicas: every placed slot's server and environment stay excluded, and the
// row/column history is that of the placed slots in the same round of three
// slot positions — positions, not a count of survivors, because that is how
// the block was placed and how a re-validation walks it. c.Replication and
// c.Writer are ignored; the same relaxed fallback applies.
func (s *PlacementScheme) PlaceSlot(rng *rand.Rand, slots []tenant.ServerID, slot int, c PlacementConstraints) (tenant.ServerID, error) {
	eligible := c.eligibility()
	s.seed(slots, slot)
	server, _, err := s.pick(rng, eligible, c.EnforceEnvironment)
	return server, err
}

// PlaceAdditional places count more replicas after a block's existing ones:
// PlaceSlot for slots len(existing), len(existing)+1, … of a block whose
// earlier slots are all placed. c.Replication and c.Writer are ignored.
func (s *PlacementScheme) PlaceAdditional(rng *rand.Rand, existing []tenant.ServerID, count int, c PlacementConstraints) ([]tenant.ServerID, error) {
	if count <= 0 {
		return nil, fmt.Errorf("core: additional replica count must be positive, got %d", count)
	}
	eligible := c.eligibility()
	s.seed(existing, len(existing))
	replicas := make([]tenant.ServerID, 0, count)
	for placed := 0; placed < count; placed++ {
		if (len(existing)+placed)%PlacementGridSize == 0 {
			s.usedCols = 0
			s.usedRows = 0
		}
		server, tid, err := s.pick(rng, eligible, c.EnforceEnvironment)
		if err != nil {
			return replicas, err
		}
		replicas = s.place(replicas, server, tid)
	}
	return replicas, nil
}

// seed resets the constraint state to that of a block about to fill slot
// next: the servers and environments of every placed slot, and the rows and
// columns of those in next's round of three.
func (s *PlacementScheme) seed(slots []tenant.ServerID, next int) {
	s.usedEnvs = s.usedEnvs[:0]
	s.usedServers = s.usedServers[:0]
	s.usedCols = 0
	s.usedRows = 0
	for i, server := range slots {
		if server == NoServer || i == next {
			continue
		}
		s.usedServers = append(s.usedServers, server)
		tid, ok := s.serverTenant[server]
		if !ok {
			continue
		}
		if info := s.infos[tid]; info != nil {
			s.usedEnvs = append(s.usedEnvs, info.Environment)
		}
		if cell, ok := s.tenantCell[tid]; ok && i/PlacementGridSize == next/PlacementGridSize {
			s.usedCols |= 1 << uint(cell[0])
			s.usedRows |= 1 << uint(cell[1])
		}
	}
}

// pick selects the next replica under the full constraints and, when the
// row/column diversity constraint cannot be met (e.g. very few tenants, or
// entire rows excluded as busy/full), falls back to a best-effort pick that
// keeps the environment and server constraints but ignores row/column
// history, matching the production behaviour of degrading diversity before
// failing the block creation (§7).
func (s *PlacementScheme) pick(rng *rand.Rand, eligible func(tenant.ServerID) bool, enforceEnvironment bool) (tenant.ServerID, tenant.ID, error) {
	server, tid, err := s.pickReplica(rng, true, eligible, enforceEnvironment)
	if errors.Is(err, ErrNoEligibleServer) {
		server, tid, err = s.pickReplica(rng, false, eligible, enforceEnvironment)
		if err == nil && s.relaxed != nil {
			s.relaxed.Add(1)
		}
	}
	return server, tid, err
}

// ReplicaSite resolves the grid coordinates and environment of the tenant
// owning a server — the placement-constraint view a block ledger needs when
// re-validating replicas against a re-clustered scheme. ok is false when the
// server is unknown to this scheme (its tenant left the population).
func (s *PlacementScheme) ReplicaSite(server tenant.ServerID) (col, row int, env string, ok bool) {
	tid, ok := s.serverTenant[server]
	if !ok {
		return 0, 0, "", false
	}
	if info := s.infos[tid]; info != nil {
		env = info.Environment
	}
	cell, ok := s.tenantCell[tid]
	if !ok {
		return 0, 0, "", false
	}
	return cell[0], cell[1], env, true
}

// place records a chosen replica in the round's constraint state.
func (s *PlacementScheme) place(replicas []tenant.ServerID, server tenant.ServerID, tid tenant.ID) []tenant.ServerID {
	replicas = append(replicas, server)
	s.usedServers = append(s.usedServers, server)
	if info := s.infos[tid]; info != nil {
		s.usedEnvs = append(s.usedEnvs, info.Environment)
	}
	if cell, ok := s.tenantCell[tid]; ok {
		s.usedCols |= 1 << uint(cell[0])
		s.usedRows |= 1 << uint(cell[1])
	}
	return replicas
}

func (s *PlacementScheme) serverUsed(id tenant.ServerID) bool {
	for _, u := range s.usedServers {
		if u == id {
			return true
		}
	}
	return false
}

func (s *PlacementScheme) envUsed(env string) bool {
	for _, e := range s.usedEnvs {
		if e == env {
			return true
		}
	}
	return false
}

// pickReplica selects one (server, tenant) pair honouring the row/column and
// environment constraints. When useRowCol is false the row/column history is
// ignored (the caller's best-effort fallback); if no candidate satisfies the
// constraints it returns ErrNoEligibleServer and the caller decides whether
// to relax (the production "space over diversity" mode is modelled by
// EnforceEnvironment=false).
//
// Cells, tenants, and servers are each visited in a uniformly random order
// produced by a partial Fisher–Yates shuffle over the scheme's scratch
// buffers: the shuffle advances only as far as the search does, and no
// per-call permutation is allocated (the rng.Perm the seed implementation
// used allocated all three levels in full on every pick).
func (s *PlacementScheme) pickReplica(
	rng *rand.Rand,
	useRowCol bool,
	eligible func(tenant.ServerID) bool,
	enforceEnvironment bool,
) (tenant.ServerID, tenant.ID, error) {
	// Candidate cells: not in a used row or column, with members.
	// Algorithm 2 picks cells uniformly at random.
	usedCols, usedRows := s.usedCols, s.usedRows
	if !useRowCol {
		usedCols, usedRows = 0, 0
	}
	numCells := 0
	for col := 0; col < PlacementGridSize; col++ {
		if usedCols&(1<<uint(col)) != 0 {
			continue
		}
		for row := 0; row < PlacementGridSize; row++ {
			if usedRows&(1<<uint(row)) != 0 {
				continue
			}
			cell := s.Cells[col][row]
			if len(cell.Tenants) == 0 {
				continue
			}
			s.scratchCells[numCells] = cell
			numCells++
		}
	}
	for ci := 0; ci < numCells; ci++ {
		cj := ci + rng.Intn(numCells-ci)
		s.scratchCells[ci], s.scratchCells[cj] = s.scratchCells[cj], s.scratchCells[ci]
		cell := s.scratchCells[ci]
		// Try the cell's tenants in random order.
		s.scratchTenants = stats.IdentityPerm(s.scratchTenants, len(cell.Tenants))
		for ti := range s.scratchTenants {
			tid := cell.Tenants[stats.PermNext(rng, s.scratchTenants, ti)]
			info := s.infos[tid]
			if info == nil || len(info.Servers) == 0 {
				continue
			}
			if enforceEnvironment && s.envUsed(info.Environment) {
				continue
			}
			// Try the tenant's servers in random order.
			s.scratchServers = stats.IdentityPerm(s.scratchServers, len(info.Servers))
			for si := range s.scratchServers {
				server := info.Servers[stats.PermNext(rng, s.scratchServers, si)]
				if s.serverUsed(server) || !eligible(server) {
					continue
				}
				return server, tid, nil
			}
		}
	}
	return 0, 0, ErrNoEligibleServer
}
