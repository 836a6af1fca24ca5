package service

import (
	"errors"
	"math"
	"net/http"
	"strconv"
	"time"

	"harvest/internal/core"
	"harvest/internal/ledger"
	"harvest/internal/obs"
	"harvest/internal/tenant"
	"harvest/internal/wire"
)

// The data plane's operations (the rows of wire.Ops), each validated,
// executed and error-mapped here and nowhere else, all of one shape: the JSON
// request struct in, the reply its frame carries filled in place, or the one
// rejection. binary.go and http.go each hold a table of codecs around them, so
// what an operation accepts and answers is the same on both dialects.

// opIO is one operation's argument struct and reply, kept from one request to
// the next in the scratch or pooled state that serves it.
type opIO[Q, P any] struct {
	q Q
	p P
}

// slot is the T sc keeps for the operation in row i of wire.Ops, made on its
// first use.
func slot[T any](sc *scratch, i int) *T {
	v, ok := sc.ops[i].(*T)
	if !ok {
		v = new(T)
		sc.ops[i] = v
	}
	return v
}

// opTable lays out one dialect's codecs by their row in wire.Ops, and fails
// the process's start if an operation has none.
func opTable[C any](codecs map[wire.Op]C) (table [len(wire.Ops)]C) {
	for i := range wire.Ops {
		c, ok := codecs[wire.Ops[i].Op]
		if !ok {
			panic("service: request opcode " + wire.Ops[i].Name + " has no codec")
		}
		table[i] = c
	}
	return table
}

// Request bounds, shared by every operation that takes the field.
const (
	// maxHoldSeconds caps a client-requested lease TTL at one hour: a
	// "forever" hold must be an operator decision (server-side LeaseTTL), not
	// a request parameter.
	maxHoldSeconds = 3600
	// maxReplication bounds a placement. The paper evaluates R=3 and R=4; 64
	// leaves room for exotic experiments while keeping a client from forcing
	// huge allocations and O(R·servers) placement scans per request.
	maxReplication = 64
	// maxLeaseMetaLen caps job_id/owner: identification tags, not a document
	// store riding on the ledger.
	maxLeaseMetaLen = 128
)

// rejection is an operation's refusal: the status the JSON dialect answers
// with (the binary dialect carries the same code in its error frame) and the
// message both send.
type rejection struct {
	Status  int
	Message string
}

func reject(status int, msg string) *rejection { return &rejection{Status: status, Message: msg} }

// rejectionOf is the one mapping from a Service error to a status; nil for
// nil.
func rejectionOf(err error) *rejection {
	status := http.StatusInternalServerError
	switch {
	case err == nil:
		return nil
	case errors.Is(err, ErrFollower):
		// Writes are pinned to the primary by the router, so landing here means
		// a client went direct; retryable against the right node.
		status = http.StatusServiceUnavailable
	case errors.Is(err, ErrUnknownDatacenter), errors.Is(err, ledger.ErrUnknownLease):
		// An unknown lease was never issued, already released, or reclaimed by
		// the expiry sweep: idempotent releases by retrying clients land here,
		// and a renew cannot resurrect a lease.
		status = http.StatusNotFound
	case errors.Is(err, core.ErrNoEligibleServer):
		// Placement exhausted the diversity space: a conflict with current
		// cluster state, not a malformed request.
		status = http.StatusConflict
	}
	return reject(status, err.Error())
}

func (s *Service) snapshotOf(dc string) (*Snapshot, *rejection) {
	snap, ok := s.Snapshot(dc)
	if !ok {
		return nil, rejectionOf(unknownDC(dc))
	}
	return snap, nil
}

func checkLease(lease uint64) *rejection {
	if lease == 0 {
		return reject(http.StatusBadRequest, "lease must be a nonzero id")
	}
	return nil
}

// holdOf validates a requested lease TTL in seconds; 0 means the server-side
// default. Written so NaN fails too.
func holdOf(seconds float64) (time.Duration, *rejection) {
	if !(seconds >= 0 && seconds <= maxHoldSeconds) {
		return 0, reject(http.StatusBadRequest, "hold_seconds must be in [0, "+strconv.Itoa(maxHoldSeconds)+"]")
	}
	// Rounded, so the binary dialect's whole milliseconds survive the trip
	// through float seconds exactly.
	return time.Duration(math.Round(seconds * float64(time.Second))), nil
}

func placementOf(q *placeRequest) (core.PlacementConstraints, *rejection) {
	if q.Replication < 1 || q.Replication > maxReplication {
		return core.PlacementConstraints{}, reject(http.StatusBadRequest,
			"replication must be in [1, "+strconv.Itoa(maxReplication)+"]")
	}
	return core.PlacementConstraints{
		Replication:        q.Replication,
		Writer:             tenant.ServerID(q.Writer),
		EnforceEnvironment: !q.RelaxedEnvironment,
	}, nil
}

// opSelect runs class selection (Alg. 1). A satisfiable select reserves its
// cores in the allocation ledger under a lease; a dry run only looks, and no
// classes means unsatisfiable right now. The generation is the snapshot's the
// answer was computed on, which a reservation may have re-run against.
func (s *Service) opSelect(sc *scratch, dc string, q *selectRequest, p *wire.SelectResp, tr *obs.Trace) *rejection {
	snap, rej := s.snapshotOf(dc)
	if rej != nil {
		return rej
	}
	if !(q.MaxConcurrentCores > 0) || math.IsInf(q.MaxConcurrentCores, 1) {
		return reject(http.StatusBadRequest, "max_concurrent_cores must be positive and finite")
	}
	hold, rej := holdOf(q.HoldSeconds)
	if rej != nil {
		return rej
	}
	if len(q.JobID) > maxLeaseMetaLen || len(q.Owner) > maxLeaseMetaLen {
		return reject(http.StatusBadRequest, "job_id and owner must be at most "+strconv.Itoa(maxLeaseMetaLen)+" bytes")
	}
	var jobType core.JobType
	switch code := jobCode(q.JobType); code {
	case wire.JobShort, wire.JobMedium, wire.JobLong:
		jobType = core.JobType(code) // the codes mirror core.JobType
	case wire.JobFromLastRun:
		// The bound keeps the float64→int64 nanosecond conversion defined.
		if !(q.LastRunSeconds >= 0 && q.LastRunSeconds <= maxTelemetryOffsetSeconds) {
			return reject(http.StatusBadRequest, "last_run_seconds must be in [0, 1e9]")
		}
		jobType = core.ClassifyLength(time.Duration(q.LastRunSeconds*float64(time.Second)), snap.Thresholds)
	default:
		return reject(http.StatusBadRequest, "job_type must be short, medium or long")
	}
	job := core.JobRequest{Type: jobType, MaxConcurrentCores: q.MaxConcurrentCores}
	var g Grant
	if q.DryRun {
		g.Selection = s.selectOn(sc, snap, job)
	} else {
		tr.SetMeta(q.JobID, q.Owner)
		var err error
		if g, snap, err = s.selectReserve(sc, dc, job, hold, ledger.Meta{JobID: q.JobID, Owner: q.Owner}, tr); err != nil {
			return rejectionOf(err)
		}
	}
	*p = wire.SelectResp{
		Generation:  snap.Generation,
		Lease:       g.Lease,
		ExpiresIn:   s.secondsUntil(g.ExpiresAt),
		Job:         uint8(jobType),
		Satisfiable: !g.Selection.Empty(),
		Classes:     p.Classes[:0],
	}
	for i, cls := range g.Selection.Classes {
		c := wire.SelectGrant{Class: uint32(cls), Headroom: g.Selection.Headrooms[i]}
		if i < len(g.Granted) { // a dry run grants nothing
			c.Granted = g.Granted[i]
		}
		p.Classes = append(p.Classes, c)
	}
	return nil
}

// opRelease returns a lease's cores to their classes.
func (s *Service) opRelease(sc *scratch, dc string, q *leaseRequest, p *wire.ReleaseResp, _ *obs.Trace) *rejection {
	if rej := checkLease(q.Lease); rej != nil {
		return rej
	}
	lease, err := s.release(sc, dc, q.Lease)
	if err != nil {
		return rejectionOf(err)
	}
	*p = wire.ReleaseResp{Lease: lease.ID, TotalMillis: lease.TotalMillis(), Grants: p.Grants[:0]}
	for _, g := range lease.Grants {
		p.Grants = append(p.Grants, wire.ReleaseGrant(g))
	}
	return nil
}

// opRenew extends a live lease's expiry deadline. No cores move: only the
// deadline the sweeper enforces is rescheduled.
func (s *Service) opRenew(sc *scratch, dc string, q *leaseRequest, p *wire.RenewResp, _ *obs.Trace) *rejection {
	if rej := checkLease(q.Lease); rej != nil {
		return rej
	}
	hold, rej := holdOf(q.HoldSeconds)
	if rej != nil {
		return rej
	}
	lease, err := s.renew(sc, dc, q.Lease, hold)
	if err != nil {
		return rejectionOf(err)
	}
	*p = wire.RenewResp{Lease: lease.ID, TotalMillis: lease.TotalMillis(), ExpiresIn: s.secondsUntil(lease.ExpiresAt)}
	return nil
}

// opPlace asks for replica targets for a new block (Alg. 2), advisory: nothing
// is recorded, so the placement carries no block id.
func (s *Service) opPlace(sc *scratch, dc string, q *placeRequest, p *wire.PlaceResp, _ *obs.Trace) *rejection {
	c, rej := placementOf(q)
	if rej != nil {
		return rej
	}
	replicas, snap, err := s.place(sc, dc, c)
	if err != nil {
		return rejectionOf(err)
	}
	*p = wire.PlaceResp{Generation: snap.Generation, Replicas: appendServers(p.Replicas[:0], replicas)}
	return nil
}

// opPlaceBlock creates a block: replicas placed as opPlace would and recorded
// in the block ledger, which keeps the block at R live replicas through
// reimaging events and re-keys.
func (s *Service) opPlaceBlock(sc *scratch, dc string, q *placeRequest, p *wire.PlaceBlockResp, _ *obs.Trace) *rejection {
	c, rej := placementOf(q)
	if rej != nil {
		return rej
	}
	placed, err := s.createBlock(sc, dc, c)
	if err != nil {
		return rejectionOf(err)
	}
	*p = wire.PlaceBlockResp{Generation: placed.Generation, Block: placed.Block, Replicas: appendServers(p.Replicas[:0], placed.Replicas)}
	return nil
}

// appendServers appends the wire form of replica servers to dst.
func appendServers(dst []int64, servers []tenant.ServerID) []int64 {
	for _, s := range servers {
		dst = append(dst, int64(s))
	}
	return dst
}

// opReimage ingests one reimaging event: the server's harvested storage was
// wiped, so every block replica it held is lost. It reports how many replicas
// the event hit and the datacenter's replica slots now awaiting repair.
func (s *Service) opReimage(_ *scratch, dc string, q *reimageRequest, p *wire.ReimageResp, _ *obs.Trace) *rejection {
	if q.Server == nil {
		return reject(http.StatusBadRequest, "server is required")
	}
	lost, err := s.ReimageServer(dc, tenant.ServerID(*q.Server))
	if err != nil {
		return rejectionOf(err)
	}
	st, _ := s.BlockStats(dc)
	*p = wire.ReimageResp{Server: *q.Server, Lost: uint32(lost), Pending: uint32(st.Pending)}
	return nil
}

// classRec renders one of snap's classes from usage, the live usage view, so
// CurrentUtilization tracks ingested telemetry between refreshes, and from the
// ledger's per-class occupancy counter, read only while the ledger is keyed to
// the snapshot's generation (zero while a re-key is in flight). Lock-free and
// copy-free: it runs on the hot query paths, which must not serialize against
// lease bookkeeping. ExampleServer is a member server, a convenient probe
// target for server-class clients; -1 for an empty class.
func (s *Service) classRec(snap *Snapshot, usage map[core.ClassID]core.ClassUsage, cls *core.UtilizationClass) wire.ClassRec {
	rec := wire.ClassRec{
		ID:            uint32(cls.ID),
		Pattern:       uint8(cls.Pattern),
		NumTenants:    uint32(len(cls.Tenants)),
		NumServers:    uint32(cls.NumServers()),
		Avg:           cls.AvgUtilization,
		Peak:          cls.PeakUtilization,
		Current:       usage[cls.ID].CurrentUtilization,
		ExampleServer: -1,
	}
	rec.AllocMillis, _ = s.shards[snap.Datacenter].led.AllocatedMillis(snap.Generation, cls.ID)
	if len(cls.Servers) > 0 {
		rec.ExampleServer = int64(cls.Servers[0])
	}
	return rec
}

// opClasses lists the datacenter's utilization classes.
func (s *Service) opClasses(_ *scratch, dc string, _ *wire.ClassesReq, p *wire.ClassesResp, _ *obs.Trace) *rejection {
	snap, rej := s.snapshotOf(dc)
	if rej != nil {
		return rej
	}
	usage := s.UsageFor(snap)
	*p = wire.ClassesResp{Generation: snap.Generation, AsOfSeconds: snap.AsOf.Seconds(), Classes: p.Classes[:0]}
	for _, cls := range snap.Clustering.Classes {
		p.Classes = append(p.Classes, s.classRec(snap, usage, cls))
	}
	return nil
}

// opServerClass resolves a server to its utilization class.
func (s *Service) opServerClass(_ *scratch, dc string, q *wire.ServerClassReq, p *wire.ServerClassResp, _ *obs.Trace) *rejection {
	snap, rej := s.snapshotOf(dc)
	if rej != nil {
		return rej
	}
	cls, ok := snap.ClassOfServer(tenant.ServerID(q.Server))
	if !ok {
		return reject(http.StatusNotFound, "unknown server "+strconv.FormatInt(q.Server, 10)+" in "+snap.Datacenter)
	}
	*p = wire.ServerClassResp{Generation: snap.Generation, Server: q.Server, Class: s.classRec(snap, s.UsageFor(snap), cls)}
	return nil
}

// secondsUntil is the wire form of an expiry: seconds from now on the node's
// clock, 0 for a lease that never expires.
func (s *Service) secondsUntil(t time.Time) float64 {
	if t.IsZero() {
		return 0
	}
	return t.Sub(s.cfg.Clock.Now()).Seconds()
}
