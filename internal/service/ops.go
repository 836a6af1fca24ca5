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
// executed and error-mapped here and nowhere else. http.go and binary.go are
// codecs around these functions — a JSON body or a frame in, the returned
// values or the one rejection out — so what an operation accepts and answers
// is the same on both dialects by construction.

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

func placementOf(replication int, writer int64, relaxed bool) (core.PlacementConstraints, *rejection) {
	if replication < 1 || replication > maxReplication {
		return core.PlacementConstraints{}, reject(http.StatusBadRequest,
			"replication must be in [1, "+strconv.Itoa(maxReplication)+"]")
	}
	return core.PlacementConstraints{
		Replication:        replication,
		Writer:             tenant.ServerID(writer),
		EnforceEnvironment: !relaxed,
	}, nil
}

// selectArgs is a select request. Job is a wire.Job* code: an explicit length
// category, or JobFromLastRun to classify LastRunSeconds against the
// snapshot's thresholds as the paper does. A satisfiable select reserves its
// cores in the allocation ledger and returns a lease that holds them until
// released or HoldSeconds pass (0 = the server default); DryRun only looks.
type selectArgs struct {
	Job            uint8
	DryRun         bool
	MaxCores       float64
	LastRunSeconds float64
	HoldSeconds    float64
	// Meta is operator-facing lease metadata; it never influences selection.
	// Only the JSON dialect has fields for it.
	Meta ledger.Meta
}

// selectResult is a select's answer; an empty Selection means the job is
// unsatisfiable right now. At is the snapshot the answer was computed on: a
// reservation may have re-run against a newer one than the request first saw.
type selectResult struct {
	Grant
	JobType core.JobType
	At      *Snapshot
}

func (s *Service) opSelect(sc *scratch, dc string, a selectArgs, tr *obs.Trace) (selectResult, *rejection) {
	snap, rej := s.snapshotOf(dc)
	if rej != nil {
		return selectResult{}, rej
	}
	if !(a.MaxCores > 0) || math.IsInf(a.MaxCores, 1) {
		return selectResult{}, reject(http.StatusBadRequest, "max_concurrent_cores must be positive and finite")
	}
	hold, rej := holdOf(a.HoldSeconds)
	if rej != nil {
		return selectResult{}, rej
	}
	if len(a.Meta.JobID) > maxLeaseMetaLen || len(a.Meta.Owner) > maxLeaseMetaLen {
		return selectResult{}, reject(http.StatusBadRequest,
			"job_id and owner must be at most "+strconv.Itoa(maxLeaseMetaLen)+" bytes")
	}
	var jobType core.JobType
	switch a.Job {
	case wire.JobShort, wire.JobMedium, wire.JobLong:
		jobType = core.JobType(a.Job) // the codes mirror core.JobType
	case wire.JobFromLastRun:
		// The bound keeps the float64→int64 nanosecond conversion defined.
		if !(a.LastRunSeconds >= 0 && a.LastRunSeconds <= maxTelemetryOffsetSeconds) {
			return selectResult{}, reject(http.StatusBadRequest, "last_run_seconds must be in [0, 1e9]")
		}
		jobType = core.ClassifyLength(time.Duration(a.LastRunSeconds*float64(time.Second)), snap.Thresholds)
	default:
		return selectResult{}, reject(http.StatusBadRequest, "job_type must be short, medium or long")
	}
	job := core.JobRequest{Type: jobType, MaxConcurrentCores: a.MaxCores}
	if a.DryRun {
		return selectResult{Grant: Grant{Selection: s.selectOn(sc, snap, job)}, JobType: jobType, At: snap}, nil
	}
	tr.SetMeta(a.Meta.JobID, a.Meta.Owner)
	grant, at, err := s.selectReserve(sc, dc, job, hold, a.Meta, tr)
	return selectResult{Grant: grant, JobType: jobType, At: at}, rejectionOf(err)
}

// opRelease returns a lease's cores to their classes.
func (s *Service) opRelease(sc *scratch, dc string, lease uint64) (ledger.Lease, *rejection) {
	if rej := checkLease(lease); rej != nil {
		return ledger.Lease{}, rej
	}
	released, err := s.release(sc, dc, lease)
	return released, rejectionOf(err)
}

// opRenew extends a live lease's expiry deadline. No cores move: only the
// deadline the sweeper enforces is rescheduled.
func (s *Service) opRenew(sc *scratch, dc string, lease uint64, holdSeconds float64) (ledger.Lease, *rejection) {
	if rej := checkLease(lease); rej != nil {
		return ledger.Lease{}, rej
	}
	hold, rej := holdOf(holdSeconds)
	if rej != nil {
		return ledger.Lease{}, rej
	}
	renewed, err := s.renew(sc, dc, lease, hold)
	return renewed, rejectionOf(err)
}

// opPlace asks for replica targets for a new block (Alg. 2), advisory: nothing
// is recorded, so the placement carries no block id. writer is the creating
// server, -1 for an external writer.
func (s *Service) opPlace(sc *scratch, dc string, replication int, writer int64, relaxed bool) (BlockPlacement, *rejection) {
	c, rej := placementOf(replication, writer, relaxed)
	if rej != nil {
		return BlockPlacement{}, rej
	}
	replicas, snap, err := s.place(sc, dc, c)
	if err != nil {
		return BlockPlacement{}, rejectionOf(err)
	}
	return BlockPlacement{Generation: snap.Generation, Replicas: replicas}, nil
}

// opPlaceBlock creates a block: replicas placed as opPlace would and recorded
// in the block ledger, which keeps the block at R live replicas through
// reimaging events and re-keys.
func (s *Service) opPlaceBlock(sc *scratch, dc string, replication int, writer int64, relaxed bool) (BlockPlacement, *rejection) {
	c, rej := placementOf(replication, writer, relaxed)
	if rej != nil {
		return BlockPlacement{}, rej
	}
	placed, err := s.createBlock(sc, dc, c)
	return placed, rejectionOf(err)
}

// opReimage ingests one reimaging event: the server's harvested storage was
// wiped, so every block replica it held is lost. It reports how many replicas
// the event hit and the datacenter's replica slots now awaiting repair.
func (s *Service) opReimage(dc string, server int64) (lost int, pending int64, rej *rejection) {
	lost, err := s.ReimageServer(dc, tenant.ServerID(server))
	st, _ := s.BlockStats(dc)
	return lost, st.Pending, rejectionOf(err)
}

// classView is what a class is rendered from: the live usage view, so
// CurrentUtilization tracks ingested telemetry between refreshes, and the
// ledger's per-class occupancy, read counter by counter as each class is
// rendered and only while the ledger is keyed to the snapshot's generation
// (zero while a re-key is in flight). Lock-free and copy-free: it runs on the
// hot query paths, which must not serialize against lease bookkeeping.
type classView struct {
	snap  *Snapshot
	usage map[core.ClassID]core.ClassUsage
	led   *ledger.Ledger
}

func (s *Service) classViewOf(snap *Snapshot) classView {
	return classView{snap: snap, usage: s.UsageFor(snap), led: s.shards[snap.Datacenter].led}
}

// rec renders one class. ExampleServer is a member server, a convenient probe
// target for server-class clients; -1 for an empty class.
func (v classView) rec(cls *core.UtilizationClass) wire.ClassRec {
	rec := wire.ClassRec{
		ID:            uint32(cls.ID),
		Pattern:       uint8(cls.Pattern),
		NumTenants:    uint32(len(cls.Tenants)),
		NumServers:    uint32(cls.NumServers()),
		Avg:           cls.AvgUtilization,
		Peak:          cls.PeakUtilization,
		Current:       v.usage[cls.ID].CurrentUtilization,
		ExampleServer: -1,
	}
	rec.AllocMillis, _ = v.led.AllocatedMillis(v.snap.Generation, cls.ID)
	if len(cls.Servers) > 0 {
		rec.ExampleServer = int64(cls.Servers[0])
	}
	return rec
}

// opClasses resolves the datacenter's utilization classes; the codecs render
// v.snap.Clustering.Classes through v.rec.
func (s *Service) opClasses(dc string) (classView, *rejection) {
	snap, rej := s.snapshotOf(dc)
	if rej != nil {
		return classView{}, rej
	}
	return s.classViewOf(snap), nil
}

// opServerClass resolves a server to its utilization class.
func (s *Service) opServerClass(dc string, server int64) (*Snapshot, wire.ClassRec, *rejection) {
	snap, rej := s.snapshotOf(dc)
	if rej != nil {
		return nil, wire.ClassRec{}, rej
	}
	cls, ok := snap.ClassOfServer(tenant.ServerID(server))
	if !ok {
		return nil, wire.ClassRec{}, reject(http.StatusNotFound,
			"unknown server "+strconv.FormatInt(server, 10)+" in "+snap.Datacenter)
	}
	return snap, s.classViewOf(snap).rec(cls), nil
}
