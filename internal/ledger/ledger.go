// Package ledger tracks live secondary-work allocations per utilization
// class. The paper's harvesting controller only hands out spare cores that
// are actually spare: once a job is granted headroom in a class, that
// headroom is gone until the job releases it (§4.1's AllocatedCores term).
// The serving layer's snapshots are immutable, so this package supplies the
// one piece of mutable shared state the query path needs — a per-class
// allocation counter — layered *over* the snapshots without breaking their
// contract.
//
// Concurrency model: allocations live in a generation-stamped table of
// atomic millicore counters behind an atomic pointer. Reserve admits with a
// CAS loop bounded by the caller-supplied capacity, so any number of
// concurrent reservations can never jointly over-promise a class. Lease
// bookkeeping (the id → grants map) is an internal/striped store: a lease
// lands on the shard of its first granted class, and its id carries the shard
// index in its low bits so Release and Renew route without a global lock.
// Reserve/Release traffic on different classes therefore never contends on a
// mutex — only the global operations (Rekey, Walk, Reconcile, Snapshot, List)
// still quiesce the whole ledger, by taking every shard lock. Re-keying to
// a new clustering generation swaps in a freshly summed table while holding
// all shard locks, and a reservation racing the swap detects it and retries
// against the new generation instead of landing on the dead table.
//
// Fixed-point: cores are tracked in integer millicores so the conservation
// invariant — reserved == released + expired + forfeited + outstanding — is
// exact, never a float tolerance.
package ledger

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"harvest/internal/core"
	"harvest/internal/striped"
	"harvest/internal/wire"
)

// MillisPerCore is the fixed-point scale: allocations are tracked in integer
// thousandths of a core.
const MillisPerCore = 1000

// ToMillis converts cores to millicores, rounding to nearest.
func ToMillis(cores float64) int64 { return int64(math.Round(cores * MillisPerCore)) }

// CoresOf converts millicores back to cores.
func CoresOf(millis int64) float64 { return float64(millis) / MillisPerCore }

// ErrStaleGeneration is returned when a reservation was derived from a
// snapshot generation the ledger has already re-keyed past. The caller should
// reload the current snapshot and retry.
var ErrStaleGeneration = errors.New("ledger: stale snapshot generation")

// ErrUnknownLease is returned by Release and Renew for an id that does not
// exist — never issued, already released, or reclaimed by the expiry sweep.
var ErrUnknownLease = errors.New("ledger: unknown lease")

// InsufficientError reports a reservation that lost the admission race: by
// CAS time the class no longer had room for the requested cores under the
// capacity bound. The caller should re-run selection against the now-current
// counters.
type InsufficientError struct {
	Class core.ClassID
}

func (e *InsufficientError) Error() string {
	return fmt.Sprintf("ledger: class %d has insufficient headroom", e.Class)
}

// Request asks to reserve Cores in one class, admitted only while the class's
// total allocation stays at or below Capacity (the gross spare-core bound the
// selector computed from the same usage view — headroom before subtracting
// allocations).
type Request struct {
	Class    core.ClassID
	Cores    float64
	Capacity float64
}

// Grant is one class's share of a lease, in millicores.
type Grant = wire.ReplGrant

// Meta is optional operator-supplied lease metadata: which job holds the
// cores and who owns the job. It is bookkeeping for humans — admission and
// conservation ignore it entirely.
type Meta struct {
	JobID string
	Owner string
}

// Lease is the caller's view of one successful reservation.
type Lease struct {
	ID        uint64
	ExpiresAt time.Time // zero when the lease never expires
	Grants    []Grant
	Meta      Meta
}

// TotalMillis sums the lease's grants.
func (l Lease) TotalMillis() int64 {
	var t int64
	for _, g := range l.Grants {
		t += g.Millis
	}
	return t
}

// Share is one target of a re-key split: an old class's allocation moves to
// Class proportionally to Weight (typically the number of the old class's
// servers that landed there).
type Share struct {
	Class  core.ClassID
	Weight float64
}

// table is one generation's per-class allocation counters.
type table struct {
	generation uint64
	alloc      []atomic.Int64 // millicores, indexed by dense ClassID
}

func newTable(generation uint64, numClasses int) *table {
	return &table{generation: generation, alloc: make([]atomic.Int64, numClasses)}
}

// inlineGrants is how many grants a lease record stores in itself: a select
// lands in one class, or spreads over a few, so a reservation's grants live
// in its record; a wider spread spills them to a slice.
const inlineGrants = 4

// lease is one live lease as the ledger holds it: the record Walk lends out.
type lease struct {
	wire.ReplLease
	// epoch is the store's stamp: the Reconcile pass that last confirmed the
	// lease (0 for a lease this ledger issued itself).
	epoch uint64
	// inline backs Grants for a lease reserved or reconciled here with at
	// most inlineGrants of them.
	inline [inlineGrants]Grant
}

// view is the caller's view of the lease, its Grants still the record's: the
// caller copies them out before it releases the shard lock (internal/striped's
// rule), since the record may then be reused.
func (ls *lease) view() Lease {
	return Lease{ID: ls.ID, ExpiresAt: ls.ExpiresAt, Grants: ls.Grants, Meta: Meta{JobID: ls.JobID, Owner: ls.Owner}}
}

// Ledger tracks one datacenter's live allocations.
type Ledger struct {
	tab atomic.Pointer[table]

	// store holds the lease bookkeeping, under internal/striped's lock order.
	// The table swap (Rekey) happens with all shard locks held, so any op
	// holding one shard lock reads a stable table pointer.
	store *striped.Store[lease]

	// Cumulative counters. The conservation invariant is
	//   reserved == released + expired + forfeited + outstanding
	// in exact millicores, where outstanding is the sum over live leases.
	// Each counter moves while its lease's shard lock is held, so a
	// lock-all reader (Export, Snapshot) sees books consistent with the
	// lease maps.
	reservedMillis  atomic.Int64
	releasedMillis  atomic.Int64
	expiredMillis   atomic.Int64
	forfeitedMillis atomic.Int64
	reserves        atomic.Uint64
	releases        atomic.Uint64
	renews          atomic.Uint64
	expiries        atomic.Uint64 // leases reclaimed by the sweep
	conflicts       atomic.Uint64 // failed reserves (insufficient or stale)
	stales          atomic.Uint64 // reserves refused for generation mismatch
}

// leaseChunk is how many lease records a shard allocates at once, 5 kB.
// Leases come and go, and each lands on its first class's shard, so a shard's
// high-water mark moves up a few records at a time whenever the held count or
// the classes' shares drift. A 256-record step would be 40 kB, enough that
// whether one lands inside a two-second window moves fleet_routed's bytes per
// request by a quarter.
const leaseChunk = 32

// New creates an empty ledger for the given clustering generation.
func New(generation uint64, numClasses int) *Ledger {
	l := &Ledger{store: striped.New(leaseChunk, func(ls *lease) *uint64 { return &ls.epoch })}
	l.tab.Store(newTable(generation, numClasses))
	return l
}

// Generation returns the clustering generation the ledger is keyed to.
func (l *Ledger) Generation() uint64 { return l.tab.Load().generation }

// AllocatedCores returns the class's current allocation when the ledger is
// keyed to the given generation. ok is false on a generation mismatch or an
// out-of-range class — the caller should then fall back to its snapshot's
// build-time view (the mismatch window is the instants around a re-key).
func (l *Ledger) AllocatedCores(generation uint64, id core.ClassID) (float64, bool) {
	t := l.tab.Load()
	if t.generation != generation || int(id) < 0 || int(id) >= len(t.alloc) {
		return 0, false
	}
	return CoresOf(t.alloc[int(id)].Load()), true
}

// AllocatedMillis is AllocatedCores in the ledger's native fixed point, for
// callers (the select index) that compare against exact occupancy deltas.
func (l *Ledger) AllocatedMillis(generation uint64, id core.ClassID) (int64, bool) {
	t := l.tab.Load()
	if t.generation != generation || int(id) < 0 || int(id) >= len(t.alloc) {
		return 0, false
	}
	return t.alloc[int(id)].Load(), true
}

// Occupancy returns the ledger's generation and current per-class occupancy
// straight from the atomic counter table — no lease-map locks, so hot query
// paths can read it without serializing against Reserve/Release bookkeeping
// (Snapshot scans every lease under the shard locks; this does not).
func (l *Ledger) Occupancy() (generation uint64, allocMillisByClass []int64) {
	t := l.tab.Load()
	out := make([]int64, len(t.alloc))
	for i := range t.alloc {
		out[i] = t.alloc[i].Load()
	}
	return t.generation, out
}

// Reserve atomically reserves cores across the requested classes and records
// a lease. Admission per class is a CAS loop bounded by the request's
// Capacity, so concurrent reservations can never jointly push a class's total
// allocation past the bound; a partial reservation that loses a later class's
// race is rolled back completely. ttl > 0 arms the lease for the expiry
// sweep. Zero-core requests are skipped; a reservation that skips everything
// fails.
func (l *Ledger) Reserve(generation uint64, reqs []Request, ttl time.Duration, now time.Time) (Lease, error) {
	return l.ReserveInto(nil, generation, reqs, ttl, now, Meta{})
}

// ReserveMeta is Reserve with operator metadata attached to the resulting
// lease (surfaced on /debug/traces and the /v1/{dc}/leases listing).
func (l *Ledger) ReserveMeta(generation uint64, reqs []Request, ttl time.Duration, now time.Time, meta Meta) (Lease, error) {
	return l.ReserveInto(nil, generation, reqs, ttl, now, meta)
}

// ReserveInto is the reservation itself, with the returned lease's Grants
// written into the caller's buffer (from its start; a buffer too small is
// replaced): a caller that reuses one buffer pays for a reservation nothing,
// the lease record coming from the store's chunks.
func (l *Ledger) ReserveInto(grants []Grant, generation uint64, reqs []Request, ttl time.Duration, now time.Time, meta Meta) (Lease, error) {
	t := l.tab.Load()
	if t.generation != generation {
		l.conflicts.Add(1)
		l.stales.Add(1)
		return Lease{}, ErrStaleGeneration
	}
	if cap(grants) < len(reqs) {
		grants = make([]Grant, 0, len(reqs))
	}
	grants = grants[:0]
	var total int64
	for _, rq := range reqs {
		want := ToMillis(rq.Cores)
		if want <= 0 {
			continue
		}
		if int(rq.Class) < 0 || int(rq.Class) >= len(t.alloc) {
			l.rollback(t, grants)
			l.conflicts.Add(1)
			return Lease{}, fmt.Errorf("ledger: class %d out of range", rq.Class)
		}
		// Floor the bound so float noise can only under-admit, never over.
		capMillis := int64(math.Floor(rq.Capacity * MillisPerCore))
		a := &t.alloc[int(rq.Class)]
		for {
			cur := a.Load()
			if cur+want > capMillis {
				l.rollback(t, grants)
				l.conflicts.Add(1)
				return Lease{}, &InsufficientError{Class: rq.Class}
			}
			if a.CompareAndSwap(cur, cur+want) {
				break
			}
		}
		grants = append(grants, Grant{Class: uint32(rq.Class), Millis: want})
		total += want
	}
	if len(grants) == 0 {
		l.conflicts.Add(1)
		return Lease{}, fmt.Errorf("ledger: nothing to reserve")
	}

	// The lease lands on its first class's shard, so reservations in
	// different classes book-keep on different locks.
	sh := l.store.Shard(striped.ShardOf(uint64(grants[0].Class)))
	sh.Lock()
	if l.tab.Load() != t {
		// A re-key swapped the table between our CASes and the insert (Rekey
		// holds every shard lock across the swap, so taking ours ordered us
		// after it): the summed-from-leases new table never saw these grants,
		// so undoing them on the dead table is a no-op for the live one.
		// Retry upstream.
		sh.Unlock()
		l.rollback(t, grants)
		l.conflicts.Add(1)
		l.stales.Add(1)
		return Lease{}, ErrStaleGeneration
	}
	id := sh.NewID()
	ls := sh.Add(id)
	ls.ID, ls.JobID, ls.Owner = id, meta.JobID, meta.Owner
	ls.Grants = append(ls.inline[:0], grants...) // the record's own copy
	if ttl > 0 {
		ls.ExpiresAt = now.Add(ttl)
	}
	// The cumulative counters move under the same shard lock as the lease
	// map entry (internal/striped's rule): Export reads both with all shard
	// locks held.
	l.reserves.Add(1)
	l.reservedMillis.Add(total)
	out := Lease{ID: ls.ID, ExpiresAt: ls.ExpiresAt, Grants: grants, Meta: meta}
	sh.Unlock()
	return out, nil
}

func (l *Ledger) rollback(t *table, grants []Grant) {
	for _, g := range grants {
		t.alloc[int(g.Class)].Add(-g.Millis)
	}
}

// Release returns a lease's cores to its classes and retires the lease.
func (l *Ledger) Release(id uint64) (Lease, error) { return l.ReleaseInto(nil, id) }

// ReleaseInto is the release itself, with the returned lease's Grants copied
// into the caller's buffer (from its start) before the record goes back to
// the store for reuse.
func (l *Ledger) ReleaseInto(grants []Grant, id uint64) (Lease, error) {
	sh := l.store.Shard(striped.ShardOf(id))
	sh.Lock()
	ls := sh.Get(id)
	if ls == nil {
		sh.Unlock()
		return Lease{}, ErrUnknownLease
	}
	t := l.tab.Load() // stable: Rekey holds every shard lock across the swap
	var total int64
	for _, g := range ls.Grants {
		t.alloc[int(g.Class)].Add(-g.Millis)
		total += g.Millis
	}
	out := ls.view()
	out.Grants = append(grants[:0], out.Grants...)
	sh.Remove(id)
	l.releases.Add(1)
	l.releasedMillis.Add(total) // under the shard lock — see ReserveInto
	sh.Unlock()
	return out, nil
}

// Renew extends (or, with ttl <= 0, removes) a live lease's expiry deadline
// without touching its grants: long jobs keep their cores without paying a
// release + re-select round trip, and no millicores move, so the
// conservation books are untouched by construction.
func (l *Ledger) Renew(id uint64, ttl time.Duration, now time.Time) (Lease, error) {
	return l.RenewInto(nil, id, ttl, now)
}

// RenewInto is the renewal itself, with the returned lease's Grants copied
// into the caller's buffer (from its start).
func (l *Ledger) RenewInto(grants []Grant, id uint64, ttl time.Duration, now time.Time) (Lease, error) {
	sh := l.store.Shard(striped.ShardOf(id))
	sh.Lock()
	ls := sh.Get(id)
	if ls == nil {
		sh.Unlock()
		return Lease{}, ErrUnknownLease
	}
	if ttl > 0 {
		ls.ExpiresAt = now.Add(ttl)
	} else {
		ls.ExpiresAt = time.Time{}
	}
	out := ls.view()
	out.Grants = append(grants[:0], out.Grants...)
	l.renews.Add(1)
	sh.Unlock()
	return out, nil
}

// List returns one page of live leases ordered by id (a stable order for
// pagination), plus the total live count. It walks every shard's lease map
// with all locks held — an operator-endpoint cost, not a hot-path one.
func (l *Ledger) List(offset, limit int) (page []Lease, total int) {
	if limit <= 0 {
		return nil, 0
	}
	l.store.LockAll()
	defer l.store.UnlockAll()
	total = l.store.Len()
	if offset >= total {
		return nil, total
	}
	ids := make([]uint64, 0, total)
	for id := range l.store.All() {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	end := offset + limit
	if end > total {
		end = total
	}
	page = make([]Lease, 0, end-offset)
	for _, id := range ids[offset:end] {
		out := l.store.Shard(striped.ShardOf(id)).Get(id).view()
		out.Grants = slices.Clone(out.Grants)
		page = append(page, out)
	}
	return page, total
}

// ExpireBefore reclaims every lease whose deadline is at or before now —
// the sweep for clients that died holding a reservation. Leases with no
// deadline never expire. The sweep walks one shard at a time, so it never
// stalls reserve/release traffic on the other shards.
func (l *Ledger) ExpireBefore(now time.Time) (leases int, millis int64) {
	for i := range striped.NumShards {
		sh := l.store.Shard(i)
		sh.Lock()
		t := l.tab.Load() // stable while the shard lock is held
		var shardLeases int
		var shardMillis int64
		for id, ls := range sh.All() {
			if ls.ExpiresAt.IsZero() || ls.ExpiresAt.After(now) {
				continue
			}
			for _, g := range ls.Grants {
				t.alloc[int(g.Class)].Add(-g.Millis)
				shardMillis += g.Millis
			}
			sh.Remove(id)
			shardLeases++
		}
		if shardLeases > 0 {
			l.expiries.Add(uint64(shardLeases))
			l.expiredMillis.Add(shardMillis) // under the shard lock — see ReserveInto
		}
		sh.Unlock()
		leases += shardLeases
		millis += shardMillis
	}
	return leases, millis
}

// Rekey moves the ledger to a new clustering generation. Every live lease's
// grants are split across the new classes according to remap — old class →
// weighted shares, typically "where did this class's servers land" — with
// largest-remainder apportioning so each grant's millicore total is conserved
// exactly. Grants on an old class with no shares (every server left the
// serving set) are forfeited and counted. The new table is summed from the
// rewritten leases and published with one atomic swap while every shard lock
// is held; a reservation racing the swap rolls itself back and retries (see
// ReserveInto). Leases stay on their issuing shard — the id's shard bits are
// immutable — even when a grant remap moves their classes.
func (l *Ledger) Rekey(newGeneration uint64, numClasses int, remap map[core.ClassID][]Share) {
	l.store.LockAll()
	defer l.store.UnlockAll()
	nt := newTable(newGeneration, numClasses)
	for _, ls := range l.store.All() {
		ls.Grants = l.remapGrants(ls.Grants, remap, numClasses)
		for _, g := range ls.Grants {
			nt.alloc[int(g.Class)].Add(g.Millis)
		}
	}
	l.tab.Store(nt)
}

// remapGrants rewrites one lease's grants into the new class space,
// conserving each grant's total exactly (or forfeiting it when it has
// nowhere to go). Shares into the same new class merge.
func (l *Ledger) remapGrants(grants []Grant, remap map[core.ClassID][]Share, numClasses int) []Grant {
	merged := make(map[core.ClassID]int64, len(grants))
	for _, g := range grants {
		shares := remap[core.ClassID(g.Class)]
		var weight float64
		for _, sh := range shares {
			if int(sh.Class) >= 0 && int(sh.Class) < numClasses && sh.Weight > 0 {
				weight += sh.Weight
			}
		}
		if weight <= 0 {
			l.forfeitedMillis.Add(g.Millis)
			continue
		}
		// Largest-remainder apportioning: floors first, then hand the
		// leftover millis to the largest fractional parts, so the split sums
		// to g.Millis exactly.
		type part struct {
			class core.ClassID
			base  int64
			frac  float64
		}
		parts := make([]part, 0, len(shares))
		var assigned int64
		for _, sh := range shares {
			if int(sh.Class) < 0 || int(sh.Class) >= numClasses || sh.Weight <= 0 {
				continue
			}
			exact := float64(g.Millis) * sh.Weight / weight
			base := int64(math.Floor(exact))
			parts = append(parts, part{class: sh.Class, base: base, frac: exact - float64(base)})
			assigned += base
		}
		sort.Slice(parts, func(i, j int) bool {
			if parts[i].frac != parts[j].frac {
				return parts[i].frac > parts[j].frac
			}
			return parts[i].class < parts[j].class // deterministic tie-break
		})
		for i := int64(0); i < g.Millis-assigned; i++ {
			parts[i%int64(len(parts))].base++
		}
		for _, p := range parts {
			merged[p.class] += p.base
		}
	}
	out := make([]Grant, 0, len(merged))
	for cls, m := range merged {
		if m > 0 {
			out = append(out, Grant{Class: uint32(cls), Millis: m})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Class < out[j].Class })
	return out
}

// Stats is a point-in-time summary and the ledger's section of /metrics, in
// both expositions (see obs.WriteMetrics for the tags). OutstandingMillis and
// ActiveLeases are read with every shard lock held, together with the
// cumulative counters, so the conservation invariant
//
//	reserved_millis == released_millis + expired_millis + forfeited_millis + outstanding_millis
//
// holds exactly at every reading; ConservationErrorMillis is its residue, and
// anything but zero is a bug. The *_millis fields are exact integers; the
// *_cores fields are the same numbers for humans.
type Stats struct {
	Generation        uint64  `json:"-"`
	ActiveLeases      int     `json:"active_leases" prom:"harvestd_ledger_active_leases,gauge" help:"Live leases."`
	OutstandingCores  float64 `json:"outstanding_cores" prom:"harvestd_ledger_outstanding_cores,gauge" help:"Cores currently reserved."`
	ReservedCores     float64 `json:"reserved_cores"`
	ReleasedCores     float64 `json:"released_cores"`
	ExpiredCores      float64 `json:"expired_cores"`
	ForfeitedCores    float64 `json:"forfeited_cores"`
	OutstandingMillis int64   `json:"outstanding_millis"`
	ReservedMillis    int64   `json:"reserved_millis" prom:"harvestd_ledger_reserved_millis_total,counter" help:"Milli-cores ever reserved."`
	ReleasedMillis    int64   `json:"released_millis" prom:"harvestd_ledger_released_millis_total,counter" help:"Milli-cores returned by release."`
	ExpiredMillis     int64   `json:"expired_millis" prom:"harvestd_ledger_expired_millis_total,counter" help:"Milli-cores reclaimed by expiry."`
	ForfeitedMillis   int64   `json:"forfeited_millis" prom:"harvestd_ledger_forfeited_millis_total,counter" help:"Milli-cores forfeited on snapshot change."`
	// ConservationErrorMillis is reserved − released − expired − forfeited −
	// outstanding.
	ConservationErrorMillis int64  `json:"conservation_error_millis" prom:"harvestd_ledger_conservation_error_millis,gauge" help:"Milli-cores by which the ledger's books fail to balance; anything but 0 is a bug."`
	Reserves                uint64 `json:"reserves" prom:"harvestd_ledger_reserves_total,counter" help:"Successful reservations."`
	Releases                uint64 `json:"releases" prom:"harvestd_ledger_releases_total,counter" help:"Successful releases."`
	Renews                  uint64 `json:"renews" prom:"harvestd_ledger_renews_total,counter" help:"Successful lease renewals."`
	Expiries                uint64 `json:"expiries" prom:"harvestd_ledger_expiries_total,counter" help:"Lease expiries."`
	Conflicts               uint64 `json:"conflicts" prom:"harvestd_ledger_conflicts_total,counter" help:"Reservations lost to capacity conflicts."`
	// StaleRetries counts reservations refused because they were computed
	// against another generation than the ledger's. A caller that keys its
	// writes under the generation it moves them with never meets one, so in
	// the service anything but 0 is a bug.
	StaleRetries uint64 `json:"stale_retries"`
	// AllocatedMillisByClass is the current table's occupancy, indexed by
	// dense ClassID; AllocatedCoresByClass is the same in cores.
	AllocatedMillisByClass []int64   `json:"-"`
	AllocatedCoresByClass  []float64 `json:"allocated_cores_by_class"`
}

// Snapshot returns the ledger's counters and per-class occupancy.
func (l *Ledger) Snapshot() Stats {
	var st Stats
	l.SnapshotInto(&st)
	return st
}

// SnapshotInto is Snapshot into st, reusing its per-class slices' storage.
func (l *Ledger) SnapshotInto(st *Stats) {
	millis, cores := st.AllocatedMillisByClass, st.AllocatedCoresByClass
	l.store.LockAll()
	t := l.tab.Load()
	*st = Stats{
		Generation:             t.generation,
		ActiveLeases:           l.store.Len(),
		AllocatedMillisByClass: resized(millis, len(t.alloc)),
		AllocatedCoresByClass:  resized(cores, len(t.alloc)),
	}
	for _, ls := range l.store.All() {
		for _, g := range ls.Grants {
			st.OutstandingMillis += g.Millis
		}
	}
	// Cumulative counters read under the same locks their writers hold, so
	// the outstanding sum and the books belong to one consistent instant.
	st.ReservedMillis = l.reservedMillis.Load()
	st.ReleasedMillis = l.releasedMillis.Load()
	st.ExpiredMillis = l.expiredMillis.Load()
	st.ForfeitedMillis = l.forfeitedMillis.Load()
	st.Reserves = l.reserves.Load()
	st.Releases = l.releases.Load()
	st.Renews = l.renews.Load()
	st.Expiries = l.expiries.Load()
	st.Conflicts = l.conflicts.Load()
	st.StaleRetries = l.stales.Load()
	l.store.UnlockAll()
	st.OutstandingCores = CoresOf(st.OutstandingMillis)
	st.ReservedCores = CoresOf(st.ReservedMillis)
	st.ReleasedCores = CoresOf(st.ReleasedMillis)
	st.ExpiredCores = CoresOf(st.ExpiredMillis)
	st.ForfeitedCores = CoresOf(st.ForfeitedMillis)
	st.ConservationErrorMillis = st.ReservedMillis - st.ReleasedMillis - st.ExpiredMillis - st.ForfeitedMillis - st.OutstandingMillis
	for i := range t.alloc {
		st.AllocatedMillisByClass[i] = t.alloc[i].Load()
		st.AllocatedCoresByClass[i] = CoresOf(st.AllocatedMillisByClass[i])
	}
}

// resized returns s at length n, reallocated only when too short; never nil.
func resized[E any](s []E, n int) []E {
	if s == nil || cap(s) < n {
		return make([]E, n)
	}
	return s[:n]
}

// State is the ledger's full persistable state: the generation it is keyed
// to, its cumulative conservation counters and every live lease — the record
// the persistence file and a replication frame both carry.
type State = wire.ReplLedger

// Walk is the ledger's one consistent read of its whole state: with every
// shard lock held it calls begin once with the books (a State with no leases)
// and the live-lease count, then visit once per live lease, in no particular
// order. The books and the leases therefore belong to one instant, so
// conservation holds over what a walk saw. Each lease's Grants is the ledger's
// own slice, lent for the duration of the call: visit may read it (encode it,
// copy it) but must not keep or modify it. Neither callback may call back into
// the ledger.
func (l *Ledger) Walk(begin func(books State, leases int), visit func(wire.ReplLease)) {
	l.store.LockAll()
	defer l.store.UnlockAll()
	begin(State{
		Generation:      l.tab.Load().generation,
		ReservedMillis:  l.reservedMillis.Load(),
		ReleasedMillis:  l.releasedMillis.Load(),
		ExpiredMillis:   l.expiredMillis.Load(),
		ForfeitedMillis: l.forfeitedMillis.Load(),
		Reserves:        l.reserves.Load(),
		Releases:        l.releases.Load(),
		Renews:          l.renews.Load(),
		Expiries:        l.expiries.Load(),
		Conflicts:       l.conflicts.Load(),
	}, l.store.Len())
	for _, ls := range l.store.All() {
		visit(ls.ReplLease)
	}
}

// Export captures the ledger's state for persistence: one Walk, copying each
// lease's grants out, ordered by id once the locks are released.
func (l *Ledger) Export() State {
	var st State
	l.Walk(func(books State, leases int) {
		st = books
		st.Leases = make([]wire.ReplLease, 0, leases)
	}, func(ls wire.ReplLease) {
		ls.Grants = slices.Clone(ls.Grants)
		st.Leases = append(st.Leases, ls)
	})
	sort.Slice(st.Leases, func(i, j int) bool { return st.Leases[i].ID < st.Leases[j].ID })
	return st
}

// Changed counts what one Reconcile did to the lease map: leases it did not
// hold and inserted, leases whose grants differed and were rewritten, and
// held leases absent from the new state and deleted. Leases that only moved
// their expiry or metadata count as none of these.
type Changed struct {
	Inserted, Rewritten, Deleted int
}

// Reconcile makes the ledger's entire state equal to st, in place: the one
// function that turns a state into live books, behind the follower's apply of
// every replication frame, ApplyState, and Restore at boot. st is only read,
// and may be storage the caller reuses: Reconcile copies what it keeps. The
// caller must have validated the whole state first, because the first lease
// may already mutate: that is how a frame stays all-or-nothing.
//
// Work is proportional to the leases for the walk but allocates only for what
// changed: a lease already held with the same grants has its expiry and
// metadata overwritten in place; an unknown lease is inserted and a re-keyed
// one rewritten, a few grants inside the record either way; held leases the
// state does not name are deleted. It mutates an existing ledger (the
// shard's ledger pointer must stay stable for concurrent readers) and re-keys
// to whatever generation the
// books carry: the follower's snapshot apply and ledger apply arrive as one
// frame, so the generations move together. The per-class table is summed
// afresh and published with one pointer store at the end, so lock-free
// readers see the old sums or the new ones, never a mixture. Zero and
// repeated ids are skipped, and grants on classes outside [0, numClasses) are
// forfeited rather than trusted — the forfeit is added to the books, which is
// what keeps them conserved over the leases actually applied. Lease ids keep
// their issuing primary's shard bits, so Release routes identically after a
// promotion; fresh ids issued after promotion come from this ledger's own
// CSPRNG streams and are collision-checked against the applied set, so a
// handoff cannot double-grant an id.
func (l *Ledger) Reconcile(st *State, numClasses int) Changed {
	l.store.LockAll()
	defer l.store.UnlockAll()
	l.store.BeginPass()
	nt := newTable(st.Generation, numClasses)
	classes := uint64(numClasses)
	var ch Changed
	var forfeited int64
	applied := 0
	for i := range st.Leases {
		in := &st.Leases[i]
		if in.ID == 0 {
			continue
		}
		sh := l.store.Shard(striped.ShardOf(in.ID))
		ls := sh.Get(in.ID)
		if ls != nil && l.store.Stamped(ls) {
			continue // the state names this id twice; the first one stands
		}
		// One pass over the incoming grants books them into the new table and
		// tells whether the held lease already has exactly the valid ones.
		valid, same := 0, ls != nil
		for _, g := range in.Grants {
			if g.Millis <= 0 {
				continue
			}
			if uint64(g.Class) >= classes {
				forfeited += g.Millis
				continue
			}
			nt.alloc[int(g.Class)].Add(g.Millis)
			if same && (valid >= len(ls.Grants) || ls.Grants[valid] != g) {
				same = false
			}
			valid++
		}
		if valid == 0 {
			continue // nothing to hold; a lease held under this id is swept below
		}
		// A lease already held as shipped — the steady state — skips this
		// block and allocates nothing.
		if same = same && valid == len(ls.Grants); !same {
			// Nothing holds a record's grants past its shard lock, so a
			// rewrite copies in place: into the record's own grants while
			// they fit, as ReserveInto's do.
			if ls == nil {
				ls = sh.Add(in.ID)
				ch.Inserted++
			} else {
				ch.Rewritten++
			}
			grants := ls.inline[:0]
			if valid > inlineGrants {
				grants = make([]Grant, 0, valid)
			}
			for _, g := range in.Grants {
				if g.Millis > 0 && uint64(g.Class) < classes {
					grants = append(grants, g)
				}
			}
			ls.Grants = grants
		}
		ls.ID, ls.ExpiresAt, ls.JobID, ls.Owner = in.ID, in.ExpiresAt, in.JobID, in.Owner
		l.store.Stamp(ls)
		applied++
	}
	l.store.Sweep(applied, func(*lease) { ch.Deleted++ })
	// The generation lives in the table and moves with it.
	l.reservedMillis.Store(st.ReservedMillis)
	l.releasedMillis.Store(st.ReleasedMillis)
	l.expiredMillis.Store(st.ExpiredMillis)
	l.forfeitedMillis.Store(st.ForfeitedMillis + forfeited)
	l.reserves.Store(st.Reserves)
	l.releases.Store(st.Releases)
	l.renews.Store(st.Renews)
	l.expiries.Store(st.Expiries)
	l.conflicts.Store(st.Conflicts)
	l.tab.Store(nt)
	return ch
}

// ApplyState is Reconcile on an exported State.
func (l *Ledger) ApplyState(st State, numClasses int) { l.Reconcile(&st, numClasses) }

// Restore builds a ledger from persisted state, which must be keyed to the
// given generation (the restored snapshot's): a fresh ledger, reconciled to
// the state. A file is held to more than a peer is (striped.CheckRecords
// refuses the whole state where Reconcile would skip a lease) and otherwise
// treated the same: grants on out-of-range classes are forfeited rather than
// trusted (the file may predate a re-key the process never got to persist),
// and leases route to the shard their id's low bits name, whatever process
// issued them.
func Restore(st State, generation uint64, numClasses int) (*Ledger, error) {
	if st.Generation != generation {
		return nil, fmt.Errorf("ledger: state is for generation %d, snapshot is %d", st.Generation, generation)
	}
	err := striped.CheckRecords("ledger: lease", st.Leases,
		func(ls *wire.ReplLease) (uint64, error) { return ls.ID, ls.Encodable() })
	if err != nil {
		return nil, err
	}
	l := New(generation, numClasses)
	l.Reconcile(&st, numClasses)
	return l, nil
}
