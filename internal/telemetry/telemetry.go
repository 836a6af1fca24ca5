// Package telemetry is the live utilization history source of the serving
// layer: fixed-capacity per-tenant ring buffers of timestamped utilization
// samples. In the paper's deployment the clustering service re-derives
// utilization classes "periodically, from the latest telemetry" (§4.1); this
// package is where that telemetry accumulates between re-clusterings.
//
// Concurrency model: each ring has a single logical writer (concurrent
// ingest calls serialize on a tiny per-ring mutex) and any number of
// lock-free readers. The writer fills a slot with atomic stores and then
// publishes it by advancing an atomic cursor; readers load the cursor, copy
// the slots they want, and re-check the cursor to detect a wrap-around
// overwrite, retrying in that (rare) case. Snapshot builds therefore never
// block ingest and ingest never blocks snapshot builds — the property the
// serving layer's "queries never wait on a rebuild" contract extends to the
// new data path.
//
// A ring's slots live outside the Go heap, in an anonymous mapping released
// when the ring becomes unreachable (cells_unix.go): a month of history per
// tenant would otherwise be most of the live heap, and the GC lets garbage
// grow to the size of the live heap before it collects. Every method that
// touches slots therefore keeps its ring reachable until its last access.
package telemetry

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"harvest/internal/tenant"
	"harvest/internal/timeseries"
)

// Ingest's rejections, matched with errors.Is. They are values rather than
// messages formatted per call: a retried slot is rejected sample by sample,
// and rejecting it must not cost the heap an object per sample.
var (
	ErrUnknownTenant = errors.New("telemetry: unknown tenant")
	ErrNaN           = errors.New("telemetry: NaN utilization")
	ErrNotNewer      = errors.New("telemetry: sample not newer than the tenant's latest")
)

// Sample is one timestamped utilization observation for a tenant's "average
// server". At is an offset on the telemetry clock (time since the start of
// the tenant's history), not wall-clock time.
type Sample struct {
	At    time.Duration
	Value float64
}

// Ring is a fixed-capacity single-writer ring of samples. It stores one
// spare slot beyond the requested capacity so that a reader copying the full
// window can always detect (rather than miss) a concurrent overwrite.
//
// A slot is a value's bits, 8 bytes. While every sample lands exactly step
// after the one before — sample n at origin + n·step, as Bootstrap and
// default-offset Ingest always place them — the ring is on its grid and
// stores no timestamps. The first sample off the grid materializes stamps, a
// per-slot offset table, which the ring keeps from then on. The cursor
// re-check in readWindow is what keeps a reader from pairing a new value with
// an old timestamp, computed or stored.
//
// Both slot arrays are cells outside the Go heap wherever newCells can map
// them. The cursor, clock and mutex stay in the Ring: the seqlock's
// synchronization is all on heap words, the only atomics the race detector
// orders accesses by, and the slots publish nothing.
type Ring struct {
	bits   []atomic.Uint64                // value bits; sample n lives in bits[n % len(bits)]
	stamps atomic.Pointer[[]atomic.Int64] // slot offsets, beside bits; nil while on the grid
	origin atomic.Int64                   // sample 0's offset
	step   atomic.Int64                   // sample 1's offset minus sample 0's
	head   atomic.Uint64                  // samples ever appended
	wmu    sync.Mutex                     // serializes writers; a reader takes it only after losing lockFreeAttempts races
	mapped *atomic.Int64                  // bytes mapped for the store's rings; nil outside a store
}

// NewRing creates a ring holding up to capacity samples.
func NewRing(capacity int) *Ring { return newRing(capacity, nil) }

func newRing(capacity int, mapped *atomic.Int64) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	r := &Ring{mapped: mapped}
	r.bits = newCells[atomic.Uint64](r, capacity+1)
	return r
}

// cell is what a ring's slot arrays hold.
type cell interface{ atomic.Uint64 | atomic.Int64 }

// newCells returns n zeroed cells for r: mapped outside the heap when
// mapCells can, made on it otherwise.
func newCells[T cell](r *Ring, n int) []T {
	if c := mapCells[T](r, n, r.mapped); c != nil {
		return c
	}
	return make([]T, n)
}

// Capacity returns the maximum number of samples the ring retains.
func (r *Ring) Capacity() int { return len(r.bits) - 1 }

// clock is how one read maps sample numbers to offsets. A reader takes it
// after loading the cursor: the writer publishes a table before the first
// sample that needs it, so a cursor covering that sample implies the table.
type clock struct {
	stamps       []atomic.Int64
	origin, step int64
}

func (r *Ring) clock() clock {
	c := clock{origin: r.origin.Load(), step: r.step.Load()}
	if p := r.stamps.Load(); p != nil {
		c.stamps = *p
	}
	return c
}

// at returns sample n's offset.
func (c clock) at(n uint64) time.Duration {
	if c.stamps != nil {
		return time.Duration(c.stamps[n%uint64(len(c.stamps))].Load())
	}
	return time.Duration(c.origin + int64(n)*c.step)
}

// Len returns how many samples are currently retained.
func (r *Ring) Len() int {
	head := r.head.Load()
	if c := uint64(r.Capacity()); head > c {
		return int(c)
	}
	return int(head)
}

// Append adds one sample. Safe for concurrent callers (they serialize on the
// ring's writer mutex); never blocks readers, and waits for one only when it
// has been starving that reader (see lockFreeAttempts).
func (r *Ring) Append(at time.Duration, value float64) {
	r.wmu.Lock()
	r.appendLocked(at, value)
	r.wmu.Unlock()
}

func (r *Ring) appendLocked(at time.Duration, value float64) {
	head := r.head.Load()
	r.fill(head, at, value)
	r.head.Store(head + 1) // publish
}

// fill stores sample n into its slot, unpublished.
func (r *Ring) fill(n uint64, at time.Duration, value float64) {
	i := n % uint64(len(r.bits))
	stamps := r.stamps.Load()
	if stamps == nil {
		switch {
		case n == 0:
			r.origin.Store(int64(at))
		case n == 1:
			r.step.Store(int64(at) - r.origin.Load())
		case int64(at) != r.origin.Load()+int64(n)*r.step.Load():
			stamps = r.leaveGrid(n)
		}
	}
	if stamps != nil {
		(*stamps)[i].Store(int64(at))
	}
	r.bits[i].Store(math.Float64bits(value))
	runtime.KeepAlive(r)
}

// leaveGrid materializes the offset table for sample n, the first off the
// grid: every slot gets the grid offset of the sample it holds, and the table
// is published before the cursor can cover sample n.
func (r *Ring) leaveGrid(n uint64) *[]atomic.Int64 {
	stamps := newCells[atomic.Int64](r, len(r.bits))
	grid := r.clock()
	for k := n - min(n, uint64(len(stamps))); k < n; k++ {
		stamps[k%uint64(len(stamps))].Store(int64(grid.at(k)))
	}
	r.stamps.Store(&stamps)
	runtime.KeepAlive(r)
	return &stamps
}

// appendSeries appends values as samples spaced interval apart, the last one
// at endAt, under one acquisition of the writer mutex. The cursor is published
// once per run of slots outside the window a reader may be copying — all of
// them on an empty ring, the one spare slot on a full one — so a reader sees
// the window before a run or after it and the seqlock's acceptance rule holds
// unchanged: a run never stores to a slot of a sample it has yet to supersede.
func (r *Ring) appendSeries(values []float64, endAt, interval time.Duration) {
	r.wmu.Lock()
	defer r.wmu.Unlock()
	head := r.head.Load()
	at := endAt - time.Duration(len(values)-1)*interval
	for len(values) > 0 {
		free := uint64(len(r.bits)) - min(head, uint64(r.Capacity()))
		run := values[:min(free, uint64(len(values)))]
		for _, v := range run {
			r.fill(head, at, v)
			head++
			at += interval
		}
		r.head.Store(head) // publish
		values = values[len(run):]
	}
	runtime.KeepAlive(r)
}

// appendAfter resolves the sample's offset against the ring's latest sample
// and appends, all under the writer mutex so two concurrent ingests cannot
// both pass the monotonicity check. A non-positive at becomes one interval
// after the latest sample; an explicit at must be strictly newer than it.
func (r *Ring) appendAfter(at time.Duration, value float64, interval time.Duration) (time.Duration, error) {
	r.wmu.Lock()
	defer r.wmu.Unlock()
	head := r.head.Load()
	var lastAt time.Duration
	if head > 0 {
		// Safe to read directly: we hold the only writer lock.
		lastAt = r.clock().at(head - 1)
		runtime.KeepAlive(r)
	}
	if at <= 0 {
		at = lastAt + interval
	} else if head > 0 && at <= lastAt {
		return 0, ErrNotNewer
	}
	r.appendLocked(at, value)
	return at, nil
}

// lockFreeAttempts is how many times a reader retries its seqlock copy before
// taking the writer mutex for it. A copy fails when a sample lands while it
// runs — on a full ring, any sample — so a writer appending faster than a
// window copies (an unthrottled ingest against a month-long ring) would
// otherwise starve the reader, and with it the refresh, for as long as it
// kept up.
const lockFreeAttempts = 3

// Last returns the most recent sample, if any. Lock-free unless it loses
// lockFreeAttempts races with the writer.
func (r *Ring) Last() (Sample, bool) {
	for attempt := 0; ; attempt++ {
		if attempt == lockFreeAttempts {
			r.wmu.Lock()
			defer r.wmu.Unlock()
		}
		head := r.head.Load()
		if head == 0 {
			return Sample{}, false
		}
		out := Sample{At: r.clock().at(head - 1), Value: math.Float64frombits(r.bits[(head-1)%uint64(len(r.bits))].Load())}
		runtime.KeepAlive(r)
		// Sample head-1's slot is next reused by sample head-1+len(bits),
		// which the writer begins once the published cursor reaches it; the
		// copy above is consistent iff the cursor is still strictly below
		// that (same acceptance rule as Snapshot with start = head-1).
		if r.head.Load() < head+uint64(r.Capacity()) {
			return out, true
		}
	}
}

// readWindow is the seqlock every whole-window read runs under. copyRange
// copies samples [start, head) — the retained window as of one load of the
// cursor — and is called again, from scratch, each time the writer wrapped
// into the range while it ran; after lockFreeAttempts such losses the writer
// is held off for one copy. The ring stays reachable until each copy returns,
// which covers every caller's slot reads.
func (r *Ring) readWindow(copyRange func(start, head uint64)) {
	for attempt := 0; ; attempt++ {
		if attempt == lockFreeAttempts {
			r.wmu.Lock()
			defer r.wmu.Unlock()
		}
		head := r.head.Load()
		start := head - min(head, uint64(r.Capacity()))
		copyRange(start, head)
		runtime.KeepAlive(r)
		// Accept iff no sample we copied can have been overwritten. The spare
		// slot covers the one sample the writer may be part-way through:
		// sample `start`'s slot is reused by sample start+len(bits), which
		// the writer begins once head == start+len(bits) is published. So on
		// a full ring (start+Capacity == head) the copy stands only if no
		// sample at all was published while it ran.
		if r.head.Load() <= start+uint64(r.Capacity()) {
			return
		}
	}
}

// Snapshot appends the retained samples, oldest first, to dst and returns
// it. Lock-free unless it loses lockFreeAttempts races with the writer (see
// readWindow).
func (r *Ring) Snapshot(dst []Sample) []Sample {
	base := len(dst)
	r.readWindow(func(start, head uint64) {
		dst = dst[:base]
		c := r.clock()
		for n := start; n < head; n++ {
			dst = append(dst, Sample{At: c.at(n), Value: math.Float64frombits(r.bits[n%uint64(len(r.bits))].Load())})
		}
	})
	return dst
}

// Values is Snapshot without the timestamps: it appends the retained values,
// oldest first, to dst and returns it, under the same seqlock. With a dst of
// sufficient capacity it allocates nothing, which is what lets one scratch
// window serve the drift check of every tenant in turn.
func (r *Ring) Values(dst []float64) []float64 {
	base := len(dst)
	r.readWindow(func(start, head uint64) {
		n := head - start
		dst = slices.Grow(dst[:base], int(n))
		// The window is at most two runs of adjacent slots: up to the end of
		// the slot array, then from its beginning.
		lo := start % uint64(len(r.bits))
		first := min(n, uint64(len(r.bits))-lo)
		for _, run := range [2][]atomic.Uint64{r.bits[lo : lo+first], r.bits[:n-first]} {
			for i := range run {
				dst = append(dst, math.Float64frombits(run[i].Load()))
			}
		}
	})
	return dst
}

// tenantRing is one tenant's slot in the store: the current ring behind an
// atomic pointer (readers load it lock-free) plus the mutation lock writers
// and the eviction sweep serialize on. Eviction swaps in a tiny placeholder
// ring so a tenant that stopped reporting stops pinning a full window of
// memory; the next ingest for the tenant swaps a full-capacity ring back in.
type tenantRing struct {
	mu         sync.Mutex // serializes writes and ring replacement
	p          atomic.Pointer[Ring]
	lastAppend atomic.Int64  // wall-clock unix nanos of the last append (bootstrap included)
	mark       atomic.Uint64 // bumped on every window change: append, bootstrap, eviction
}

// Store holds one ring per tenant of a datacenter plus the store-wide
// telemetry clock. The tenant set is fixed at construction, so the map is
// read-only and needs no lock. Store implements tenant.HistorySource: it is
// the ring-backed twin of tenant.TraceHistory.
type Store struct {
	interval time.Duration
	capacity int
	rings    map[tenant.ID]*tenantRing

	horizon    atomic.Int64  // max sample offset ever ingested (telemetry clock)
	total      atomic.Uint64 // samples ever ingested (incl. bootstrap)
	lastIngest atomic.Int64  // wall-clock unix nanos of the last live ingest; 0 = never
	evictions  atomic.Uint64 // rings reclaimed by EvictStale since construction
	// mapped counts the bytes the rings' cells map outside the heap. It is its
	// own object: a ring's cleanup holding a pointer into the Store would keep
	// the Store, and with it every ring, reachable for good.
	mapped *atomic.Int64
}

// NewStore creates a store with one ring of the given capacity per tenant.
// interval is the nominal sample spacing (the slot width classification
// assumes when it materializes a ring as a series).
func NewStore(ids []tenant.ID, interval time.Duration, capacity int) *Store {
	if interval <= 0 {
		interval = timeseries.SlotDuration
	}
	if capacity < 1 {
		capacity = 1
	}
	st := &Store{interval: interval, capacity: capacity, rings: make(map[tenant.ID]*tenantRing, len(ids)), mapped: new(atomic.Int64)}
	for _, id := range ids {
		tr := &tenantRing{}
		tr.p.Store(newRing(capacity, st.mapped))
		st.rings[id] = tr
	}
	return st
}

// Interval returns the nominal sample spacing.
func (st *Store) Interval() time.Duration { return st.interval }

// Ring returns the tenant's current ring, or nil for an unknown tenant. The
// returned ring is safe to read concurrently but may be superseded at any
// time by eviction or regrowth; writers must go through the store.
func (st *Store) Ring(id tenant.ID) *Ring {
	tr := st.rings[id]
	if tr == nil {
		return nil
	}
	return tr.p.Load()
}

// NumTenants returns how many tenants the store tracks.
func (st *Store) NumTenants() int { return len(st.rings) }

// TotalSamples returns how many samples were ever ingested (bootstrap
// included). The serving layer uses it as a cheap "has anything changed"
// version for its live usage cache.
func (st *Store) TotalSamples() uint64 { return st.total.Load() }

// LastIngestAt returns the wall-clock time of the last live Ingest call and
// whether one ever happened. Bootstrap fills do not count: the metric exists
// to expose staleness of the live path.
func (st *Store) LastIngestAt() (time.Time, bool) {
	ns := st.lastIngest.Load()
	if ns == 0 {
		return time.Time{}, false
	}
	return time.Unix(0, ns), true
}

// Bootstrap seeds a tenant's ring from a historical series so the daemon has
// a full analysis window before the first live sample arrives. The trailing
// ring-capacity slots of the series are written with timestamps ending at
// endAt (i.e. the last series value is "now" on the telemetry clock).
func (st *Store) Bootstrap(id tenant.ID, s *timeseries.Series, endAt time.Duration) error {
	tr := st.rings[id]
	if tr == nil {
		return fmt.Errorf("%w %v", ErrUnknownTenant, id)
	}
	if s == nil || s.Len() == 0 {
		return fmt.Errorf("telemetry: tenant %v: empty bootstrap series", id)
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	r := st.fullRingLocked(tr)
	tail := s.Values[max(0, s.Len()-r.Capacity()):]
	r.appendSeries(tail, endAt, st.interval)
	tr.lastAppend.Store(time.Now().UnixNano())
	tr.mark.Add(1)
	st.total.Add(uint64(len(tail)))
	st.advanceHorizon(endAt)
	return nil
}

// fullRingLocked returns the tenant's ring at full store capacity, regrowing
// it (and carrying over whatever samples the placeholder held) when a prior
// eviction shrank it. Caller holds tr.mu.
func (st *Store) fullRingLocked(tr *tenantRing) *Ring {
	r := tr.p.Load()
	if r.Capacity() >= st.capacity {
		return r
	}
	grown := newRing(st.capacity, st.mapped)
	for _, s := range r.Snapshot(nil) {
		grown.Append(s.At, s.Value)
	}
	tr.p.Store(grown)
	return grown
}

// Ingest appends one live sample for a tenant. A non-positive at means "one
// interval after the tenant's latest sample", which lets naive emitters post
// values without tracking the telemetry clock; an explicit at must be newer
// than the tenant's latest sample — rings are strictly time-ordered, and a
// backdated (retried/duplicated) sample must not become the "most recent"
// value the live usage view serves. The value is clamped to [0, 1]
// (utilization fraction). Returns the offset the sample was recorded at, or
// one of ErrUnknownTenant, ErrNaN and ErrNotNewer.
func (st *Store) Ingest(id tenant.ID, at time.Duration, value float64) (time.Duration, error) {
	tr := st.rings[id]
	if tr == nil {
		return 0, ErrUnknownTenant
	}
	if math.IsNaN(value) {
		return 0, ErrNaN
	}
	if value < 0 {
		value = 0
	} else if value > 1 {
		value = 1
	}
	tr.mu.Lock()
	r := st.fullRingLocked(tr) // a tenant that resumes reporting regrows its evicted ring
	at, err := r.appendAfter(at, value, st.interval)
	if err == nil {
		tr.lastAppend.Store(time.Now().UnixNano())
		tr.mark.Add(1)
	}
	tr.mu.Unlock()
	if err != nil {
		return 0, err
	}
	st.total.Add(1)
	st.advanceHorizon(at)
	st.lastIngest.Store(time.Now().UnixNano())
	return at, nil
}

// EvictStale reclaims the ring of every tenant whose last append is older
// than staleAfter: the full-window ring is replaced by a one-slot placeholder
// (readers racing the swap finish against the old ring), so a tenant that
// stopped reporting neither pins a month of samples in memory nor feeds a
// stale window into re-clustering — SeriesFor returns nil until the tenant
// reports again, which drops it from every class. Returns how many rings
// were evicted.
func (st *Store) EvictStale(staleAfter time.Duration, now time.Time) int {
	if staleAfter <= 0 {
		return 0
	}
	cutoff := now.Add(-staleAfter).UnixNano()
	evicted := 0
	for _, tr := range st.rings {
		if tr.p.Load().Len() == 0 || tr.lastAppend.Load() > cutoff {
			continue
		}
		tr.mu.Lock()
		if tr.p.Load().Len() > 0 && tr.lastAppend.Load() <= cutoff {
			tr.p.Store(NewRing(1))
			tr.mark.Add(1)
			evicted++
		}
		tr.mu.Unlock()
	}
	if evicted > 0 {
		st.evictions.Add(uint64(evicted))
	}
	return evicted
}

// Evictions returns how many rings EvictStale has reclaimed since
// construction.
func (st *Store) Evictions() uint64 { return st.evictions.Load() }

// RingBytes returns how many bytes the store's rings hold mapped outside the
// Go heap, page-rounded, which the runtime's memory statistics do not count.
// A replaced ring's mapping counts until the GC finds it unreachable.
func (st *Store) RingBytes() int64 { return st.mapped.Load() }

func (st *Store) advanceHorizon(at time.Duration) {
	for {
		cur := st.horizon.Load()
		if int64(at) <= cur || st.horizon.CompareAndSwap(cur, int64(at)) {
			return
		}
	}
}

// Horizon implements tenant.HistorySource: the telemetry offset of the
// freshest sample in the store, the natural AsOf for a snapshot built from
// it.
func (st *Store) Horizon() time.Duration { return time.Duration(st.horizon.Load()) }

// AdvanceClock moves the telemetry clock forward to at without adding a
// sample (it never moves backwards). The restore path uses it when a
// persisted snapshot was built from live samples newer than the bootstrap
// window, so the published AsOf stays monotonic across a daemon restart.
func (st *Store) AdvanceClock(at time.Duration) { st.advanceHorizon(at) }

// HistoryStats implements tenant.HistoryStats: the retained sample count and
// the per-tenant change mark the incremental re-clustering uses to skip
// tenants whose window has not moved. The mark is read before any window
// copy a caller makes, so a racing ingest at worst invalidates the mark a
// round early — never late.
func (st *Store) HistoryStats(id tenant.ID) (samples int, mark uint64, ok bool) {
	tr := st.rings[id]
	if tr == nil {
		return 0, 0, false
	}
	return tr.p.Load().Len(), tr.mark.Load(), true
}

// SeriesFor implements tenant.HistorySource: it materializes the tenant's
// ring as a fixed-interval series (samples are treated as uniformly spaced
// at the store interval — the FFT input contract). Returns nil for unknown
// tenants or empty rings. The returned series is a private copy.
func (st *Store) SeriesFor(id tenant.ID) *timeseries.Series {
	r := st.Ring(id)
	if r == nil {
		return nil
	}
	values := r.Values(make([]float64, 0, r.Len()))
	if len(values) == 0 {
		return nil
	}
	return timeseries.New(st.interval, values)
}

// AppendWindow implements tenant.HistoryWindow: SeriesFor's values, read from
// the ring straight into dst, and the slot width they are spaced at. Unknown
// tenants and empty rings append nothing.
func (st *Store) AppendWindow(id tenant.ID, dst []float64) ([]float64, time.Duration) {
	if r := st.Ring(id); r != nil {
		dst = r.Values(dst)
	}
	return dst, st.interval
}

// UtilizationAt implements tenant.HistorySource: the value of the tenant's
// latest sample at or before the given offset (a step-function read of the
// history). Offsets before the retained window return the oldest retained
// sample; unknown or empty tenants return 0.
func (st *Store) UtilizationAt(id tenant.ID, at time.Duration) float64 {
	r := st.Ring(id)
	if r == nil {
		return 0
	}
	if last, ok := r.Last(); ok && last.At <= at {
		return last.Value // common case: reading at or past the horizon
	}
	samples := r.Snapshot(make([]Sample, 0, r.Len()))
	for i := len(samples) - 1; i >= 0; i-- {
		if samples[i].At <= at {
			return samples[i].Value
		}
	}
	if len(samples) > 0 {
		return samples[0].Value
	}
	return 0
}

// LastValue returns the tenant's most recent sample value, or fallback when
// the ring is empty or the tenant unknown. This is the O(1) read the serving
// layer's live usage view is built from.
func (st *Store) LastValue(id tenant.ID, fallback float64) float64 {
	r := st.Ring(id)
	if r == nil {
		return fallback
	}
	if last, ok := r.Last(); ok {
		return last.Value
	}
	return fallback
}
