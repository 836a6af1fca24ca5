package tenant

import (
	"time"

	"harvest/internal/timeseries"
)

// HistorySource abstracts where a tenant's utilization history comes from.
// The clustering service and the serving layer's usage view depend only on
// this seam, so the same pipeline runs against the synthetic one-month trace
// (TraceHistory — simulators, experiment harnesses, daemon bootstrap) or
// against live telemetry rings (telemetry.Store — the daemon's steady
// state). Nothing downstream may assume the series is one month long or
// cyclic; window lengths are whatever the source holds.
type HistorySource interface {
	// SeriesFor returns the utilization history window for a tenant: the
	// classification (FFT) input, and the window its peak/average summary
	// statistics are computed over. Nil when the source has no history for
	// the tenant.
	SeriesFor(id ID) *timeseries.Series
	// UtilizationAt returns the tenant's utilization at the given offset on
	// the telemetry clock.
	UtilizationAt(id ID, at time.Duration) float64
	// Horizon returns the offset of the freshest data the source holds — the
	// natural AsOf for a characterization built from it.
	Horizon() time.Duration
}

// HistoryStats is an optional HistorySource extension: a source that can
// report a cheap per-tenant change mark lets the incremental re-clustering
// skip the O(window) copy and summary for tenants whose history provably
// did not move since their last drift evaluation. telemetry.Store implements
// it; the trace-backed source does not (its windows never change between
// explicit AsOf advances, which re-run the full pipeline anyway).
type HistoryStats interface {
	// HistoryStats returns how many samples the source currently retains for
	// the tenant and a monotonic mark that changes whenever the tenant's
	// window does (ingest, bootstrap, eviction, regrowth). ok is false for
	// unknown tenants.
	HistoryStats(id ID) (samples int, mark uint64, ok bool)
}

// HistoryWindow is an optional HistorySource extension: a source whose
// SeriesFor copies the window on every call (telemetry.Store's rings) can
// instead copy it into storage the caller owns, so a pass over every tenant
// reuses one window-sized buffer instead of allocating one per tenant. The
// trace-backed source does not implement it: its SeriesFor already lends the
// tenant's own series without copying.
type HistoryWindow interface {
	// AppendWindow appends the tenant's history window to dst — exactly the
	// values, in the order, SeriesFor(id).Values would hold — and returns the
	// extended slice with the slot width the values are spaced at. A tenant
	// the source has no history for appends nothing.
	AppendWindow(id ID, dst []float64) (window []float64, interval time.Duration)
}

// TraceHistory is the trace-backed HistorySource: each tenant's generated
// one-month series replayed cyclically, with AsOf marking the current
// position. This is exactly the pre-refactor behaviour of the serving layer
// ("advance the trace by SimStep per refresh"), now one implementation of
// the seam instead of an assumption baked into core.
type TraceHistory struct {
	Pop *Population
	// AsOf is the position on the telemetry clock; UtilizationAt wraps
	// around the series, so any offset is valid.
	AsOf time.Duration
}

// SeriesFor returns the tenant's full generated series.
func (h TraceHistory) SeriesFor(id ID) *timeseries.Series {
	t := h.Pop.ByID(id)
	if t == nil {
		return nil
	}
	return t.Utilization
}

// UtilizationAt replays the trace cyclically, exactly as Tenant.UtilizationAt.
func (h TraceHistory) UtilizationAt(id ID, at time.Duration) float64 {
	t := h.Pop.ByID(id)
	if t == nil {
		return 0
	}
	return t.UtilizationAt(at)
}

// Horizon returns the configured trace position.
func (h TraceHistory) Horizon() time.Duration { return h.AsOf }
