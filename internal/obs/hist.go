// Package obs is the fleet's zero-dependency observability plane: lock-free
// latency histograms, a per-process request-trace ring with a slowest-since-
// boot reservoir, Prometheus text exposition, structured logging defaults,
// and the /debug surface (pprof, expvar, build info, trace viewer) every
// daemon mounts on its -debug-addr listener. Everything here is stdlib-only
// and safe on the hot path: histograms are single atomic adds, traces are a
// single-writer-per-slot ring behind an atomic cursor (the same idiom as
// internal/telemetry's sample rings).
package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// HistBuckets is the number of exponential latency buckets: bucket i counts
// observations in [2^(i-1), 2^i) microseconds (bucket 0 is < 1µs), covering
// up to ~35 minutes — far beyond any plausible request latency.
const HistBuckets = 32

// Histogram is a fixed-bucket, power-of-two latency histogram updated with
// single atomic adds — no locks on the request path, readable concurrently.
// Quantiles are resolved to a bucket's upper bound, i.e. at worst 2x
// resolution, which is plenty for p50/p99 monitoring.
type Histogram struct {
	buckets [HistBuckets]atomic.Uint64
	count   atomic.Uint64
	sumUs   atomic.Uint64
	maxUs   atomic.Uint64
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) {
	us := uint64(d.Microseconds())
	i := bits.Len64(us)
	if i >= HistBuckets {
		i = HistBuckets - 1
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sumUs.Add(us)
	// Racy max: a concurrent larger value may win the CAS first; retry until
	// our value is no longer the max.
	for {
		cur := h.maxUs.Load()
		if us <= cur || h.maxUs.CompareAndSwap(cur, us) {
			break
		}
	}
}

// Merge folds other's observations into h. Neither histogram needs to be
// quiescent, but the merged view is only a consistent snapshot when they are
// (the load generator merges per-worker histograms after its run).
func (h *Histogram) Merge(other *Histogram) {
	for i := range h.buckets {
		h.buckets[i].Add(other.buckets[i].Load())
	}
	h.count.Add(other.count.Load())
	h.sumUs.Add(other.sumUs.Load())
	for {
		cur := h.maxUs.Load()
		o := other.maxUs.Load()
		if o <= cur || h.maxUs.CompareAndSwap(cur, o) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// SumMicros returns the sum of all observed latencies in microseconds.
func (h *Histogram) SumMicros() uint64 { return h.sumUs.Load() }

// BucketCounts copies the raw per-bucket counts into dst (sized to
// HistBuckets if needed) and returns it. Bucket i holds observations in
// [2^(i-1), 2^i) µs; its inclusive upper bound is BucketUpperMicros(i).
func (h *Histogram) BucketCounts(dst []uint64) []uint64 {
	if cap(dst) < HistBuckets {
		dst = make([]uint64, HistBuckets)
	}
	dst = dst[:HistBuckets]
	for i := range h.buckets {
		dst[i] = h.buckets[i].Load()
	}
	return dst
}

// BucketUpperMicros returns the inclusive upper bound of bucket i in integer
// microseconds: 2^i - 1 (latencies are whole microseconds, so every value in
// bucket i is ≤ 2^i - 1 and every value above it is > 2^i - 1 — the exact
// `le` bound the Prometheus rendering uses).
func BucketUpperMicros(i int) uint64 {
	if i <= 0 {
		return 0
	}
	return 1<<uint(i) - 1
}

// MeanMicros returns the mean latency in microseconds.
func (h *Histogram) MeanMicros() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sumUs.Load()) / float64(n)
}

// MaxMicros returns the largest observed latency in microseconds.
func (h *Histogram) MaxMicros() uint64 { return h.maxUs.Load() }

// QuantileMicros returns the upper bound (in microseconds) of the bucket
// containing the q-quantile (q in [0,1]), or 0 when empty.
func (h *Histogram) QuantileMicros(q float64) uint64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	target := uint64(q * float64(n))
	if target >= n {
		target = n - 1
	}
	var seen uint64
	for i := 0; i < HistBuckets; i++ {
		seen += h.buckets[i].Load()
		if seen > target {
			if i == 0 {
				return 1
			}
			return 1 << uint(i)
		}
	}
	return 1 << (HistBuckets - 1)
}

// EndpointMetrics counts one endpoint's traffic. Errors are responses with a
// 4xx/5xx status; latency covers every response, success or not.
type EndpointMetrics struct {
	Requests atomic.Uint64
	Errors   atomic.Uint64
	Latency  Histogram
}

// Observe records one completed request.
func (m *EndpointMetrics) Observe(d time.Duration, status int) {
	m.Requests.Add(1)
	if status >= 400 {
		m.Errors.Add(1)
	}
	m.Latency.Observe(d)
}

// EndpointStats is one endpoint's (or opcode's, or backend's) row on
// /metrics, the same shape on every tier. Latency is the histogram the
// quantiles were read from, for the Prometheus exposition: each tier embeds
// the row in a struct of its own that names its families (see Prom.Walk).
type EndpointStats struct {
	Requests uint64     `json:"requests"`
	Errors   uint64     `json:"errors"`
	MeanUs   float64    `json:"mean_us"`
	P50Us    uint64     `json:"p50_us"`
	P99Us    uint64     `json:"p99_us"`
	MaxUs    uint64     `json:"max_us"`
	Latency  *Histogram `json:"-"`
}

// Stats reads the endpoint's counters once, for both expositions.
func (m *EndpointMetrics) Stats() EndpointStats {
	return EndpointStats{
		Requests: m.Requests.Load(),
		Errors:   m.Errors.Load(),
		MeanUs:   m.Latency.MeanMicros(),
		P50Us:    m.Latency.QuantileMicros(0.50),
		P99Us:    m.Latency.QuantileMicros(0.99),
		MaxUs:    m.Latency.MaxMicros(),
		Latency:  &m.Latency,
	}
}
