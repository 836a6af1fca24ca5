package router

import (
	"net/http"
	"time"

	"harvest/internal/obs"
	"harvest/internal/wire"
)

func opStatsOf(m *obs.EndpointMetrics) OpStats {
	return OpStats{
		Requests: m.Requests.Load(),
		Errors:   m.Errors.Load(),
		MeanUs:   m.Latency.MeanMicros(),
		P50Us:    m.Latency.QuantileMicros(0.50),
		P99Us:    m.Latency.QuantileMicros(0.99),
		MaxUs:    m.Latency.MaxMicros(),
	}
}

// binOpStats snapshots the binary front's per-opcode counters for /metrics.
// Every request opcode gets a row even before its first frame, matching the
// shards' binary section.
func (rt *Router) binOpStats() map[string]OpStats {
	ops := make(map[string]OpStats, len(rt.binOps))
	for i := range rt.binOps {
		ops[wire.Ops[i].Name] = opStatsOf(&rt.binOps[i])
	}
	return ops
}

// writeProm renders the router's own stats — never the backends' — in
// Prometheus text exposition. It is the same data as the JSON /metrics
// "router" section; the JSON shape stays the source of truth.
func (rt *Router) writeProm(w http.ResponseWriter) {
	now := rt.now()
	var p obs.Prom

	p.Metric("harvestrouter_uptime_seconds", "gauge", "Seconds since the router started.")
	p.Float("harvestrouter_uptime_seconds", "", time.Since(rt.start).Seconds())
	p.Metric("harvestrouter_registrations_total", "counter", "Register heartbeats accepted.")
	p.Uint("harvestrouter_registrations_total", "", rt.registrations.Load())
	p.Metric("harvestrouter_proxied_total", "counter", "Requests proxied to a backend (both dialects).")
	p.Uint("harvestrouter_proxied_total", "", rt.proxiedTotal.Load())
	p.Metric("harvestrouter_proxy_errors_total", "counter", "Backend transport failures.")
	p.Uint("harvestrouter_proxy_errors_total", "", rt.proxyErrors.Load())
	p.Metric("harvestrouter_unavailable_total", "counter", "503s from staleness or an open circuit.")
	p.Uint("harvestrouter_unavailable_total", "", rt.unavailable.Load())
	p.Metric("harvestrouter_promotions_total", "counter", "Follower-to-primary promotions initiated by this router.")
	p.Uint("harvestrouter_promotions_total", "", rt.promotions.Load())

	p.Metric("harvestrouter_backend_up", "gauge", "1 when the backend's heartbeats are fresh.")
	p.Metric("harvestrouter_backend_role", "gauge", "1 when the backend announces itself primary, 0 for a follower.")
	p.Metric("harvestrouter_backend_last_beat_age_seconds", "gauge", "Seconds since the backend's last register.")
	p.Metric("harvestrouter_backend_circuit_open", "gauge", "1 while the backend's breaker is open.")
	p.Metric("harvestrouter_backend_proxied_total", "counter", "Requests proxied to this backend.")
	p.Metric("harvestrouter_backend_reads_total", "counter", "Requests the read spreader picked this backend for.")
	p.Metric("harvestrouter_backend_in_flight", "gauge", "Requests currently in flight against this backend.")
	p.Metric("harvestrouter_backend_errors_total", "counter", "Transport failures against this backend.")
	rt.mu.RLock()
	for id, b := range rt.backends {
		ls := obs.Labels("backend", id)
		up := uint64(0)
		if rt.alive(b, now) {
			up = 1
		}
		p.Uint("harvestrouter_backend_up", ls, up)
		primary := uint64(0)
		if b.role != "follower" {
			primary = 1
		}
		p.Uint("harvestrouter_backend_role", ls, primary)
		p.Float("harvestrouter_backend_last_beat_age_seconds", ls,
			time.Duration(now.UnixNano()-b.lastBeat.Load()).Seconds())
		open := uint64(0)
		if b.openUntil.Load() > now.UnixNano() {
			open = 1
		}
		p.Uint("harvestrouter_backend_circuit_open", ls, open)
		p.Uint("harvestrouter_backend_proxied_total", ls, b.proxied.Load())
		p.Uint("harvestrouter_backend_reads_total", ls, b.reads.Load())
		p.Int("harvestrouter_backend_in_flight", ls, b.inflight.Load())
		p.Uint("harvestrouter_backend_errors_total", ls, b.errors.Load())
	}
	rt.mu.RUnlock()

	// Per-backend request latency as observed from the router — the
	// per-replica histograms behind the read-spreading p99 gate.
	p.Metric("harvestrouter_backend_latency_microseconds", "histogram", "Backend request latency as observed from the router, in microseconds.")
	rt.mu.RLock()
	for id, b := range rt.backends {
		p.Histogram("harvestrouter_backend_latency_microseconds",
			obs.Labels("backend", id), &b.lat.Latency)
	}
	rt.mu.RUnlock()

	rt.binMu.Lock()
	binServing := rt.binLn != nil && !rt.binClosed
	rt.binMu.Unlock()
	if binServing {
		p.Metric("harvestrouter_binary_accepted_conns_total", "counter", "Binary client connections accepted.")
		p.Uint("harvestrouter_binary_accepted_conns_total", "", rt.binAccepted.Load())
		p.Metric("harvestrouter_binary_open_conns", "gauge", "Binary client connections currently open.")
		p.Int("harvestrouter_binary_open_conns", "", rt.binOpenConns.Load())
		p.Metric("harvestrouter_binary_framing_errors_total", "counter", "Connections dropped for bad framing.")
		p.Uint("harvestrouter_binary_framing_errors_total", "", rt.binFramingErrors.Load())
		p.Metric("harvestrouter_binary_forwarded_total", "counter", "Frames relayed natively to a binary backend.")
		p.Uint("harvestrouter_binary_forwarded_total", "", rt.binForwarded.Load())
		p.Metric("harvestrouter_binary_rejected_total", "counter", "Error frames originated by the router.")
		p.Uint("harvestrouter_binary_rejected_total", "", rt.binRejected.Load())

		p.Metric("harvestrouter_binary_op_requests_total", "counter", "Frames dispatched, by opcode.")
		p.Metric("harvestrouter_binary_op_errors_total", "counter", "Non-2xx outcomes, by opcode.")
		for i := range rt.binOps {
			m := &rt.binOps[i]
			ls := obs.Labels("op", wire.Ops[i].Name)
			p.Uint("harvestrouter_binary_op_requests_total", ls, m.Requests.Load())
			p.Uint("harvestrouter_binary_op_errors_total", ls, m.Errors.Load())
		}
		p.Metric("harvestrouter_binary_op_latency_microseconds", "histogram", "Frame relay latency by opcode, in microseconds.")
		for i := range rt.binOps {
			p.Histogram("harvestrouter_binary_op_latency_microseconds",
				obs.Labels("op", wire.Ops[i].Name), &rt.binOps[i].Latency)
		}
	}

	w.Header().Set("Content-Type", obs.PromContentType)
	w.Write(p.Bytes())
}
