package service

import (
	"net/http"
	"strconv"
	"time"

	"harvest/internal/ledger"
	"harvest/internal/obs"
	"harvest/internal/wire"
)

// writeProm renders the daemon's /metrics numbers in Prometheus text
// exposition: per-endpoint counters and latency histograms for both dialects,
// plus each datacenter's snapshot staleness and ledger books. Latency metrics
// are in microseconds — the histograms' native power-of-two resolution —
// rather than the conventional seconds, so the `le` bounds stay exact
// integers (see obs.BucketUpperMicros).
func (a *API) writeProm(w http.ResponseWriter) {
	var p obs.Prom

	p.Metric("harvestd_uptime_seconds", "gauge", "Seconds since the daemon started.")
	p.Float("harvestd_uptime_seconds", "", time.Since(a.start).Seconds())

	p.Metric("harvestd_requests_total", "counter", "Requests served, by endpoint and dialect.")
	p.Metric("harvestd_request_errors_total", "counter", "4xx/5xx responses, by endpoint and dialect.")
	for _, name := range apiEndpoints {
		m := a.endpoints[name]
		ls := obs.Labels("endpoint", name, "dialect", obs.DialectJSON)
		p.Uint("harvestd_requests_total", ls, m.Requests.Load())
		p.Uint("harvestd_request_errors_total", ls, m.Errors.Load())
	}
	if a.binary != nil {
		for i := range wire.Ops {
			m := &a.binary.metrics[i]
			ls := obs.Labels("endpoint", wire.Ops[i].Name, "dialect", obs.DialectBinary)
			p.Uint("harvestd_requests_total", ls, m.Requests.Load())
			p.Uint("harvestd_request_errors_total", ls, m.Errors.Load())
		}
	}
	p.Metric("harvestd_request_latency_microseconds", "histogram", "Request latency by endpoint and dialect, in microseconds.")
	for _, name := range apiEndpoints {
		p.Histogram("harvestd_request_latency_microseconds",
			obs.Labels("endpoint", name, "dialect", obs.DialectJSON), &a.endpoints[name].Latency)
	}
	if a.binary != nil {
		st := a.binary.Stats()
		for i := range wire.Ops {
			p.Histogram("harvestd_request_latency_microseconds",
				obs.Labels("endpoint", wire.Ops[i].Name, "dialect", obs.DialectBinary),
				&a.binary.metrics[i].Latency)
		}
		p.Metric("harvestd_binary_accepted_conns_total", "counter", "Binary client connections accepted.")
		p.Uint("harvestd_binary_accepted_conns_total", "", st.Accepted)
		p.Metric("harvestd_binary_open_conns", "gauge", "Binary client connections currently open.")
		p.Int("harvestd_binary_open_conns", "", st.Open)
		p.Metric("harvestd_binary_framing_errors_total", "counter", "Connections dropped for bad framing.")
		p.Uint("harvestd_binary_framing_errors_total", "", st.FramingErrors)
	}

	dcs := a.svc.Datacenters()
	type dcStats struct {
		dc string
		st ShardStats
	}
	rows := make([]dcStats, 0, len(dcs))
	for _, dc := range dcs {
		if st, ok := a.svc.Stats(dc); ok {
			rows = append(rows, dcStats{dc, st})
		}
	}

	p.Metric("harvestd_snapshot_generation", "gauge", "Current snapshot generation.")
	p.Metric("harvestd_snapshot_age_seconds", "gauge", "Age of the serving snapshot.")
	p.Metric("harvestd_snapshot_refreshes_total", "counter", "Snapshot refreshes.")
	p.Metric("harvestd_snapshot_refresh_errors_total", "counter", "Snapshot refresh failures.")
	p.Metric("harvestd_classes", "gauge", "Utilization classes in the serving snapshot.")
	p.Metric("harvestd_servers", "gauge", "Servers in the serving snapshot.")
	p.Metric("harvestd_tenants", "gauge", "Tenants in the serving snapshot.")
	p.Metric("harvestd_ingested_samples_total", "counter", "Telemetry samples accepted.")
	for _, row := range rows {
		ls := obs.Labels("dc", row.dc)
		p.Uint("harvestd_snapshot_generation", ls, row.st.Generation)
		p.Float("harvestd_snapshot_age_seconds", ls, row.st.Age.Seconds())
		p.Uint("harvestd_snapshot_refreshes_total", ls, row.st.Refreshes)
		p.Uint("harvestd_snapshot_refresh_errors_total", ls, row.st.RefreshErrors)
		p.Int("harvestd_classes", ls, int64(row.st.Classes))
		p.Int("harvestd_servers", ls, int64(row.st.Servers))
		p.Int("harvestd_tenants", ls, int64(row.st.Tenants))
		p.Uint("harvestd_ingested_samples_total", ls, row.st.IngestedSamples)
	}

	// Refresh latency as a full histogram (same microsecond convention as the
	// request latencies) — the scale acceptance gate: steady-state warm
	// refreshes must hold their p99 under the refresh interval at scale 1.0.
	p.Metric("harvestd_snapshot_refresh_microseconds", "histogram", "Successful snapshot refresh latency (recluster + rekey + publish), in microseconds.")
	for _, row := range rows {
		if h := a.svc.RefreshLatency(row.dc); h != nil {
			p.Histogram("harvestd_snapshot_refresh_microseconds", obs.Labels("dc", row.dc), h)
		}
	}

	// The ledger books: exact milli-core integers, same conservation invariant
	// as the JSON shape (reserved == released + expired + forfeited + outstanding).
	p.Metric("harvestd_ledger_active_leases", "gauge", "Live leases.")
	p.Metric("harvestd_ledger_outstanding_cores", "gauge", "Cores currently reserved.")
	p.Metric("harvestd_ledger_reserved_millis_total", "counter", "Milli-cores ever reserved.")
	p.Metric("harvestd_ledger_released_millis_total", "counter", "Milli-cores returned by release.")
	p.Metric("harvestd_ledger_expired_millis_total", "counter", "Milli-cores reclaimed by expiry.")
	p.Metric("harvestd_ledger_forfeited_millis_total", "counter", "Milli-cores forfeited on snapshot change.")
	p.Metric("harvestd_ledger_reserves_total", "counter", "Successful reservations.")
	p.Metric("harvestd_ledger_releases_total", "counter", "Successful releases.")
	p.Metric("harvestd_ledger_renews_total", "counter", "Successful lease renewals.")
	p.Metric("harvestd_ledger_expiries_total", "counter", "Lease expiries.")
	p.Metric("harvestd_ledger_conflicts_total", "counter", "Reservations lost to capacity conflicts.")
	for _, row := range rows {
		ls := obs.Labels("dc", row.dc)
		led := row.st.Ledger
		p.Int("harvestd_ledger_active_leases", ls, int64(led.ActiveLeases))
		p.Float("harvestd_ledger_outstanding_cores", ls, ledger.CoresOf(led.OutstandingMillis))
		p.Int("harvestd_ledger_reserved_millis_total", ls, led.ReservedMillis)
		p.Int("harvestd_ledger_released_millis_total", ls, led.ReleasedMillis)
		p.Int("harvestd_ledger_expired_millis_total", ls, led.ExpiredMillis)
		p.Int("harvestd_ledger_forfeited_millis_total", ls, led.ForfeitedMillis)
		p.Uint("harvestd_ledger_reserves_total", ls, led.Reserves)
		p.Uint("harvestd_ledger_releases_total", ls, led.Releases)
		p.Uint("harvestd_ledger_renews_total", ls, led.Renews)
		p.Uint("harvestd_ledger_expiries_total", ls, led.Expiries)
		p.Uint("harvestd_ledger_conflicts_total", ls, led.Conflicts)
	}

	// Admission floors: the milli-cores withheld from each class between
	// refreshes because live utilization ran ahead of the snapshot's view.
	p.Metric("harvestd_reserve_floor_millis", "gauge", "Milli-cores withheld from admission per class by the live-utilization floor.")
	for _, row := range rows {
		for i, m := range row.st.Ledger.ReserveFloorMillisByClass {
			if m != 0 {
				p.Int("harvestd_reserve_floor_millis", obs.Labels("dc", row.dc, "class", strconv.Itoa(i)), m)
			}
		}
	}

	// The block-placement ledger's durability books: exact whole-replica
	// integers with the same conservation invariants as the JSON shape
	// (placed + pending == replica_slots, lost == replaced + pending).
	p.Metric("harvestd_blocks", "gauge", "Blocks tracked by the block-placement ledger.")
	p.Metric("harvestd_block_replica_slots", "gauge", "Replica slots across all tracked blocks.")
	p.Metric("harvestd_block_replicas_placed", "gauge", "Replica slots currently holding a live replica.")
	p.Metric("harvestd_block_replicas_pending", "gauge", "Replica slots awaiting re-replication.")
	p.Metric("harvestd_block_replicas_lost_total", "counter", "Replicas ever lost to reimaging.")
	p.Metric("harvestd_block_replicas_replaced_total", "counter", "Lost replicas re-placed by the repair loop.")
	p.Metric("harvestd_block_creates_total", "counter", "Blocks created.")
	p.Metric("harvestd_block_reimages_total", "counter", "Reimaging events ingested.")
	p.Metric("harvestd_block_stale_retries_total", "counter", "Block operations retried across snapshot generation changes.")
	p.Metric("harvestd_block_repair_queue", "gauge", "Replica slots queued for the re-replicator.")
	p.Metric("harvestd_block_repair_failures_total", "counter", "Repair attempts that requeued without placing a replica.")
	p.Metric("harvestd_placement_relaxed_total", "counter", "Replica picks that fell back to relaxed (non-diverse) placement.")
	for _, row := range rows {
		ls := obs.Labels("dc", row.dc)
		b := row.st.Blocks
		p.Int("harvestd_blocks", ls, b.Blocks)
		p.Int("harvestd_block_replica_slots", ls, b.ReplicaSlots)
		p.Int("harvestd_block_replicas_placed", ls, b.Placed)
		p.Int("harvestd_block_replicas_pending", ls, b.Pending)
		p.Int("harvestd_block_replicas_lost_total", ls, b.Lost)
		p.Int("harvestd_block_replicas_replaced_total", ls, b.Replaced)
		p.Uint("harvestd_block_creates_total", ls, b.Creates)
		p.Uint("harvestd_block_reimages_total", ls, b.Reimages)
		p.Uint("harvestd_block_stale_retries_total", ls, b.StaleRetries)
		p.Int("harvestd_block_repair_queue", ls, int64(b.RepairQueue))
		p.Uint("harvestd_block_repair_failures_total", ls, row.st.RepairFailures)
		p.Uint("harvestd_placement_relaxed_total", ls, row.st.PlacementRelaxed)
	}

	// Drift-threshold feedback loop: the warm path's current gate and the
	// last full rebuild's warm-vs-oracle agreement (-1 until measured).
	p.Metric("harvestd_drift_threshold", "gauge", "Auto-tuned warm-recluster drift threshold.")
	p.Metric("harvestd_full_rebuild_agreement", "gauge", "Clustering agreement between warm path and last full rebuild (-1 until measured).")
	for _, row := range rows {
		ls := obs.Labels("dc", row.dc)
		if row.st.Recluster.DriftThreshold > 0 {
			p.Float("harvestd_drift_threshold", ls, row.st.Recluster.DriftThreshold)
		}
		p.Float("harvestd_full_rebuild_agreement", ls, row.st.Recluster.FullAgreement)
	}

	// Replication: role, stream health, and ship→apply lag (follower side).
	rst := a.svc.ReplicationStats()
	p.Metric("harvestd_replication_role", "gauge", "1 when this node is the primary, 0 when a follower.")
	p.Float("harvestd_replication_role", obs.Labels("node", rst.NodeID), boolFloat(rst.Role == "primary"))
	p.Metric("harvestd_replication_followers", "gauge", "Follower connections currently attached (primary side).")
	p.Int("harvestd_replication_followers", "", int64(rst.Followers))
	p.Metric("harvestd_replication_frames_shipped_total", "counter", "Replication frames shipped to followers.")
	p.Uint("harvestd_replication_frames_shipped_total", "", rst.FramesShipped)
	p.Metric("harvestd_replication_ship_errors_total", "counter", "Replication frame ship failures.")
	p.Uint("harvestd_replication_ship_errors_total", "", rst.ShipErrors)
	p.Metric("harvestd_replication_connected", "gauge", "1 when the follower's stream to its primary is up.")
	p.Float("harvestd_replication_connected", "", boolFloat(rst.Connected))
	p.Metric("harvestd_replication_snapshots_applied_total", "counter", "Full replication snapshots applied.")
	p.Uint("harvestd_replication_snapshots_applied_total", "", rst.SnapshotsApplied)
	p.Metric("harvestd_replication_deltas_applied_total", "counter", "Incremental replication deltas applied.")
	p.Uint("harvestd_replication_deltas_applied_total", "", rst.DeltasApplied)
	p.Metric("harvestd_replication_beats_applied_total", "counter", "Replication ledger beats applied.")
	p.Uint("harvestd_replication_beats_applied_total", "", rst.BeatsApplied)
	p.Metric("harvestd_replication_promotions_total", "counter", "Follower-to-primary promotions on this node.")
	p.Uint("harvestd_replication_promotions_total", "", rst.Promotions)
	p.Metric("harvestd_replication_apply_lag_microseconds", "histogram", "Primary-send to follower-applied lag per replication frame, in microseconds.")
	if h := a.svc.ReplicationLagHistogram(); h != nil {
		p.Histogram("harvestd_replication_apply_lag_microseconds", "", h)
	}
	p.Metric("harvestd_replication_generation", "gauge", "Last replication generation applied, by datacenter (follower side).")
	for dc, gen := range rst.AppliedGenerations {
		p.Uint("harvestd_replication_generation", obs.Labels("dc", dc), gen)
	}

	// The ship/apply loop per datacenter: what a frame costs the primary to
	// build and the follower to reconcile, how big the last beat was, and how
	// little of it was news ("6,000 live, 11 changed" off one scrape).
	p.Metric("harvestd_repl_build_seconds", "histogram", "Time to build one replication frame (primary side).")
	p.Metric("harvestd_repl_apply_seconds", "histogram", "Time to reconcile one replication frame into the ledgers (follower side).")
	for _, row := range rows {
		if build, apply := a.svc.ReplLatency(row.dc); build != nil {
			p.HistogramSeconds("harvestd_repl_build_seconds", obs.Labels("dc", row.dc), build)
			p.HistogramSeconds("harvestd_repl_apply_seconds", obs.Labels("dc", row.dc), apply)
		}
	}
	p.Metric("harvestd_repl_beat_bytes", "gauge", "Size of the last replication beat built or applied.")
	p.Metric("harvestd_repl_apply_changed_total", "counter", "Leases and blocks a reconcile inserted, rewrote or deleted (follower side).")
	for _, row := range rows {
		p.Int("harvestd_repl_beat_bytes", obs.Labels("dc", row.dc), row.st.Repl.BeatBytes)
		p.Uint("harvestd_repl_apply_changed_total", obs.Labels("dc", row.dc, "kind", "inserted"), row.st.Repl.Inserted)
		p.Uint("harvestd_repl_apply_changed_total", obs.Labels("dc", row.dc, "kind", "rewritten"), row.st.Repl.Rewritten)
		p.Uint("harvestd_repl_apply_changed_total", obs.Labels("dc", row.dc, "kind", "deleted"), row.st.Repl.Deleted)
	}

	w.Header().Set("Content-Type", obs.PromContentType)
	w.Write(p.Bytes())
}

func boolFloat(v bool) float64 {
	if v {
		return 1
	}
	return 0
}
