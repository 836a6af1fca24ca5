package loadgen

import (
	"bytes"
	"fmt"
	"time"

	"harvest/internal/experiments"
	"harvest/internal/tenant"
	"harvest/internal/timeseries"
)

// EmitConfig is one telemetry-emitter run. Scale and Seed must be the
// target's own: population generation is deterministic, so the emitter
// regenerates the tenants the daemon booted with.
type EmitConfig struct {
	Target   string
	Scale    float64
	Seed     int64
	Duration time.Duration
	Interval time.Duration // wall-clock pause between slot batches
	Wait     time.Duration // discovery grace window
}

type EmitReport struct {
	Mode            string  `json:"mode"`
	DurationSeconds float64 `json:"duration_seconds"`
	Datacenters     int     `json:"datacenters"`
	Batches         uint64  `json:"batches"`
	Samples         uint64  `json:"samples"`  // accepted by the target
	Rejected        uint64  `json:"rejected"` // refused by the target (unknown tenant, stale slot)
	Errors          uint64  `json:"errors"`   // batches that met a transport error or a non-200
}

// Emit replays each tenant's trace into the target's ingestion endpoint, one
// 2-minute slot per interval across all datacenters, as
// POST /v1/{dc}/telemetry batches — so the snapshots the daemon then serves
// are built from samples that travelled through the ingest API, not from its
// bootstrap window. The emitted values are exactly the continuation of the
// trace the daemon's rings were bootstrapped from; offsets past the one-month
// trace wrap around, matching the cyclic-replay convention everywhere else in
// the repo.
func Emit(cfg EmitConfig) (*EmitReport, error) {
	t, err := discover(cfg.Target, cfg.Wait, nil)
	if err != nil {
		return nil, err
	}
	type replay struct {
		dc     string
		pop    *tenant.Population
		offset time.Duration // next slot's telemetry offset
	}
	var replays []replay
	for _, dc := range t.datacenters {
		pop, _, err := experiments.BuildPopulation(dc, experiments.Scale{Datacenter: cfg.Scale, Seed: cfg.Seed})
		if err != nil {
			return nil, fmt.Errorf("regenerating %s's population: %w", dc, err)
		}
		// Resume the replay where the daemon's bootstrap window ends.
		view, err := t.classes(dc)
		if err != nil {
			return nil, err
		}
		replays = append(replays, replay{dc, pop, time.Duration(view.AsOfSeconds*float64(time.Second)) + timeseries.SlotDuration})
	}

	rep := &EmitReport{Mode: "telemetry", Datacenters: len(replays)}
	var body bytes.Buffer
	start := time.Now()
	for deadline := start.Add(cfg.Duration); time.Now().Before(deadline); time.Sleep(cfg.Interval) {
		for i := range replays {
			r := &replays[i]
			body.Reset()
			body.WriteString(`{"samples":[`)
			for j, tn := range r.pop.Tenants {
				if j > 0 {
					body.WriteByte(',')
				}
				fmt.Fprintf(&body, `{"tenant":%d,"at_seconds":%d,"utilization":%.4f}`,
					tn.ID, int64(r.offset.Seconds()), tn.UtilizationAt(r.offset))
			}
			body.WriteString(`]}`)
			r.offset += timeseries.SlotDuration

			var ack struct {
				Accepted uint64 `json:"accepted"`
				Rejected uint64 `json:"rejected"`
			}
			if postJSON(t.baseURL+"/v1/"+r.dc+"/telemetry", "", body.Bytes(), &ack) != nil {
				rep.Errors++
				continue
			}
			rep.Batches++
			rep.Samples += ack.Accepted
			rep.Rejected += ack.Rejected
		}
	}
	rep.DurationSeconds = time.Since(start).Seconds()
	return rep, nil
}
