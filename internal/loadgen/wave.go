package loadgen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"harvest/internal/blockledger"
	"harvest/internal/experiments"
)

// WaveConfig is one reimaging-wave run against a harvestd (directly: the
// quiesce poll reads the node's own /metrics books). Scale and Seed must be
// the target's own, as for the emitter.
type WaveConfig struct {
	Target          string
	Blocks          int     // blocks to place per datacenter
	Replication     int     // replicas per block
	ReimageFraction float64 // share of each datacenter's servers the wave hits
	IngestToken     string  // bearer for POST /v1/{dc}/reimage
	Scale           float64
	Seed            int64
	Wait            time.Duration // discovery grace window
	QuiesceTimeout  time.Duration // how long re-replication may take to drain the pending books
}

// WaveDCReport is one datacenter's slice of the wave report. Ledger is the
// target's block books verbatim at the end of the run, so consumers can assert
// the conservation invariants exactly rather than trusting the booleans.
type WaveDCReport struct {
	Datacenter      string `json:"datacenter"`
	Servers         int    `json:"servers"`
	BlocksPlaced    int    `json:"blocks_placed"`
	PlaceErrors     int    `json:"place_errors"`
	ServersReimaged int    `json:"servers_reimaged"`
	// HoldersReimaged is how many wave targets actually held replicas — the
	// reimages that exercised the repair path rather than wiping an empty
	// server.
	HoldersReimaged       int               `json:"holders_reimaged"`
	ReimageErrors         int               `json:"reimage_errors"`
	Ledger                blockledger.Stats `json:"ledger"`
	PlacementRelaxedTotal uint64            `json:"placement_relaxed_total"`
	RepairFailures        uint64            `json:"repair_failures"`
	// Conserved: placed + pending == replica_slots and lost == replaced +
	// pending — the ledger's books balance exactly.
	Conserved bool `json:"conserved"`
	// Quiesced: nothing pending and the repair queue empty — every block is
	// back at full replication.
	Quiesced bool `json:"quiesced"`
}

type WaveReport struct {
	Mode            string         `json:"mode"`
	DurationSeconds float64        `json:"duration_seconds"`
	Replication     int            `json:"replication"`
	BlocksPlaced    int            `json:"blocks_placed"`
	ServersReimaged int            `json:"servers_reimaged"`
	LostReplicas    int64          `json:"lost_replicas"`
	Errors          int            `json:"errors"` // place + reimage errors
	Conserved       bool           `json:"conserved"`
	Quiesced        bool           `json:"quiesced"`
	Datacenters     []WaveDCReport `json:"datacenters"`
}

// waveServer is one candidate for the reimaging wave: the server, its owning
// tenant's reimage rate, and its Efraimidis–Spirakis sampling key.
type waveServer struct {
	id   int64
	rate float64
	key  float64
}

// pickWave draws a rate-weighted sample of waveSize servers without
// replacement (Efraimidis–Spirakis: key = u^(1/w), take the largest keys),
// then biases it toward replica holders: placement actively avoids
// reimage-heavy servers, so an unbiased wave can land entirely on servers
// holding nothing and the run would never exercise re-replication. The
// lowest-key non-holder picks are swapped for the highest-rate holders until
// the wave includes min(#holders, max(1, waveSize/5)) of them.
func pickWave(rates map[int64]float64, holders map[int64]bool, waveSize int, rng *rand.Rand) []waveServer {
	// Map iteration order must not leak into the sample: draw the keys in id
	// order, so a fixed seed gives a fixed wave.
	cands := make([]waveServer, 0, len(rates))
	for id, rate := range rates {
		cands = append(cands, waveServer{id: id, rate: rate})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].id < cands[j].id })
	for i := range cands {
		// The epsilon keeps zero-rate servers reimagable: a tenant with no
		// recorded history still gets wiped occasionally in production.
		cands[i].key = math.Pow(rng.Float64(), 1/(cands[i].rate+0.01))
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].key > cands[j].key })
	wave := cands[:min(waveSize, len(cands))]

	selected := make(map[int64]bool, len(wave))
	have := 0
	for _, s := range wave {
		selected[s.id] = true
		if holders[s.id] {
			have++
		}
	}
	want := min(len(holders), max(1, waveSize/5))
	if have >= want {
		return wave
	}
	holdersByRate := make([]waveServer, 0, len(holders))
	for id := range holders {
		holdersByRate = append(holdersByRate, waveServer{id: id, rate: rates[id]})
	}
	sort.Slice(holdersByRate, func(i, j int) bool {
		if holdersByRate[i].rate != holdersByRate[j].rate {
			return holdersByRate[i].rate > holdersByRate[j].rate
		}
		return holdersByRate[i].id < holdersByRate[j].id
	})
	idx := len(wave) - 1
	for _, h := range holdersByRate {
		if have >= want {
			break
		}
		if selected[h.id] {
			continue
		}
		for idx >= 0 && holders[wave[idx].id] {
			idx--
		}
		if idx < 0 {
			break
		}
		selected[h.id] = true
		wave[idx] = h
		have++
		idx--
	}
	return wave
}

// Wave drives the block ledger end to end: place Blocks R-replicated blocks
// per datacenter through POST /v1/{dc}/blocks, reimage a rate-weighted wave of
// servers, poll /metrics until the re-replicator has restored full
// replication, and report the final books.
func Wave(cfg WaveConfig) (*WaveReport, error) {
	t, err := discover(cfg.Target, cfg.Wait, nil)
	if err != nil {
		return nil, err
	}
	rep := &WaveReport{Mode: "storage", Replication: cfg.Replication}
	start := time.Now()
	placeBody := []byte(fmt.Sprintf(`{"replication":%d}`, cfg.Replication))
	for dci, dc := range t.datacenters {
		d := WaveDCReport{Datacenter: dc}

		// Phase 1: place the blocks. Replica ids come back in the reply, so
		// the wave below knows which servers actually hold data.
		holders := make(map[int64]bool)
		for i := 0; i < cfg.Blocks; i++ {
			var created struct {
				Replicas []int64 `json:"replicas"`
			}
			if postJSON(t.baseURL+"/v1/"+dc+"/blocks", "", placeBody, &created) != nil {
				d.PlaceErrors++
				continue
			}
			d.BlocksPlaced++
			for _, s := range created.Replicas {
				holders[s] = true
			}
		}

		// Phase 2: the reimaging wave. Each server's weight is its owning
		// tenant's historical reimage rate, the same distribution the paper's
		// Alg. 2 clusters on.
		pop, _, err := experiments.BuildPopulation(dc, experiments.Scale{Datacenter: cfg.Scale, Seed: cfg.Seed})
		if err != nil {
			return nil, fmt.Errorf("regenerating %s's population: %w", dc, err)
		}
		rates := make(map[int64]float64)
		for _, tn := range pop.Tenants {
			for _, s := range tn.Servers {
				rates[int64(s)] = tn.ReimagesPerServerMonth
			}
		}
		d.Servers = len(rates)
		waveSize := max(1, int(math.Ceil(cfg.ReimageFraction*float64(len(rates)))))
		rng := rand.New(rand.NewSource(cfg.Seed + int64(dci)))
		for _, s := range pickWave(rates, holders, waveSize, rng) {
			var wiped struct {
				Lost int `json:"lost"`
			}
			body := []byte(fmt.Sprintf(`{"server":%d}`, s.id))
			if postJSON(t.baseURL+"/v1/"+dc+"/reimage", cfg.IngestToken, body, &wiped) != nil {
				d.ReimageErrors++
				continue
			}
			d.ServersReimaged++
			if wiped.Lost > 0 {
				d.HoldersReimaged++
			}
		}
		rep.Datacenters = append(rep.Datacenters, d)
	}

	// Phase 3: poll the books until every datacenter quiesces or the timeout
	// fires (reported as quiesced:false, which is how CI fails a stuck
	// re-replicator).
	var books map[string]dcBooks
	for deadline := time.Now().Add(cfg.QuiesceTimeout); ; time.Sleep(250 * time.Millisecond) {
		if books, err = t.books(); err != nil {
			return nil, fmt.Errorf("reading %s/metrics: %w", t.baseURL, err)
		}
		settled := true
		for _, dc := range t.datacenters {
			b := books[dc].Blocks
			settled = settled && b.Pending == 0 && b.RepairQueue == 0
		}
		if settled || time.Now().After(deadline) {
			break
		}
	}
	rep.DurationSeconds = time.Since(start).Seconds()

	rep.Conserved, rep.Quiesced = true, true
	for i := range rep.Datacenters {
		d := &rep.Datacenters[i]
		row := books[d.Datacenter]
		b := row.Blocks
		d.Ledger, d.PlacementRelaxedTotal, d.RepairFailures = b, row.PlacementRelaxedTotal, row.RepairFailures
		d.Conserved = b.Placed+b.Pending == b.ReplicaSlots && b.Lost == b.Replaced+b.Pending
		d.Quiesced = b.Pending == 0 && b.RepairQueue == 0
		rep.Conserved = rep.Conserved && d.Conserved
		rep.Quiesced = rep.Quiesced && d.Quiesced
		rep.BlocksPlaced += d.BlocksPlaced
		rep.ServersReimaged += d.ServersReimaged
		rep.LostReplicas += b.Lost
		rep.Errors += d.PlaceErrors + d.ReimageErrors
	}
	return rep, nil
}
