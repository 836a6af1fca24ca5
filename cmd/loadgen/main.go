// Command loadgen drives a harvestd, or a harvestrouter fronting a fleet of
// them, with the paper's own traffic. It is three programs over
// internal/loadgen (DESIGN.md "Load driver"), chosen by flag:
//
// The query load generator (default): -workers connections each draw
// operations from -mix — select / dryselect / release / renew / place /
// classes / server — and report throughput and latency percentiles. Selects
// reserve cores and return a lease; each connection holds its leases in a pool
// the release op drains oldest first, so the default mix exercises the
// allocation ledger's full select → hold → release cycle, and the leases a run
// leaves behind are released after the measurement so the target's books
// balance.
//
//	loadgen [-target http://127.0.0.1:7077] [-workers 2] [-pipeline 64]
//	        [-duration 5s] [-rate 0] [-wait 0] [-proto json|binary]
//	        [-mix select=30,release=25,renew=5,place=30,classes=5,server=5]
//	        [-seed 1] [-json]
//
// Closed loop (default) keeps -pipeline requests outstanding per connection
// and measures capacity. Open loop (-rate N) schedules N requests a second
// across the connections regardless of how fast replies come, and measures
// each latency from the request's scheduled time — the
// coordinated-omission-safe way to measure latency under a target load.
// -proto binary speaks internal/wire's frames to the listener the target
// advertises as binary_addr (harvestd -binary-addr, harvestrouter
// -binary-listen); discovery stays on the JSON control plane. -wait covers
// fleet start-up, when a router lists no datacenters until its backends
// register.
//
// The telemetry emitter (-telemetry) regenerates the target's tenant
// populations locally — same -scale/-seed as the harvestd it targets — and
// replays each tenant's trace, one 2-minute slot per -emit-interval, as
// POST /v1/{dc}/telemetry batches.
//
//	loadgen -telemetry [-target ...] [-duration 10s] [-emit-interval 200ms]
//	        [-scale 0.05] [-seed 1] [-wait 0] [-json]
//
// The reimaging-wave driver (-storage) places -blocks R-replicated blocks per
// datacenter, reimages -reimage-fraction of each datacenter's servers
// (weighted by their tenants' reimage rates, biased to replica holders), then
// polls /metrics until re-replication has drained the pending books. Its
// report carries the target's block books verbatim, so CI asserts exact
// conservation with jq. Target a harvestd directly.
//
//	loadgen -storage [-target ...] [-blocks 200] [-replication 3]
//	        [-reimage-fraction 0.1] [-quiesce-timeout 60s]
//	        [-ingest-token secret] [-scale 0.05] [-seed 1] [-wait 0] [-json]
//
// -json prints the report as JSON (redirect it to keep it).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"harvest/internal/loadgen"
	"harvest/internal/obs"
)

var logger = obs.NewLogger("loadgen")

func main() {
	target := flag.String("target", "http://127.0.0.1:7077", "harvestd base URL or host:port")
	workers := flag.Int("workers", 2, "concurrent connections")
	pipeline := flag.Int("pipeline", 64, "requests kept in flight per connection")
	duration := flag.Duration("duration", 5*time.Second, "measurement duration")
	rate := flag.Float64("rate", 0, "open-loop mode: scheduled requests/second across all workers (0 = closed loop)")
	mix := flag.String("mix", "select=30,release=25,renew=5,place=30,classes=5,server=5", "operation mix (weights; dryselect issues advisory dry-run selects that reserve nothing — the read-heavy op a replicated fleet spreads across followers)")
	proto := flag.String("proto", "json", "query protocol: json (HTTP/1.1) or binary (length-prefixed frames; the target must advertise binary_addr)")
	seed := flag.Int64("seed", 1, "random seed")
	jsonOut := flag.Bool("json", false, "print the report as JSON")
	telemetry := flag.Bool("telemetry", false, "run as a telemetry emitter instead of a query load generator")
	storage := flag.Bool("storage", false, "run as a reimaging-wave driver for the block ledger instead of a query load generator")
	wait := flag.Duration("wait", 0, "keep retrying the initial datacenter discovery for this long (a router front end lists no datacenters until its backends register)")
	emitInterval := flag.Duration("emit-interval", 200*time.Millisecond, "telemetry mode: wall-clock pause between slot batches")
	scale := flag.Float64("scale", 0.05, "telemetry/storage mode: datacenter scale (must match the harvestd flags)")
	blocks := flag.Int("blocks", 200, "storage mode: blocks to place per datacenter")
	replication := flag.Int("replication", 3, "storage mode: replicas per block")
	reimageFraction := flag.Float64("reimage-fraction", 0.1, "storage mode: fraction of each datacenter's servers the reimaging wave hits")
	quiesceTimeout := flag.Duration("quiesce-timeout", 60*time.Second, "storage mode: how long to wait for re-replication to drain the pending books")
	ingestToken := flag.String("ingest-token", "", "storage mode: bearer token for POST /v1/{dc}/reimage (the target's -ingest-token)")
	flag.Parse()

	switch {
	case *telemetry && *storage:
		obs.Fatal(logger, "-telemetry and -storage are mutually exclusive")
	case *telemetry:
		rep, err := loadgen.Emit(loadgen.EmitConfig{
			Target: *target, Scale: *scale, Seed: *seed,
			Duration: *duration, Interval: *emitInterval, Wait: *wait,
		})
		finish(rep, err, *jsonOut, printEmit)
	case *storage:
		rep, err := loadgen.Wave(loadgen.WaveConfig{
			Target: *target, Blocks: *blocks, Replication: *replication,
			ReimageFraction: *reimageFraction, IngestToken: *ingestToken,
			Scale: *scale, Seed: *seed, Wait: *wait, QuiesceTimeout: *quiesceTimeout,
		})
		finish(rep, err, *jsonOut, printWave)
	default:
		rep, err := loadgen.Run(loadgen.Config{
			Target: *target, Proto: *proto, Workers: *workers, Pipeline: *pipeline,
			Duration: *duration, Rate: *rate, Mix: *mix, Seed: *seed, Wait: *wait,
		})
		finish(rep, err, *jsonOut, printRun)
	}
}

// finish prints a run's report, as JSON or as text, or its failure.
func finish[R any](rep *R, err error, jsonOut bool, text func(*R)) {
	if err != nil {
		obs.Fatal(logger, "run failed", "err", err)
	}
	if !jsonOut {
		text(rep)
		return
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		obs.Fatal(logger, "writing report failed", "err", err)
	}
}

func printRun(rep *loadgen.Report) {
	elapsed := time.Duration(rep.DurationSeconds * float64(time.Second))
	if rep.TargetRate > 0 {
		fmt.Printf("loadgen: open loop at %.0f req/s across %d workers for %v (%s)\n", rep.TargetRate, rep.Workers, elapsed, rep.Proto)
	} else {
		fmt.Printf("loadgen: %d workers x pipeline %d for %v (%s)\n", rep.Workers, rep.Pipeline, elapsed, rep.Proto)
	}
	fmt.Printf("  %d requests, %d errors, %d reconnects\n", rep.Requests, rep.Errors, rep.Reconnects)
	fmt.Printf("  throughput: %.0f queries/sec\n", rep.QPS)
	l := rep.LatencyUs
	fmt.Printf("  latency: mean %.0fµs  p50 %dµs  p90 %dµs  p99 %dµs  max %dµs\n", l.Mean, l.P50, l.P90, l.P99, l.Max)
	for _, name := range loadgen.OpNames() {
		fmt.Printf("  %-9s %9d requests, %d errors\n", name, rep.Ops[name].Requests, rep.Ops[name].Errors)
	}
	if len(rep.Backends) == 0 {
		return
	}
	total := uint64(0)
	names := make([]string, 0, len(rep.Backends))
	for name, c := range rep.Backends {
		total += c
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("  served by:")
	for _, name := range names {
		fmt.Printf("  %s %.1f%%", name, 100*float64(rep.Backends[name])/float64(total))
	}
	fmt.Println()
}

func printEmit(rep *loadgen.EmitReport) {
	fmt.Printf("loadgen: telemetry emitter, %d datacenters for %.1fs\n", rep.Datacenters, rep.DurationSeconds)
	fmt.Printf("  %d batches, %d samples accepted, %d rejected, %d transport/HTTP errors\n",
		rep.Batches, rep.Samples, rep.Rejected, rep.Errors)
}

func printWave(rep *loadgen.WaveReport) {
	fmt.Printf("loadgen: storage wave, %d datacenters for %.1fs\n", len(rep.Datacenters), rep.DurationSeconds)
	fmt.Printf("  %d blocks placed (R=%d), %d servers reimaged, %d replicas lost, %d errors\n",
		rep.BlocksPlaced, rep.Replication, rep.ServersReimaged, rep.LostReplicas, rep.Errors)
	for _, d := range rep.Datacenters {
		fmt.Printf("  %-8s %d/%d slots placed, %d pending, lost %d = replaced %d, conserved=%v quiesced=%v\n",
			d.Datacenter, d.Ledger.Placed, d.Ledger.ReplicaSlots, d.Ledger.Pending,
			d.Ledger.Lost, d.Ledger.Replaced, d.Conserved, d.Quiesced)
	}
}
