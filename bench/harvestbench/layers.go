package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"harvest/internal/blockledger"
	"harvest/internal/core"
	"harvest/internal/experiments"
	"harvest/internal/ledger"
	"harvest/internal/obs"
	"harvest/internal/router"
	"harvest/internal/service"
	"harvest/internal/telemetry"
	"harvest/internal/tenant"
	"harvest/internal/timeseries"
	"harvest/internal/wire"
)

// State sizes of the layer suite at scale 1; both shrink with the scale, like
// the end-to-end workloads' state does.
const (
	suiteLeasesAtFullScale = 20000
	suiteBlocksAtFullScale = 100000
	telemetrySlots         = 5 // slots ingested before a warm re-cluster
	roundTrips             = 2000
)

// coverageMix holds every op kind, so one replay of it yields every per-op
// layer metric whatever workload the traced run was asked for.
var coverageMix = mix{opSelect: 20, opRelease: 15, opRenew: 10, opDrySelect: 15, opClasses: 10, opServer: 5, opPlace: 10, opPlaceBlock: 15}

// layerSuite measures each internal package from outside the program: it
// calls the package's public functions directly, in one process, with a span
// around every call, on state of a fixed size. Nothing here goes through a
// daemon; what it reports is where a request's microseconds go.
type layerSuite struct {
	e        *env
	res      *result
	tr       *tracer
	overhead float64 // median duration of an empty span, ns
	rng      *rand.Rand

	cfg  service.Config
	svc  *service.Service
	snap *service.Snapshot
	dir  string // the in-process service's PersistDir
}

// med returns the median duration of the named spans, less the cost of
// recording a span.
func (ls *layerSuite) med(name string) float64 {
	var d []float64
	for _, s := range ls.tr.spans {
		if s.Name == name {
			d = append(d, float64(s.dur()))
		}
	}
	if len(d) == 0 {
		return math.NaN()
	}
	return math.Max(median(d)-ls.overhead, 0)
}

// timed runs fn inside a root span.
func (ls *layerSuite) timed(name string, fn func()) {
	s := ls.tr.begin(name, -1, 0)
	fn()
	ls.tr.end(s)
}

// allocsPer is mallocs per call of fn over n calls.
func allocsPer(n int, fn func(i int)) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// measureSpanOverhead is the median duration of a span around nothing.
func measureSpanOverhead() float64 {
	tr := newTracer(4096)
	for i := 0; i < 4096; i++ {
		tr.end(tr.begin("empty", -1, 0))
	}
	d := make([]float64, len(tr.spans))
	for i, s := range tr.spans {
		d[i] = float64(s.dur())
	}
	return median(d)
}

// serviceConfig is the daemons' configuration, in-process: DC-9 at the same
// scale and seed, with the background loops off (the suite calls Refresh,
// RepairBlocks and Close itself so each is timed alone) and every second
// refresh a full rebuild so both kinds can be measured on one service.
func (e *env) serviceConfig(persistDir string) service.Config {
	cfg := service.DefaultConfig()
	cfg.Datacenters = []string{benchDC}
	cfg.Scale = experiments.Scale{Datacenter: e.scale, Seed: 1}
	cfg.Seed = 1
	cfg.RefreshPeriod = 0
	cfg.FullRebuildEvery = 2
	cfg.RepairInterval = -1
	cfg.ReplInterval = 50 * time.Millisecond
	cfg.PersistDir = persistDir
	cfg.NodeID = "primary"
	return cfg
}

// runLayerSuite measures every layer and leaves the numbers in res.
func (e *env) runLayerSuite(res *result) (err error) {
	ls := &layerSuite{e: e, res: res, tr: newTracer(1 << 18), overhead: measureSpanOverhead(), rng: rand.New(rand.NewSource(e.seed))}
	res.set("bench.span_overhead_ns", ls.overhead, "ns")
	if ls.dir, err = os.MkdirTemp(e.outDir, "layers-"); err != nil {
		return err
	}
	defer os.RemoveAll(ls.dir)
	ls.cfg = e.serviceConfig(ls.dir)
	ls.timed("service.boot", func() { ls.svc, err = service.New(ls.cfg) })
	if err != nil {
		return err
	}
	res.set("service.boot_s", ls.med("service.boot")/1e9, "s")
	ls.snap, _ = ls.svc.Snapshot(benchDC)

	steps := []func() error{
		ls.perOp, ls.httpHandler, ls.loopback, ls.replication,
		ls.ledgerBulk, ls.blockLedgerBulk, ls.clustering, ls.telemetryStore,
		ls.serviceBackground, ls.persistence,
	}
	for _, step := range steps {
		if err = step(); err != nil {
			ls.svc.Close()
			return err
		}
	}
	ls.timed("obs.histogram_observe_x1000", func() {
		var h obs.Histogram
		for i := 0; i < 1000; i++ {
			h.Observe(time.Duration(i) * time.Microsecond)
		}
	})
	res.set("obs.histogram_observe_ns", ls.med("obs.histogram_observe_x1000")/1000, "ns")
	if ls.tr.dropped > 0 {
		return fmt.Errorf("layer suite dropped %d spans: the trace buffer is too small", ls.tr.dropped)
	}
	return nil
}

// perOp replays the coverage stream through the binary chain and reports each
// op's cost in wire, service, core, ledger and blockledger.
func (ls *layerSuite) perOp() error {
	rp, err := newReplayer(ls.tr, ls.svc, ls.e.servers, ls.e.seed)
	if err != nil {
		return err
	}
	rp.run(newStream(ls.e.seed, 0, coverageMix), 12000, false)
	if rp.tally.failed > 0 {
		return fmt.Errorf("coverage replay: %d failed, first: %s", rp.tally.failed, rp.tally.firstErr)
	}
	set := func(metric, span string) { ls.res.set(metric, ls.med(span), "ns") }
	set("service.select_ns", "service.select")
	set("service.select_reserve_ns", "service.select_reserve")
	set("service.release_ns", "service.release")
	set("service.renew_ns", "service.renew")
	set("service.place_ns", "service.place")
	set("service.create_block_ns", "service.create_block")
	set("core.select_indexed_ns", "core.select_indexed")
	set("core.place_replicas_ns", "core.place_replicas")
	set("ledger.reserve_ns", "ledger.reserve")
	set("ledger.release_ns", "ledger.release")
	set("ledger.renew_ns", "ledger.renew")
	set("blockledger.create_ns", "blockledger.create")
	// The four codec calls of one request: the client's encode and decode, and
	// the server's decode and encode.
	codec := ls.med("wire.encode_req") + ls.med("wire.decode_req") + ls.med("wire.encode_resp") + ls.med("wire.decode_resp")
	ls.res.set("wire.codec_ns_per_req", codec, "ns")
	// What the service layer adds on top of the layers it calls.
	ls.res.set("service.select_reserve_self_ns",
		math.Max(ls.med("service.select_reserve")-ls.med("core.select_indexed")-ls.med("ledger.reserve"), 0), "ns")

	// Allocations per call, each op alone.
	job := core.JobRequest{Type: core.JobMedium, MaxConcurrentCores: 2}
	var leases []uint64
	ls.res.set("service.select_reserve_allocs", allocsPer(1000, func(int) {
		g, _, _ := ls.svc.SelectReserve(benchDC, job, 0)
		leases = append(leases, g.Lease)
	}), "count")
	ls.res.set("service.release_allocs", allocsPer(len(leases), func(i int) { ls.svc.Release(benchDC, leases[i]) }), "count")
	ls.res.set("core.select_allocs", allocsPer(1000, func(int) { ls.snap.SelectIndexed(ls.rng, job, rp.idx, rp.alloc) }), "count")
	ls.res.set("core.place_allocs", allocsPer(1000, func(int) { rp.placer.PlaceReplicas(ls.rng, placeR3) }), "count")
	reqs := []ledger.Request{{Class: 0, Cores: 1, Capacity: 1e9}}
	leases = leases[:0]
	ls.res.set("ledger.reserve_allocs", allocsPer(1000, func(int) {
		l, _ := rp.led.ReserveMeta(ls.snap.Generation, reqs, time.Minute, time.Now(), ledger.Meta{})
		leases = append(leases, l.ID)
	}), "count")
	for _, id := range leases {
		rp.led.Release(id)
	}
	var buf []byte
	var sel wire.SelectReq
	var resp wire.SelectResp
	grant := wire.SelectResp{Generation: 1, Lease: 7, Satisfiable: true, Classes: []wire.SelectGrant{{Class: 1, Headroom: 9, Granted: 2}}}
	ls.res.set("wire.codec_allocs_per_req", allocsPer(1000, func(i int) {
		buf = wire.AppendSelectReq(buf[:0], uint64(i), benchDC, wire.SelectReq{Job: 1, MaxCores: 2})
		sel.Decode(buf[wire.HeaderSize:])
		buf = wire.AppendSelectResp(buf[:0], uint64(i), &grant)
		resp.Decode(buf[wire.HeaderSize:])
	}), "count")
	return rp.drain()
}

// httpHandler replays the sched stream through the JSON dialect's handler
// with no socket: API.ServeHTTP into a ResponseRecorder.
func (ls *layerSuite) httpHandler() error {
	rp, err := newReplayer(ls.tr, ls.svc, ls.e.servers, ls.e.seed)
	if err != nil {
		return err
	}
	mark := len(ls.tr.spans)
	var mallocs float64
	const n = 3000
	st := newStream(ls.e.seed, 0, schedMix)
	mallocs = allocsPer(n, func(i int) { rp.one(uint32(i), st.next(), true) })
	if rp.tally.failed > 0 {
		return fmt.Errorf("http replay: %d failed, first: %s", rp.tally.failed, rp.tally.firstErr)
	}
	var d []float64
	for _, s := range ls.tr.spans[mark:] {
		if s.Name == "request" {
			d = append(d, float64(s.dur()))
		}
	}
	ls.res.set("service.http.handler_us", (median(d)-ls.overhead)/1e3, "us")
	// The count includes building the request and parsing the reply around
	// the handler; a handler change still moves it one for one.
	ls.res.set("service.http.allocs_per_req", mallocs, "count")
	return rp.drain()
}

// rtt measures depth-1 round trips of a reserving select followed by its
// release over conn c, and returns the median in µs.
func (ls *layerSuite) rtt(name string, t *target) (float64, error) {
	c, err := dialClient(t, nil)
	if err != nil {
		return 0, err
	}
	defer c.close()
	sel := request{Kind: opSelect, Job: wire.JobMedium, Cores: 1}
	for i := 0; i < roundTrips; i++ {
		for _, r := range []request{sel, {Kind: opRelease}} {
			var arg []uint64
			if r.Kind == opRelease {
				arg, c.held = c.held, nil
			} else {
				arg = []uint64{0}
			}
			s := ls.tr.begin(name, -1, uint32(i))
			err = c.control(r, arg)
			ls.tr.end(s)
			if err != nil {
				return 0, err
			}
		}
	}
	if c.tally.failed > 0 {
		return 0, fmt.Errorf("%s: %d failed, first: %s", name, c.tally.failed, c.tally.firstErr)
	}
	return ls.med(name) / 1e3, nil
}

// loopback puts the service behind real loopback sockets, in this process:
// the binary server, the HTTP server behind BatchListener, and a router in
// front of both. Each hop's cost is the round trip with it minus the round
// trip without it.
func (ls *layerSuite) loopback() error {
	listen := func() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }
	binLn, err := listen()
	if err != nil {
		return err
	}
	bs := service.NewBinaryServer(ls.svc)
	go bs.Serve(binLn)
	defer bs.Close()
	httpLn, err := listen()
	if err != nil {
		return err
	}
	api := service.NewAPI(ls.svc)
	api.AttachBinary(bs, binLn.Addr().String())
	hs := &http.Server{Handler: api}
	go hs.Serve(service.BatchListener{Listener: httpLn})
	defer hs.Close()

	binT := &target{addr: binLn.Addr().String(), dc: benchDC}
	httpT := &target{addr: httpLn.Addr().String(), dc: benchDC, json: true}
	binRTT, err := ls.rtt("service.binary.rtt", binT)
	if err != nil {
		return err
	}
	var mallocs float64
	c, err := dialClient(binT, nil)
	if err != nil {
		return err
	}
	mallocs = allocsPer(roundTrips, func(int) {
		c.control(request{Kind: opDrySelect, Job: wire.JobMedium, Cores: 1}, []uint64{0})
	})
	c.close()
	httpRTT, err := ls.rtt("service.http.rtt", httpT)
	if err != nil {
		return err
	}
	ls.res.set("service.binary.rtt_us", binRTT, "us")
	// Half the round trips are reserving selects and half releases, so the
	// work inside a round trip is the mean of the two chains.
	inside := (ls.res.Metrics["service.select_reserve_ns"].Value + ls.res.Metrics["service.release_ns"].Value) / 2
	ls.res.set("service.binary.transport_us", binRTT-(inside+ls.res.Metrics["wire.codec_ns_per_req"].Value/2)/1e3, "us")
	ls.res.set("service.binary.allocs_per_req", mallocs, "count")
	ls.res.set("service.http.rtt_us", httpRTT, "us")

	// The router, fed by the node's own announcer.
	rt := router.New(router.Config{})
	rtHTTPLn, err := listen()
	if err != nil {
		return err
	}
	rs := &http.Server{Handler: rt}
	go rs.Serve(service.BatchListener{Listener: rtHTTPLn})
	defer rs.Close()
	rtBinLn, err := listen()
	if err != nil {
		return err
	}
	go rt.ServeBinary(rtBinLn)
	defer rt.CloseBinary()
	ann, err := service.StartAnnouncer(ls.svc, service.AnnouncerConfig{
		RouterURL: "http://" + rtHTTPLn.Addr().String(), SelfURL: "http://" + httpLn.Addr().String(),
		BinaryAddr: binLn.Addr().String(), ID: "primary", Interval: 250 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	defer ann.Close()
	err = waitUntil(time.Now().Add(10*time.Second), nil, "in-process router", func() error {
		var dcs struct {
			Datacenters []string `json:"datacenters"`
		}
		if err := getJSON("http://"+rtHTTPLn.Addr().String()+"/v1/datacenters", &dcs); err != nil {
			return err
		}
		if len(dcs.Datacenters) == 0 {
			return errors.New("no datacenter registered yet")
		}
		return nil
	})
	if err != nil {
		return err
	}
	relayRTT, err := ls.rtt("router.relay_rtt", &target{addr: rtBinLn.Addr().String(), dc: benchDC})
	if err != nil {
		return err
	}
	proxyRTT, err := ls.rtt("router.http_rtt", &target{addr: rtHTTPLn.Addr().String(), dc: benchDC, json: true})
	if err != nil {
		return err
	}
	ls.res.set("router.relay_rtt_us", relayRTT, "us")
	ls.res.set("router.relay_overhead_us", relayRTT-binRTT, "us")
	ls.res.set("router.http_overhead_us", proxyRTT-httpRTT, "us")
	return nil
}

// replication loads the suite's lease state, arms the service's replication
// listener and watches it with a shadow follower.
func (ls *layerSuite) replication() error {
	job := core.JobRequest{Type: core.JobMedium, MaxConcurrentCores: 1}
	want := int(math.Round(suiteLeasesAtFullScale * ls.e.scale))
	for i := 0; i < want; i++ {
		g, _, err := ls.svc.SelectReserve(benchDC, job, time.Hour)
		if err != nil || !g.Reserved() {
			return fmt.Errorf("standing lease %d of %d did not fit (err %v)", i, want, err)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	ls.svc.ArmReplicationListener(ln) // the service owns and closes it
	shadow, err := dialShadow(ln.Addr().String())
	if err != nil {
		return err
	}
	defer shadow.close()
	time.Sleep(1200 * time.Millisecond) // ~24 beats at the suite's 50 ms interval
	st, err := shadow.stats()
	if err != nil {
		return err
	}
	var beat wire.ReplBeat
	for i := 0; i < 20; i++ {
		ls.timed("wire.beat_decode", func() { err = beat.Decode(st.lastBeat) })
		if err != nil {
			return err
		}
	}
	if len(beat.Ledger.Leases) != want {
		return fmt.Errorf("beat carries %d leases, want %d", len(beat.Ledger.Leases), want)
	}
	ls.res.set("wire.beat_bytes", st.beatBytes, "B")
	ls.res.set("wire.snapshot_bytes", float64(st.snapshotBytes), "B")
	ls.res.set("wire.beat_decode_us", ls.med("wire.beat_decode")/1e3, "us")
	return nil
}

// ledgerBulk times the whole-ledger operations on a bench-owned ledger at the
// suite's lease count.
func (ls *layerSuite) ledgerBulk() error {
	classes := len(ls.snap.Clustering.Classes)
	gen := ls.snap.Generation
	led := ledger.New(gen, classes)
	want := int(math.Round(suiteLeasesAtFullScale * ls.e.scale))
	for i := 0; i < want; i++ {
		reqs := []ledger.Request{{Class: core.ClassID(i % classes), Cores: 1, Capacity: 1e9}}
		if _, err := led.Reserve(gen, reqs, time.Hour, time.Now()); err != nil {
			return err
		}
	}
	identity := make(map[core.ClassID][]ledger.Share, classes)
	for c := 0; c < classes; c++ {
		identity[core.ClassID(c)] = []ledger.Share{{Class: core.ClassID(c), Weight: 1}}
	}
	replica := ledger.New(gen, classes)
	var st ledger.State
	for i := 0; i < 5; i++ {
		ls.timed("ledger.expire_sweep", func() { led.ExpireBefore(time.Now()) })
		gen++
		ls.timed("ledger.rekey", func() { led.Rekey(gen, classes, identity) })
		ls.timed("ledger.export", func() { st = led.Export() })
		ls.timed("ledger.apply_state", func() { replica.ApplyState(st, classes) })
	}
	if got := replica.Snapshot(); got.ActiveLeases != want || got.OutstandingMillis != int64(want)*ledger.MillisPerCore {
		return fmt.Errorf("ledger apply_state: %d leases, %d millicores; want %d leases", got.ActiveLeases, got.OutstandingMillis, want)
	}
	ls.res.set("ledger.expire_sweep_us", ls.med("ledger.expire_sweep")/1e3, "us")
	ls.res.set("ledger.rekey_ms", ls.med("ledger.rekey")/1e6, "ms")
	ls.res.set("ledger.export_ms", ls.med("ledger.export")/1e6, "ms")
	ls.res.set("ledger.apply_state_ms", ls.med("ledger.apply_state")/1e6, "ms")
	return nil
}

// lowestHolders returns the n lowest server ids of holders: which servers the
// suite reimages must follow from -seed alone, never from map order.
func lowestHolders(holders map[tenant.ServerID]bool, n int) []tenant.ServerID {
	ids := make([]tenant.ServerID, 0, len(holders))
	for s := range holders {
		ids = append(ids, s)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	if len(ids) > n {
		ids = ids[:n]
	}
	return ids
}

// blockLedgerBulk times reimage, repair and the whole-ledger operations on a
// bench-owned block ledger at the suite's block count.
func (ls *layerSuite) blockLedgerBulk() error {
	gen := ls.snap.Generation
	bl := blockledger.New(gen)
	placer := ls.snap.Scheme().CloneForConcurrentUse()
	want := int(math.Round(suiteBlocksAtFullScale * ls.e.scale))
	holders := map[tenant.ServerID]bool{}
	for i := 0; i < want; i++ {
		replicas, err := placer.PlaceReplicas(ls.rng, placeR3)
		if err != nil {
			return err
		}
		if _, err := bl.Create(gen, replicas, true); err != nil {
			return err
		}
		for _, s := range replicas {
			holders[s] = true
		}
	}
	for _, s := range lowestHolders(holders, 16) {
		ls.timed("blockledger.reimage", func() { bl.Reimage(s) })
	}
	for {
		var refs []blockledger.Repair
		ls.timed("blockledger.take_repairs", func() { refs = bl.TakeRepairs(64) })
		if len(refs) == 0 {
			break
		}
		for _, ref := range refs {
			placed, _, _ := bl.Servers(ref.Block)
			more, err := placer.PlaceAdditional(ls.rng, placed, 1, core.PlacementConstraints{EnforceEnvironment: true})
			if err != nil || len(more) == 0 {
				return fmt.Errorf("repair placement: %v", err)
			}
			ls.timed("blockledger.replace", func() { err = bl.Replace(gen, ref, more[0]) })
			if err != nil {
				return err
			}
		}
	}
	replica := blockledger.New(gen)
	var st blockledger.State
	for i := 0; i < 3; i++ {
		gen++
		ls.timed("blockledger.rekey", func() { bl.Rekey(gen, ls.snap.Scheme().ReplicaSite) })
		ls.timed("blockledger.export", func() { st = bl.Export() })
		ls.timed("blockledger.apply_state", func() { replica.ApplyState(st) })
	}
	books := replica.Snapshot()
	if books.Blocks != int64(want) || books.Placed+books.Pending != books.ReplicaSlots {
		return fmt.Errorf("blockledger apply_state: %+v, want %d blocks with balanced books", books, want)
	}
	ls.res.set("blockledger.reimage_us", ls.med("blockledger.reimage")/1e3, "us")
	ls.res.set("blockledger.replace_ns", ls.med("blockledger.replace")+ls.med("blockledger.take_repairs")/64, "ns")
	ls.res.set("blockledger.rekey_ms", ls.med("blockledger.rekey")/1e6, "ms")
	ls.res.set("blockledger.export_ms", ls.med("blockledger.export")/1e6, "ms")
	ls.res.set("blockledger.apply_state_ms", ls.med("blockledger.apply_state")/1e6, "ms")
	return nil
}

// benchRings builds a telemetry store like the service's own: one ring per
// tenant, bootstrapped from the tenant's one-month trace.
func benchRings(pop *tenant.Population) (*telemetry.Store, error) {
	ids := make([]tenant.ID, len(pop.Tenants))
	for i, t := range pop.Tenants {
		ids[i] = t.ID
	}
	rings := telemetry.NewStore(ids, timeseries.SlotDuration, timeseries.SlotsPerMonth)
	for _, t := range pop.Tenants {
		if err := rings.Bootstrap(t.ID, t.Utilization, t.Utilization.Duration()); err != nil {
			return nil, err
		}
	}
	return rings, nil
}

// clustering times a from-scratch clustering and a warm re-cluster of the
// DC-9 population, on a population and rings the bench owns.
func (ls *layerSuite) clustering() error {
	pop, _, err := experiments.BuildPopulation(benchDC, ls.cfg.Scale)
	if err != nil {
		return err
	}
	rings, err := benchRings(pop)
	if err != nil {
		return err
	}
	clusterer := core.NewClusteringService(ls.cfg.Clustering)
	var clustering *core.Clustering
	ls.timed("core.cluster_full", func() { clustering, err = clusterer.ClusterFrom(pop, rings) })
	if err != nil {
		return err
	}
	for round := 0; round < 3; round++ {
		for slot := 0; slot < telemetrySlots; slot++ {
			at := rings.Horizon() + timeseries.SlotDuration
			for _, t := range pop.Tenants {
				if _, err := rings.Ingest(t.ID, at, t.UtilizationAt(at)); err != nil {
					return err
				}
			}
		}
		ls.timed("core.recluster_warm", func() { clustering, _, err = clusterer.Recluster(clustering, pop, rings) })
		if err != nil {
			return err
		}
	}
	ls.res.set("core.cluster_full_ms", ls.med("core.cluster_full")/1e6, "ms")
	ls.res.set("core.recluster_warm_ms", ls.med("core.recluster_warm")/1e6, "ms")
	return nil
}

// telemetryStore times sample ingestion and the series read re-clustering
// does, on a full one-month ring.
func (ls *layerSuite) telemetryStore() error {
	rings, err := benchRings(ls.e.pop)
	if err != nil {
		return err
	}
	tenants := ls.e.pop.Tenants
	for slot := 0; slot < 20; slot++ {
		at := rings.Horizon() + timeseries.SlotDuration
		ls.timed("telemetry.ingest_slot", func() {
			for _, t := range tenants {
				rings.Ingest(t.ID, at, 0.5)
			}
		})
	}
	for i := 0; i < 20; i++ {
		id := tenants[i%len(tenants)].ID
		ls.timed("telemetry.series_for", func() {
			if rings.SeriesFor(id) == nil {
				err = fmt.Errorf("no series for tenant %v", id)
			}
		})
	}
	ls.res.set("telemetry.ingest_ns_per_sample", ls.med("telemetry.ingest_slot")/float64(len(tenants)), "ns")
	ls.res.set("telemetry.series_for_us", ls.med("telemetry.series_for")/1e3, "us")
	return err
}

// serviceBackground times the service's own background work with its state
// loaded: block creation up to the suite's block count, telemetry ingest, a
// reimaging wave and its repair, and warm and full refreshes (which re-key
// both ledgers and rewrite the persistence files).
func (ls *layerSuite) serviceBackground() error {
	want := int(math.Round(suiteBlocksAtFullScale * ls.e.scale))
	holders := map[tenant.ServerID]bool{}
	for {
		st, _ := ls.svc.BlockStats(benchDC)
		if st.Blocks >= int64(want) {
			break
		}
		bp, err := ls.svc.CreateBlock(benchDC, placeR3)
		if err != nil {
			return err
		}
		for _, s := range bp.Replicas {
			holders[s] = true
		}
	}
	var lost int
	for _, s := range lowestHolders(holders, 8) {
		ls.timed("service.reimage", func() {
			n, _ := ls.svc.ReimageServer(benchDC, s)
			lost += n
		})
	}
	for landed := 0; landed < lost; {
		var n int
		ls.timed("service.repair_batch", func() { n = ls.svc.RepairBlocks(benchDC, 64) })
		if n == 0 {
			return fmt.Errorf("repair stalled at %d of %d replicas", landed, lost)
		}
		landed += n
	}
	if st, _ := ls.svc.BlockStats(benchDC); st.Pending != 0 {
		return fmt.Errorf("%d replicas still pending after repair", st.Pending)
	}
	tenants := ls.e.pop.Tenants
	samples := make([]service.IngestSample, len(tenants))
	slot := func() error {
		for i, t := range tenants {
			samples[i] = service.IngestSample{Tenant: t.ID, Server: -1, Value: 0.5}
		}
		var res service.IngestResult
		var err error
		ls.timed("service.ingest_slot", func() { res, err = ls.svc.Ingest(benchDC, samples) })
		if err == nil && res.Rejected > 0 {
			err = fmt.Errorf("%d samples rejected", res.Rejected)
		}
		return err
	}
	for round := 0; round < 6; round++ {
		for i := 0; i < telemetrySlots; i++ {
			if err := slot(); err != nil {
				return err
			}
		}
		before, _ := ls.svc.Stats(benchDC)
		s := ls.tr.begin("service.refresh", -1, 0)
		err := ls.svc.Refresh(benchDC)
		ls.tr.end(s)
		if err != nil {
			return err
		}
		// FullRebuildEvery is 2, so refreshes alternate warm and full; name
		// the span after which one this was.
		after, _ := ls.svc.Stats(benchDC)
		ls.tr.spans[s].Name = "service.refresh_warm"
		if after.FullRebuilds > before.FullRebuilds {
			ls.tr.spans[s].Name = "service.refresh_full"
		}
	}
	ls.res.set("service.reimage_us", ls.med("service.reimage")/1e3, "us")
	ls.res.set("service.repair_ns_per_replica", ls.med("service.repair_batch")/64, "ns")
	ls.res.set("service.ingest_ns_per_sample", ls.med("service.ingest_slot")/float64(len(tenants)), "ns")
	ls.res.set("service.refresh_warm_ms", ls.med("service.refresh_warm")/1e6, "ms")
	ls.res.set("service.refresh_full_ms", ls.med("service.refresh_full")/1e6, "ms")
	return nil
}

// persistence times Close (which persists both ledgers), sizes the three
// files, and times a restore from them — checking that the restored service
// holds the same books.
func (ls *layerSuite) persistence() error {
	before, _ := ls.svc.Stats(benchDC)
	ls.timed("service.persist_close", ls.svc.Close)
	var size int64
	files, err := filepath.Glob(filepath.Join(ls.dir, benchDC+".*.json"))
	if err != nil || len(files) != 3 {
		return fmt.Errorf("want 3 persistence files in %s, found %v (err %v)", ls.dir, files, err)
	}
	for _, f := range files {
		info, err := os.Stat(f)
		if err != nil {
			return err
		}
		size += info.Size()
	}
	var restored *service.Service
	ls.timed("service.restore", func() { restored, err = service.New(ls.cfg) })
	if err != nil {
		return err
	}
	defer restored.Close()
	after, _ := restored.Stats(benchDC)
	if after.Generation != before.Generation || after.Ledger.ActiveLeases != before.Ledger.ActiveLeases ||
		after.Ledger.OutstandingMillis != before.Ledger.OutstandingMillis || after.Blocks.Blocks != before.Blocks.Blocks ||
		after.Blocks.Placed != before.Blocks.Placed {
		return fmt.Errorf("restore changed the books: %+v / %+v, then %+v / %+v", before.Ledger, before.Blocks, after.Ledger, after.Blocks)
	}
	ls.res.set("service.persist_close_ms", ls.med("service.persist_close")/1e6, "ms")
	ls.res.set("service.persist_bytes", float64(size), "B")
	ls.res.set("service.restore_s", ls.med("service.restore")/1e9, "s")
	return nil
}
