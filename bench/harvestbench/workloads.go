package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"harvest/internal/tenant"
)

// Fixed shape of every end-to-end run. The dataset is DC-9 at benchScale with
// daemon seed 1; only the request inputs follow -seed.
const (
	benchDC    = "DC-9"
	daemonSeed = "1"
	// benchScale is the dataset scale (1.0 = 7,342 servers): 1,944 servers, 126
	// tenants. Not 1.0, because a run boots its topology three times inside the
	// contract's ≈37 s and a node boots in ≈7.5 s there against ≈2.2 s here. Not
	// 0.25 or less, because one cell of DC-9's placement grid is then empty and
	// storage_refresh's pending replicas never reach zero (bench/README.md).
	benchScale    = 0.3
	numConns      = 2   // one per core of the reference box
	closedDepth   = 16  // pipeline depth of the closed loop
	warmupSeconds = 0.5 // per slice, unmeasured: fills caches and the held-lease sets
	openShare     = 0.6 // share of a slice in the open loop; the rest is closed (storage_refresh: all open)
	numSlices     = 3   // boots per run; every metric is the median across them
	// standingLeasesAtFullScale is fleet_routed's preloaded lease count at
	// scale 1; it shrinks with the scale so the leases always fit the DC.
	standingLeasesAtFullScale = 20000
	// preloadedBlocksAtFullScale is storage_refresh's starting block count at
	// scale 1, so every refresh re-keys and persists a real block ledger.
	preloadedBlocksAtFullScale = 100000
	// waveServersAtFullScale is storage_refresh's reimaging wave size at
	// scale 1.
	waveServersAtFullScale = 25
	telemetryEvery         = 200 * time.Millisecond
)

type topologyKind int

const (
	topoSingle  topologyKind = iota // one harvestd, -refresh 0
	topoFleet                       // router + primary + follower
	topoStorage                     // one harvestd -persist, -refresh 1s
)

// workload is one traffic mix on one topology. BENCHMARK.json and
// bench/README.md record why each exists.
type workload struct {
	name     string
	topo     topologyKind
	json     bool
	mix      mix
	openRate float64 // total requests per second of the open loop, both connections
}

// schedMix is the YARN-H heartbeat traffic: reserving selects beside dry ones.
var schedMix = mix{opSelect: 30, opRelease: 25, opRenew: 10, opDrySelect: 20, opClasses: 10, opServer: 5}

// The open-loop rates are about half of what each topology's unbatched path
// sustains on the reference box (2 vCPUs shared with the load generator); they
// were calibrated once and are constants from here on.
var workloads = []workload{
	{name: "sched_binary", topo: topoSingle, mix: schedMix, openRate: 20000},
	{name: "sched_json", topo: topoSingle, json: true, mix: schedMix, openRate: 5000},
	{name: "fleet_routed", topo: topoFleet, openRate: 8000,
		mix: mix{opDrySelect: 40, opPlace: 20, opClasses: 10, opServer: 10, opSelect: 8, opRelease: 7, opRenew: 5}},
	{name: "storage_refresh", topo: topoStorage, openRate: 4000,
		mix: mix{opPlaceBlock: 50, opPlace: 30, opDrySelect: 20}},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// env is what every workload run shares.
type env struct {
	binDir  string  // where harvestd and harvestrouter were built
	outDir  string  // logs, traces, results
	scale   float64 // benchScale; unit tests build a smaller population
	seed    int64
	seconds float64
	pop     *tenant.Population
	servers []int64

	// group is the subprocess group of the workload in flight, for the signal
	// handler.
	mu    sync.Mutex
	group *procGroup
}

func (e *env) setGroup(g *procGroup) {
	e.mu.Lock()
	e.group = g
	e.mu.Unlock()
}

// killChildren stops whatever subprocesses are running right now.
func (e *env) killChildren() {
	e.mu.Lock()
	g := e.group
	e.mu.Unlock()
	if g != nil {
		g.stopAll()
	}
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload's end-to-end run.
type result struct {
	Workload string            `json:"workload"`
	Metrics  map[string]metric `json:"metrics"`
	// Attempted and Failed cover the whole run: warm-up, both measured
	// phases, and the control traffic (preload, wave, drain).
	Attempted uint64 `json:"attempted"`
	Failed    uint64 `json:"failed"`
	FirstErr  string `json:"first_error,omitempty"`
	// Conflicts counts block creates the daemon turned away as racing a
	// refresh (client.go isCreateConflict). They are attempted, not failed:
	// each was sent again.
	Conflicts uint64 `json:"create_conflicts"`
	// Checks lists the correctness checks that ran and passed; Violations the
	// ones that did not. A run is correct when Failed is 0 and Violations is
	// empty.
	Checks     []string          `json:"checks"`
	Violations []string          `json:"violations,omitempty"`
	Info       map[string]string `json:"info"`
}

func (r *result) correct() bool { return r.Failed == 0 && len(r.Violations) == 0 }

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) check(name string, err error) {
	if err != nil {
		r.Violations = append(r.Violations, name+": "+err.Error())
		return
	}
	r.Checks = append(r.Checks, name)
}

// topology is one booted set of daemons.
type topology struct {
	group    *procGroup
	primary  *proc
	follower *proc
	router   *proc

	primaryURL  string // primary's HTTP base URL (books, telemetry)
	primaryArgs []string
	primaryLog  string
	dataAddr    string // where the measured connections dial
	controlAddr string // a binary listener for the off-path control traffic
	replAddr    string // primary's replication listener (fleet)
	routerURL   string
	persistDir  string
	debugURLs   []string // every server process's -debug-addr base URL (expvar)
}

// servers returns the daemon processes whose CPU is server CPU.
func (t *topology) servers() []*proc {
	var ps []*proc
	for _, p := range []*proc{t.primary, t.follower, t.router} {
		if p != nil {
			ps = append(ps, p)
		}
	}
	return ps
}

// boot starts w's topology and waits until it can serve: every node answers
// /healthz and lists DC-9, and a fleet's router has both the primary and its
// follower registered. The returned duration is setup_s for this boot.
func (e *env) boot(w *workload) (*topology, time.Duration, error) {
	t := &topology{group: &procGroup{}}
	e.setGroup(t.group)
	// freePort closes its socket before it returns, so two calls can be given
	// the same port: hand out each address once.
	taken := map[string]bool{}
	addr := func() string {
		for {
			a, err := freePort()
			if err != nil {
				panic(err) // loopback bind failing means the box is unusable
			}
			if !taken[a] {
				taken[a] = true
				return a
			}
		}
	}
	// One log per node, holding this boot (and, for storage_refresh, the
	// restart after it) — not the boots of earlier runs.
	logPath := func(node string) string {
		p := filepath.Join(e.outDir, w.name+"-"+node+".log")
		os.Remove(p)
		return p
	}
	harvestd := filepath.Join(e.binDir, "harvestd")
	common := []string{"-dcs", benchDC, "-scale", strconv.FormatFloat(e.scale, 'g', -1, 64), "-seed", daemonSeed}
	deadline := time.Now().Add(60 * time.Second)

	// Every server process gets the operator debug listener: its expvar page is
	// where the heap counters are read from (heapSnapshot).
	debugAddr := func() string {
		a := addr()
		t.debugURLs = append(t.debugURLs, "http://"+a)
		return a
	}
	listen, binary := addr(), addr()
	t.primaryURL = "http://" + listen
	t.primaryLog = logPath("primary")
	t.primaryArgs = append([]string{"-listen", listen, "-binary-addr", binary, "-debug-addr", debugAddr()}, common...)
	start := time.Now()
	var err error
	switch w.topo {
	case topoSingle:
		t.primaryArgs = append(t.primaryArgs, "-refresh", "0")
	case topoStorage:
		t.persistDir, err = os.MkdirTemp(e.outDir, "persist-")
		if err != nil {
			return nil, 0, err
		}
		t.primaryArgs = append(t.primaryArgs, "-persist", t.persistDir, "-refresh", "1s", "-full-every", "-1")
	case topoFleet:
		routerListen, routerBinary := addr(), addr()
		t.routerURL = "http://" + routerListen
		t.replAddr = addr()
		t.router, err = t.group.start("router", filepath.Join(e.binDir, "harvestrouter"), logPath("router"),
			"-listen", routerListen, "-binary-listen", routerBinary, "-debug-addr", debugAddr())
		if err != nil {
			return t, 0, err
		}
		announce := []string{"-refresh", "0", "-announce", t.routerURL, "-announce-interval", "250ms"}
		t.primaryArgs = append(t.primaryArgs, announce...)
		t.primaryArgs = append(t.primaryArgs, "-replicate-addr", t.replAddr, "-node-id", "primary")
		followerArgs := append([]string{"-listen", addr(), "-binary-addr", addr(), "-debug-addr", debugAddr()}, common...)
		followerArgs = append(followerArgs, announce...)
		followerArgs = append(followerArgs, "-follow", t.replAddr, "-node-id", "follower")
		t.follower, err = t.group.start("follower", harvestd, logPath("follower"), followerArgs...)
		if err != nil {
			return t, 0, err
		}
	}
	t.primary, err = t.group.start("primary", harvestd, t.primaryLog, t.primaryArgs...)
	if err != nil {
		return t, 0, err
	}
	if t.dataAddr, err = waitServing(deadline, t.primary, t.primaryURL, benchDC); err != nil {
		return t, 0, err
	}
	t.controlAddr = t.dataAddr
	if w.json {
		t.dataAddr = listen
	}
	if w.topo == topoFleet {
		if t.dataAddr, err = waitServing(deadline, t.router, t.routerURL, benchDC); err != nil {
			return t, 0, err
		}
		t.controlAddr = t.dataAddr
		if err = waitUntil(deadline, t.follower, "router registration", func() error { return fleetRegistered(t.routerURL) }); err != nil {
			return t, 0, err
		}
	}
	return t, time.Since(start), nil
}

// routerMetrics is the slice of harvestrouter's /metrics the harness reads.
type routerMetrics struct {
	Router struct {
		Backends map[string]struct {
			Role      string `json:"role"`
			PrimaryID string `json:"primary_id"`
			Alive     bool   `json:"alive"`
			Reads     uint64 `json:"reads"`
		} `json:"backends"`
	} `json:"router"`
}

// fleetRegistered reports whether the router knows a live primary and a live
// follower of that primary — the point from which reads are spread.
func fleetRegistered(routerURL string) error {
	var m routerMetrics
	if err := getJSON(routerURL+"/metrics", &m); err != nil {
		return err
	}
	p, f := m.Router.Backends["primary"], m.Router.Backends["follower"]
	if !p.Alive || p.Role == "follower" {
		return errors.New("primary not registered")
	}
	if !f.Alive || f.Role != "follower" || f.PrimaryID != "primary" {
		return errors.New("follower not registered against the primary")
	}
	return nil
}

// cpuSnapshot is the CPU seconds each server process has used so far, by
// node name, plus the harness's own under "bench".
type cpuSnapshot map[string]float64

func (t *topology) cpuSnapshot() (cpuSnapshot, error) {
	snap := cpuSnapshot{}
	for _, p := range t.servers() {
		s, err := p.cpuSeconds()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		snap[p.name] = s
	}
	self, err := selfCPUSeconds()
	if err != nil {
		return nil, err
	}
	snap["bench"] = self
	return snap, nil
}

// since returns the CPU seconds used between an earlier snapshot and this
// one: per node, and summed over the server processes.
func (c cpuSnapshot) since(earlier cpuSnapshot) (byNode map[string]float64, servers float64) {
	byNode = map[string]float64{}
	for name, s := range c {
		byNode[name] = s - earlier[name]
		if name != "bench" {
			servers += byNode[name]
		}
	}
	return byNode, servers
}

// heapSnapshot is what the server processes have allocated on the Go heap
// since they started, summed over them: objects and bytes, read from each
// process's expvar page (runtime.MemStats Mallocs and TotalAlloc). They are
// counts of the program's own work, so unlike CPU time they do not move when a
// neighbour on the host slows the box.
type heapSnapshot struct{ objects, bytes float64 }

func (t *topology) heapSnapshot() (heapSnapshot, error) {
	var sum heapSnapshot
	for _, url := range t.debugURLs {
		var vars struct {
			MemStats struct {
				Mallocs    uint64
				TotalAlloc uint64
			} `json:"memstats"`
		}
		if err := getJSON(url+"/debug/vars", &vars); err != nil {
			return sum, err
		}
		sum.objects += float64(vars.MemStats.Mallocs)
		sum.bytes += float64(vars.MemStats.TotalAlloc)
	}
	return sum, nil
}

// slice is one boot of a workload's topology and everything measured against
// it: a complete small run. A workload run is numSlices of them, and every
// metric it reports is the median across its slices, so no number rests on one
// process instance or on one few-second stretch of a shared box.
type slice struct {
	e     *env
	w     *workload
	index int
	res   *result
	topo  *topology

	clients []*client // the measured connections
	control *client   // off-path traffic: preloads, the wave, the final drain
	shadow  *shadowFollower
	storage *storageDriver
}

// runWorkload runs w as numSlices slices and reports the median of each
// metric across them. Every child process is stopped on every path out.
func (e *env) runWorkload(w *workload) (*result, error) {
	res := &result{Workload: w.name, Metrics: map[string]metric{}, Info: map[string]string{}}
	var slices []*result
	for i := 0; i < numSlices; i++ {
		sl := &slice{e: e, w: w, index: i, res: &result{Workload: w.name, Metrics: map[string]metric{}, Info: map[string]string{}}}
		err := sl.run()
		sl.teardown()
		if err != nil {
			return res, fmt.Errorf("slice %d: %w", i, err)
		}
		slices = append(slices, sl.res)
	}
	for name, m := range slices[0].Metrics {
		values := make([]float64, 0, len(slices))
		for _, s := range slices {
			if v, ok := s.Metrics[name]; ok {
				values = append(values, v.Value)
			}
		}
		res.set(name, median(values), m.Unit)
	}
	for _, s := range slices {
		res.Attempted += s.Attempted
		res.Failed += s.Failed
		res.Conflicts += s.Conflicts
		if res.FirstErr == "" {
			res.FirstErr = s.FirstErr
		}
		res.Violations = append(res.Violations, s.Violations...)
	}
	last := slices[len(slices)-1]
	res.Checks, res.Info = last.Checks, last.Info
	res.set("fail_ratio", float64(res.Failed)/float64(res.Attempted), "ratio")
	res.set("service.create_conflicts", float64(res.Conflicts), "count")
	return res, nil
}

// run is one slice: boot, connect, preload, measure, check.
func (sl *slice) run() error {
	// The deadline: whatever is stuck, taking the daemons away unblocks it
	// with an error.
	watchdog := time.AfterFunc(60*time.Second, sl.e.killChildren)
	defer watchdog.Stop()
	var took time.Duration
	var err error
	for attempt := 1; ; attempt++ {
		sl.topo, took, err = sl.e.boot(sl.w)
		if err == nil {
			break
		}
		if attempt == 3 || !errors.Is(err, errExitedEarly) {
			return err
		}
		fmt.Fprintln(os.Stderr, "harvestbench: booting again on fresh ports:", err)
		sl.dropTopology()
	}
	sl.res.set("setup_s", took.Seconds(), "s")
	for _, step := range []func() error{sl.connect, sl.preload, sl.measure, sl.checkBooks} {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

func (sl *slice) teardown() {
	if sl.storage != nil {
		sl.storage.stopTelemetry()
	}
	if sl.shadow != nil {
		sl.shadow.close()
	}
	for _, c := range append(sl.clients, sl.control) {
		if c != nil {
			c.close()
		}
	}
	sl.dropTopology()
}

// dropTopology stops the slice's daemons and removes their scratch directory.
func (sl *slice) dropTopology() {
	if sl.topo != nil {
		sl.topo.group.stopAll()
		if sl.topo.persistDir != "" {
			os.RemoveAll(sl.topo.persistDir)
		}
		sl.topo = nil
	}
	sl.e.setGroup(nil)
}

// connect opens the measured connections and the control connection. Each
// connection of each slice gets its own stream of the run's seed.
func (sl *slice) connect() error {
	var classes struct {
		AsOfSeconds float64           `json:"as_of_seconds"`
		Classes     []json.RawMessage `json:"classes"`
	}
	if err := getJSON(sl.topo.primaryURL+"/v1/"+benchDC+"/classes", &classes); err != nil {
		return err
	}
	tgt := &target{addr: sl.topo.dataAddr, json: sl.w.json, dc: benchDC, servers: sl.e.servers, classes: len(classes.Classes)}
	if sl.w.topo == topoStorage {
		tgt.classes = 0 // every refresh may re-cluster into a different class count
	}
	for i := 0; i < numConns; i++ {
		streamIndex := sl.index*numConns + i
		c, err := dialClient(tgt, newStream(sl.e.seed, streamIndex, sl.w.mix))
		if err != nil {
			return err
		}
		sl.clients = append(sl.clients, c)
		sl.res.Info[fmt.Sprintf("stream_digest_%d", streamIndex)] = fmt.Sprintf("%016x", streamDigest(sl.e.seed, streamIndex, sl.w.mix, 4096))
	}
	var err error
	if sl.control, err = dialClient(&target{addr: sl.topo.controlAddr, dc: benchDC}, nil); err != nil {
		return err
	}
	if sl.w.topo == topoStorage {
		sl.storage = newStorageDriver(sl.e, sl.index, sl.topo, sl.control, classes.AsOfSeconds)
		for _, c := range append(sl.clients, sl.control) {
			c.onBlock = sl.storage.sawBlock
		}
	}
	return nil
}

// preload brings the daemons to the workload's starting state, off the
// measured path: fleet_routed's standing leases (so every replication beat
// carries real state), storage_refresh's blocks (so every refresh re-keys and
// persists real state), and for the closed-loop workloads a warm-up.
func (sl *slice) preload() error {
	switch sl.w.topo {
	case topoFleet:
		standing := int(math.Round(standingLeasesAtFullScale * sl.e.scale))
		if err := sl.control.control(request{Kind: opSelect, Job: 1, Cores: 1, HoldMillis: 3600_000}, make([]uint64, standing)); err != nil {
			return fmt.Errorf("standing-lease preload: %w", err)
		}
		if len(sl.control.held) != standing {
			return fmt.Errorf("standing-lease preload: only %d of %d one-core leases fit", len(sl.control.held), standing)
		}
		sl.res.Info["standing_leases"] = strconv.Itoa(standing)
		var err error
		if sl.shadow, err = dialShadow(sl.topo.replAddr); err != nil {
			return err
		}
	case topoStorage:
		blocks := int(math.Round(preloadedBlocksAtFullScale * sl.e.scale))
		if err := sl.control.control(request{Kind: opPlaceBlock}, make([]uint64, blocks)); err != nil {
			return fmt.Errorf("block preload: %w", err)
		}
		sl.res.Info["preloaded_blocks"] = strconv.Itoa(blocks)
		sl.storage.startTelemetry()
		return nil // the preload was the warm-up
	}
	err := sl.both(func(_ int, c *client) error {
		return c.runClosed(time.Duration(warmupSeconds*float64(time.Second)), closedDepth)
	})
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return nil
}

// both runs fn on every measured connection at once and joins.
func (sl *slice) both(fn func(i int, c *client) error) error {
	errs := make([]error, len(sl.clients))
	var wg sync.WaitGroup
	for i, c := range sl.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(i, c)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (sl *slice) correctSoFar() (n uint64) {
	for _, c := range sl.clients {
		n += c.tally.correct
	}
	return n
}

// measure runs the slice's share of the measured seconds: the open loop
// (latency at a fixed rate), then — except on storage_refresh, which is all
// open loop so that its state grows at a fixed rate — the closed loop
// (throughput at saturation).
func (sl *slice) measure() error {
	res := sl.res
	total := time.Duration(sl.e.seconds / numSlices * float64(time.Second))
	openDur := total
	if sl.w.topo != topoStorage {
		openDur = time.Duration(float64(total) * openShare)
	}
	interval := time.Duration(float64(numConns) / sl.w.openRate * float64(time.Second))

	if sl.shadow != nil {
		sl.shadow.reset()
	}
	heap0, err := sl.topo.heapSnapshot()
	if err != nil {
		return err
	}
	cpu0, err := sl.topo.cpuSnapshot()
	if err != nil {
		return err
	}
	n0 := sl.correctSoFar()
	opens := make([]openResult, numConns)
	// A paced writer blocks its thread in nanosleep, which keeps a P pinned
	// under it; give every writer a P of its own for the phase so the readers
	// are never left without one.
	procs := runtime.GOMAXPROCS(0)
	runtime.GOMAXPROCS(procs + numConns)
	openStart := time.Now()
	if sl.storage != nil {
		sl.storage.scheduleWave(openStart.Add(openDur / 2))
	}
	err = sl.both(func(i int, c *client) (err error) {
		// Stagger the connections so their due times interleave.
		opens[i], err = c.runOpen(openStart, openDur, interval, time.Duration(i)*interval/numConns)
		return err
	})
	openTook := time.Since(openStart)
	runtime.GOMAXPROCS(procs)
	if err != nil {
		return fmt.Errorf("open phase: %w", err)
	}
	cpu1, err := sl.topo.cpuSnapshot()
	if err != nil {
		return err
	}
	heap1, err := sl.topo.heapSnapshot()
	if err != nil {
		return err
	}
	n1 := sl.correctSoFar()
	if n1 == n0 {
		return errors.New("open phase: no correct replies")
	}
	sl.reportLatency(opens)

	// Server CPU per correct reply at the fixed rate: the request count is the
	// same on every run, so only the cost can move the number.
	by, serverCPU := cpu1.since(cpu0)
	replies := float64(n1 - n0)
	res.set("server_cpu_us_per_req", serverCPU*1e6/replies, "us")
	// Heap objects and bytes the servers allocated per correct reply over the
	// same fixed-rate phase, background work (beats, refreshes) included.
	res.set("server_allocs_per_req", (heap1.objects-heap0.objects)/replies, "count")
	res.set("server_alloc_bytes_per_req", (heap1.bytes-heap0.bytes)/replies, "B")
	res.set("harvestd.cpu_us_per_req", by["primary"]*1e6/replies, "us")
	res.set("bench.client_cpu_us_per_req", by["bench"]*1e6/replies, "us")
	if sl.shadow != nil {
		res.set("harvestd.follower_cpu_us_per_req", by["follower"]*1e6/replies, "us")
		res.set("router.cpu_us_per_req", by["router"]*1e6/replies, "us")
		if err := fleetExtras(res, sl.topo, sl.shadow); err != nil {
			return err
		}
	}

	// Throughput. On storage_refresh there is no closed loop, and qps is what
	// the fixed offered rate achieved: it can fall below the rate, never rise
	// above it.
	took := openTook
	if openDur < total {
		closedStart := time.Now()
		err = sl.both(func(_ int, c *client) error { return c.runClosed(total-openDur, closedDepth) })
		took = time.Since(closedStart)
		if err != nil {
			return fmt.Errorf("closed phase: %w", err)
		}
		cpu2, err := sl.topo.cpuSnapshot()
		if err != nil {
			return err
		}
		n2 := sl.correctSoFar()
		if n2 == n1 {
			return errors.New("closed phase: no correct replies")
		}
		_, serverCPU = cpu2.since(cpu1)
		replies = float64(n2 - n1)
	}
	res.set("qps", replies/took.Seconds(), "req/s")
	res.set("bench.server_cpu_at_qps_us_per_req", serverCPU*1e6/replies, "us")

	// Peak memory as the measured phases end: the same point of every run. (On
	// storage_refresh the wait for the repair that follows is as long as the
	// seed's wave is large, and its refreshes would raise the mark unevenly.)
	var rss float64
	for _, p := range sl.topo.servers() {
		mb, err := p.rssPeakMB()
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		rss += mb
	}
	res.set("rss_peak_mb", rss, "MB")
	return nil
}

// reportLatency reports the open phase: every request's latency from its due
// time, and how late the generator itself ran.
func (sl *slice) reportLatency(opens []openResult) {
	var latUs, lateUs []float64
	for _, o := range opens {
		latUs = append(latUs, o.latUs...)
		lateUs = append(lateUs, o.lateUs...)
	}
	sort.Float64s(latUs)
	sort.Float64s(lateUs)
	res := sl.res
	res.set("lat_p50_us", quantile(latUs, 0.50), "us")
	res.set("lat_p99_us", quantile(latUs, 0.99), "us")
	if q, ok := highestSupported(len(latUs)); ok {
		res.set("bench.lat_pmax_us", quantile(latUs, q), "us")
		res.Info["lat_pmax_percentile"] = strconv.FormatFloat(q*100, 'g', -1, 64)
	}
	res.set("bench.late_p99_us", quantile(lateUs, 0.99), "us")
	res.Info["lat_samples_per_slice"] = strconv.Itoa(len(latUs))
}

// checkBooks is the correctness gate after the load: drain every lease, then
// read the conservation books from the node's public /metrics; on
// storage_refresh also wait out the repair and restart the daemon.
func (sl *slice) checkBooks() error {
	res := sl.res
	if sl.storage != nil {
		if err := sl.storage.finish(res); err != nil {
			return err
		}
	}
	all := append(sl.clients, sl.control)
	for _, c := range all {
		if err := c.drain(); err != nil {
			return fmt.Errorf("lease drain: %w", err)
		}
	}
	books, err := fetchBooks(sl.topo.primaryURL, benchDC)
	if err != nil {
		return err
	}
	res.check("lease and block books conserved", books.conserved())
	res.check("no leases outstanding after drain", books.drained())
	if sl.storage != nil {
		res.check("no block below R after repair", books.repaired())
		var dirty error
		if books.RefreshErrors != 0 || books.PersistErrors != 0 {
			dirty = fmt.Errorf("%d refresh errors, %d persist errors", books.RefreshErrors, books.PersistErrors)
		}
		res.check("every refresh and persist succeeded", dirty)
		res.Info["refreshes_per_slice"] = strconv.FormatUint(books.Refreshes, 10)
		res.Info["blocks"] = strconv.FormatInt(books.Blocks.Blocks, 10)
		if err := sl.e.restart(res, sl.topo, books); err != nil {
			return err
		}
	}
	for _, c := range all {
		res.Attempted += c.tally.attempted
		res.Failed += c.tally.failed
		res.Conflicts += c.tally.conflicts
		if res.FirstErr == "" {
			res.FirstErr = c.tally.firstErr
		}
	}
	if sl.storage != nil {
		// A conflict is a valid answer only as the exception it is today (at
		// most one or two creates per refresh that loses its CPU mid-publish).
		var often error
		if res.Conflicts*1000 > res.Attempted {
			often = fmt.Errorf("%d of %d requests were block creates turned away as racing a refresh", res.Conflicts, res.Attempted)
		}
		res.check("create conflicts are the exception (under 0.1%)", often)
	}
	var failed error
	if res.Failed > 0 {
		failed = fmt.Errorf("%d of %d requests failed, first: %s", res.Failed, res.Attempted, res.FirstErr)
	}
	res.check("every reply arrived and passed validation", failed)
	return nil
}

// fleetExtras adds fleet_routed's topology-specific numbers: what the shadow
// follower saw and how the router spread the reads.
func fleetExtras(res *result, topo *topology, shadow *shadowFollower) error {
	st, err := shadow.stats()
	if err != nil {
		return err
	}
	res.set("repl_kb_per_s", st.kbPerS, "kB/s")
	res.set("service.repl.beat_bytes", st.beatBytes, "B")
	res.set("service.repl.ship_lag_us", st.lagUs, "us")
	res.set("service.repl.beats_per_s", st.beatsPerS, "1/s")
	var m routerMetrics
	if err := getJSON(topo.routerURL+"/metrics", &m); err != nil {
		return err
	}
	p, f := m.Router.Backends["primary"], m.Router.Backends["follower"]
	if p.Reads+f.Reads > 0 {
		res.set("router.read_share_follower", float64(f.Reads)/float64(p.Reads+f.Reads), "ratio")
	}
	return nil
}

// restart is storage_refresh's last act: SIGTERM the daemon (it persists on
// the way out), exec it again on the same -persist directory, and require the
// books it comes back with to equal the books it went down with.
func (e *env) restart(res *result, topo *topology, before dcBooks) error {
	topo.primary.stop(10 * time.Second)
	start := time.Now()
	var err error
	for attempt := 1; ; attempt++ {
		topo.primary, err = topo.group.start("primary", filepath.Join(e.binDir, "harvestd"), topo.primaryLog, topo.primaryArgs...)
		if err != nil {
			return err
		}
		_, err = waitServing(time.Now().Add(60*time.Second), topo.primary, topo.primaryURL, benchDC)
		if err == nil {
			break
		}
		// The same addresses again, so a passer-by holding one is waited out.
		if attempt == 3 || !errors.Is(err, errExitedEarly) {
			return err
		}
		fmt.Fprintln(os.Stderr, "harvestbench: restarting again:", err)
	}
	after, err := fetchBooks(topo.primaryURL, benchDC)
	if err != nil {
		return err
	}
	res.set("restart_s", time.Since(start).Seconds(), "s")
	res.check("books equal across restart", before.sameState(after))
	res.check("books conserved after restart", after.conserved())
	return nil
}
