package main

import (
	"bufio"
	"math"
	"net"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"harvest/internal/experiments"
	"harvest/internal/service"
	"harvest/internal/wire"
)

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		for conn := 0; conn < numConns; conn++ {
			a := streamDigest(7, conn, w.mix, 2000)
			if b := streamDigest(7, conn, w.mix, 2000); a != b {
				t.Errorf("%s conn %d: same seed gave digests %x and %x", w.name, conn, a, b)
			}
			if b := streamDigest(8, conn, w.mix, 2000); a == b {
				t.Errorf("%s conn %d: seeds 7 and 8 gave the same stream", w.name, conn)
			}
		}
		if streamDigest(7, 0, w.mix, 2000) == streamDigest(7, 1, w.mix, 2000) {
			t.Errorf("%s: both connections send the same stream", w.name)
		}
	}
}

func TestSchedDialectsShareOneLogicalStream(t *testing.T) {
	bin, js := workloadByName("sched_binary"), workloadByName("sched_json")
	if bin == nil || js == nil || bin.json || !js.json {
		t.Fatal("sched_binary must be the binary dialect and sched_json the JSON one")
	}
	if bin.mix != js.mix {
		t.Fatalf("mixes differ: %v vs %v", bin.mix, js.mix)
	}
	if a, b := streamDigest(3, 0, bin.mix, 5000), streamDigest(3, 0, js.mix, 5000); a != b {
		t.Fatalf("digests differ: %x vs %x", a, b)
	}
	// The same request encodes to the same operation in both dialects.
	r := request{Kind: opSelect, Job: wire.JobFromLastRun, Cores: 4, LastRun: 90}
	frame := appendBinaryRequest(nil, 1, benchDC, r, 0)
	var m wire.SelectReq
	if err := m.Decode(frame[wire.HeaderSize:]); err != nil || m.MaxCores != 4 || m.LastRunSeconds != 90 || m.Flags != 0 {
		t.Fatalf("binary select decoded to %+v (err %v)", m, err)
	}
	want := "POST /v1/DC-9/select HTTP/1.1\r\nHost: harvestd\r\nContent-Type: application/json\r\nContent-Length: 48\r\n\r\n" +
		`{"max_concurrent_cores":4,"last_run_seconds":90}`
	if got := string(appendJSONRequest(nil, benchDC, r, 0)); got != want {
		t.Fatalf("JSON select:\n got %q\nwant %q", got, want)
	}
}

func TestHighestSupportedPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false}, // only 9 samples above the median
		{20, 0.50, true},
		{99, 0.50, true},  // p90 would leave 9 beyond
		{100, 0.90, true}, // exactly 10 beyond p90
		{999, 0.90, true},
		{1000, 0.99, true},
		{10000, 0.999, true},
		{120000, 0.9999, true},
	}
	for _, c := range cases {
		got, ok := highestSupported(c.n)
		if ok != c.ok || got != c.want {
			t.Errorf("n=%d: got (%v, %v), want (%v, %v)", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestQuantileIsNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for q, want := range map[float64]float64{0.5: 5, 0.9: 9, 0.99: 10, 0: 1, 1: 10} {
		if got := quantile(s, q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
}

// In A/A both runs are noise: the gap must not depend on which run came first,
// and a value that cannot be compared must not pass.
func TestAAGapIsSymmetricAndRejectsZero(t *testing.T) {
	if fwd, rev := aaGap(100, 130, false), aaGap(130, 100, false); fwd != rev || math.Abs(fwd-0.30) > 1e-12 {
		t.Errorf("lower is better: gaps %v and %v, want 0.30 both ways", fwd, rev)
	}
	if fwd, rev := aaGap(100, 80, true), aaGap(80, 100, true); fwd != rev || math.Abs(fwd-0.20) > 1e-12 {
		t.Errorf("higher is better: gaps %v and %v, want 0.20 both ways", fwd, rev)
	}
	for _, pair := range [][2]float64{{0, 5}, {5, 0}, {0, 0}, {math.NaN(), 5}} {
		if gap := aaGap(pair[0], pair[1], false); gap <= 0.25 {
			t.Errorf("aaGap(%v, %v) = %v passes a 0.25 bound", pair[0], pair[1], gap)
		}
	}
}

func TestSelfTimeIsDurationMinusCoveredChildTime(t *testing.T) {
	spans := []span{
		{Name: "parent", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},  // overlaps a: the union [10,50) counts once
		{Name: "c", Start: 90, End: 120, Parent: 0}, // clipped to the parent's end
		{Name: "grandchild", Start: 22, End: 28, Parent: 2},
	}
	self := selfTimes(spans)
	want := []int64{100 - 40 - 10, 20, 30 - 6, 30, 6}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("%s: self %d, want %d", spans[i].Name, self[i], want[i])
		}
	}
	sum := summarize(spans)
	if sum["parent"].SelfMeanNs != 50 || sum["parent"].MeanNs != 100 || sum["b"].Count != 1 {
		t.Errorf("summary %+v", sum)
	}
}

func TestTracerOffAndFull(t *testing.T) {
	off := &tracer{}
	off.end(off.begin("x", -1, 0))
	if len(off.spans) != 0 {
		t.Fatal("a tracer that is off recorded a span")
	}
	tr := newTracer(1)
	tr.end(tr.begin("x", -1, 0))
	tr.end(tr.begin("y", -1, 0))
	if len(tr.spans) != 1 || tr.dropped != 1 {
		t.Fatalf("full tracer: %d spans, %d dropped", len(tr.spans), tr.dropped)
	}
}

func TestParseStatCPU(t *testing.T) {
	// comm contains spaces and a parenthesis; utime=150 stime=50 ticks.
	line := []byte("1234 (har vest) d) S 1 1234 1234 0 -1 4194560 100 0 0 0 150 50 0 0 20 0 9 0 100 1000 200 18446744073709551615")
	got, err := parseStatCPU(line)
	if err != nil || got != 2.0 {
		t.Fatalf("got %v, %v; want 2.0s", got, err)
	}
	if _, err := parseStatCPU([]byte("garbage")); err == nil {
		t.Fatal("garbage parsed")
	}
}

// stubServer answers every classes request with one class, and stalls once
// for stall before answering request number stallAt.
func stubServer(t *testing.T, stallAt int, stall time.Duration) string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		br := bufio.NewReader(c)
		var scratch, out []byte
		resp := wire.ClassesResp{Generation: 1, Classes: []wire.ClassRec{{ID: 0}}}
		for n := 0; ; n++ {
			h, _, err := wire.ReadFrame(br, &scratch)
			if err != nil {
				return
			}
			if n == stallAt {
				time.Sleep(stall)
			}
			out = wire.AppendClassesResp(out[:0], h.ID, &resp)
			if _, err := c.Write(out); err != nil {
				return
			}
		}
	}()
	return ln.Addr().String()
}

func TestOpenLoopTimesFromDueTimeThroughAStall(t *testing.T) {
	const (
		stall    = 50 * time.Millisecond
		interval = time.Millisecond
		dur      = 300 * time.Millisecond
		stallAt  = 100
	)
	addr := stubServer(t, stallAt, stall)
	c, err := dialClient(&target{addr: addr, dc: benchDC, classes: 1}, newStream(1, 0, mix{opClasses: 1}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	res, err := c.runOpen(time.Now(), dur, interval, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.tally.failed != 0 || c.tally.correct != uint64(dur/interval) {
		t.Fatalf("tally %+v, want %d correct", c.tally, dur/interval)
	}
	// The generator kept its schedule through the stall: it is an open loop.
	late := append([]float64(nil), res.lateUs...)
	sort.Float64s(late)
	if p50 := quantile(late, 0.5); p50 > 5000 {
		t.Errorf("generator lateness p50 %.0f µs: the writer waited for the server", p50)
	}
	if len(res.lateUs) != len(res.latUs) {
		t.Fatal("lateness must be reported for every request")
	}
	// Requests due during the stall inherit the rest of it: the one due as
	// the stall began waits ~50 ms, the one due 40 ms in still waits ~10 ms.
	delayed := 0
	for i, due := range res.dueS {
		dueIn := time.Duration(due*float64(time.Second)) - stallAt*interval // time into the stall
		if dueIn < 0 || dueIn > stall-10*time.Millisecond {
			continue
		}
		delayed++
		remaining := float64((stall - dueIn).Microseconds())
		if res.latUs[i] < remaining-3000 {
			t.Errorf("request due %v into the stall took %.0f µs; it should have inherited ≥ %.0f µs of it", dueIn, res.latUs[i], remaining)
		}
	}
	if delayed < 30 {
		t.Fatalf("only %d requests fell due during the stall", delayed)
	}
}

func TestClosedLoopWaitsForEveryReply(t *testing.T) {
	addr := stubServer(t, -1, 0)
	c, err := dialClient(&target{addr: addr, dc: benchDC, classes: 1}, newStream(1, 0, mix{opClasses: 1}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	if err := c.runClosed(100*time.Millisecond, 4); err != nil || c.tally.failed != 0 {
		t.Fatalf("err %v tally %+v", err, c.tally)
	}
	if n := c.tally.correct; n == 0 || n != c.tally.attempted || n%4 != 0 {
		t.Fatalf("tally %+v: the loop must finish whole pipeline windows", c.tally)
	}
}

// A block create the daemon turns away as racing a refresh is sent again, on
// the control path and on a measured connection alike, and counts as a
// conflict, not as a failure; any other error reply still fails.
func TestCreateConflictIsRetriedNotFailed(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		br := bufio.NewReader(c)
		var scratch, out []byte
		ok := wire.PlaceBlockResp{Generation: 1, Block: 1, Replicas: []int64{1, 2, 3}}
		for n := 0; ; n++ {
			h, _, err := wire.ReadFrame(br, &scratch)
			if err != nil {
				return
			}
			switch n {
			case 1, 5:
				out = wire.AppendErrorResp(out[:0], h.ID, 409, "service: DC-9: block create kept racing snapshot refreshes")
			case 7:
				out = wire.AppendErrorResp(out[:0], h.ID, 409, "core: no eligible server")
			default:
				out = wire.AppendPlaceBlockResp(out[:0], h.ID, &ok)
			}
			if _, err := c.Write(out); err != nil {
				return
			}
		}
	}()
	c, err := dialClient(&target{addr: ln.Addr().String(), dc: benchDC}, newStream(1, 0, mix{opPlaceBlock: 1}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	if err := c.control(request{Kind: opPlaceBlock}, make([]uint64, 3)); err != nil {
		t.Fatal(err)
	}
	if got, want := c.tally, (tally{attempted: 4, correct: 3, conflicts: 1}); got != want {
		t.Fatalf("control path: tally %+v, want %+v", got, want)
	}
	// Requests 4..7 of the connection: the conflict on 5 turns 6 into its retry.
	for c.tally.attempted < 8 {
		if err := c.roundTrip([]pending{c.enqueue()}); err != nil {
			t.Fatal(err)
		}
	}
	want := tally{attempted: 8, correct: 5, conflicts: 2, failed: 1, firstErr: "place_block: error frame 409: core: no eligible server"}
	if c.tally != want || c.retries != 0 {
		t.Fatalf("measured path: tally %+v retries %d, want %+v and none pending", c.tally, c.retries, want)
	}
}

// testEnv is a harness environment at a scale small enough for unit tests.
func testEnv(t *testing.T) *env {
	t.Helper()
	e := &env{outDir: t.TempDir(), scale: 0.05, seed: 1}
	var err error
	if e.pop, _, err = experiments.BuildPopulation(benchDC, experiments.Scale{Datacenter: e.scale, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	for _, id := range e.pop.ServerIDs() {
		e.servers = append(e.servers, int64(id))
	}
	return e
}

// TestTraceChainsSmoke replays 200 requests of every workload's stream
// through the in-process chains: every request must succeed, every layer the
// workload is said to exercise must show up as spans, and the service's books
// must balance afterwards. No daemon is built or run.
func TestTraceChainsSmoke(t *testing.T) {
	e := testEnv(t)
	svc, err := service.New(e.serviceConfig(""))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	wantSpans := map[string][]string{
		"sched_binary":    {"request", "wire.decode_req", "service.select_reserve", "service.release", "core.select_indexed", "ledger.reserve", "ledger.release"},
		"sched_json":      {"request", "service.http.select", "service.http.release", "core.select_indexed", "ledger.reserve"},
		"fleet_routed":    {"request", "service.place", "service.select", "core.place_replicas", "core.select_indexed"},
		"storage_refresh": {"request", "service.create_block", "service.place", "core.place_replicas", "blockledger.create"},
	}
	for _, w := range workloads {
		tr := newTracer(200 * 12)
		rp, err := newReplayer(tr, svc, e.servers, e.seed)
		if err != nil {
			t.Fatal(err)
		}
		rp.run(newStream(e.seed, 0, w.mix), 200, w.json)
		if rp.tally.failed != 0 || rp.tally.correct != 200 {
			t.Errorf("%s: tally %+v", w.name, rp.tally)
		}
		if err := rp.drain(); err != nil {
			t.Errorf("%s: drain: %v", w.name, err)
		}
		sum := summarize(tr.spans)
		for _, name := range wantSpans[w.name] {
			if sum[name].Count == 0 {
				t.Errorf("%s: no %s span", w.name, name)
			}
		}
		if tr.dropped != 0 {
			t.Errorf("%s: %d spans dropped", w.name, tr.dropped)
		}
		for _, s := range tr.spans {
			if s.End < s.Start || (s.Parent >= 0 && tr.spans[s.Parent].Req != s.Req) {
				t.Fatalf("%s: malformed span %+v", w.name, s)
			}
		}
	}
	st, _ := svc.Stats(benchDC)
	l := st.Ledger
	if l.ActiveLeases != 0 || l.ReservedMillis != l.ReleasedMillis+l.ExpiredMillis+l.ForfeitedMillis+l.OutstandingMillis {
		t.Errorf("lease books after the replays: %+v", l)
	}
	if b := st.Blocks; b.Placed+b.Pending != b.ReplicaSlots {
		t.Errorf("block books after the replays: %+v", b)
	}
}

// TestBenchmarkFileNamesWhatTheHarnessMeasures keeps BENCHMARK.json and the
// harness from drifting apart: its workloads are the harness's, its end-to-end
// metrics are ones every workload reports, and every per-layer metric is one
// the layer suite, the chain replay or the end-to-end run actually sets.
func TestBenchmarkFileNamesWhatTheHarnessMeasures(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Skip(err) // built outside a checkout
	}
	bench, err := loadBenchmarkFile(root)
	if err != nil {
		t.Fatal(err)
	}
	endToEnd := map[string]bool{"setup_s": true, "server_allocs_per_req": true, "server_alloc_bytes_per_req": true, "rss_peak_mb": true}
	for _, name := range bench.endToEndNames() {
		if !endToEnd[name] {
			t.Errorf("end_to_end metric %s is not reported by every workload", name)
		}
	}
	if testing.Short() {
		return
	}
	// Every workload's end-to-end run sets these per-layer numbers.
	measured := map[string]bool{
		"qps": true, "lat_p50_us": true, "lat_p99_us": true, "server_cpu_us_per_req": true, "bench.server_cpu_at_qps_us_per_req": true,
		"harvestd.cpu_us_per_req": true, "bench.client_cpu_us_per_req": true,
		"bench.late_p99_us": true, "bench.lat_pmax_us": true, "bench.build_s": true, "fail_ratio": true, "service.create_conflicts": true,
	}
	e := testEnv(t)
	res := &result{Workload: "sched_binary", Metrics: map[string]metric{}, Info: map[string]string{}}
	if err := e.runLayerSuite(res); err != nil {
		t.Fatal(err)
	}
	if err := e.traceWorkload(workloadByName("sched_binary"), res); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(e.outDir, "trace-sched_binary.json")); err != nil {
		t.Errorf("no trace file: %v", err)
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s = %v", name, m.Value)
		}
		measured[name] = true
	}
	for _, name := range bench.perLayerNames() {
		if !measured[name] {
			t.Errorf("per_layer metric %s is not measured by the traced run", name)
		}
	}
}
