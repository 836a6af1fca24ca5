// Serving-side microbenchmarks: the in-process cost of the three snapshot
// operations the HTTP API fans into. `bash bench/run.sh -trace 1`
// (BENCHMARK.json's service.* layer metrics) times the same operations inside
// the end-to-end workloads, which add the transport on top of these.
package service_test

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"harvest/internal/core"
	"harvest/internal/experiments"
	"harvest/internal/obs"
	"harvest/internal/service"
	"harvest/internal/tenant"
	"harvest/internal/timeseries"
	"harvest/internal/wire"
)

// BenchmarkServiceSelect measures concurrent class selection through the
// snapshot layer (pooled RNGs, shared immutable usage view).
func BenchmarkServiceSelect(b *testing.B) {
	svc := newTestService(b)
	job := core.JobRequest{Type: core.JobMedium, MaxConcurrentCores: 8}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, _, err := svc.Select("DC-9", job); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkServiceSelectReserveRelease measures the reserving query path:
// each iteration runs class selection, CASes a reservation into the
// allocation ledger, and releases it — the full select → hold → release
// cycle minus the hold.
func BenchmarkServiceSelectReserveRelease(b *testing.B) {
	svc := newTestService(b)
	job := core.JobRequest{Type: core.JobMedium, MaxConcurrentCores: 8}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			grant, _, err := svc.SelectReserve("DC-9", job, -1)
			if err != nil {
				b.Fatal(err)
			}
			if grant.Reserved() {
				if _, err := svc.Release("DC-9", grant.Lease); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkServicePlace measures concurrent replica placement through the
// snapshot layer (pooled placement-scheme clones).
func BenchmarkServicePlace(b *testing.B) {
	svc := newTestService(b)
	c := core.PlacementConstraints{Replication: 3, Writer: -1, EnforceEnvironment: true}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, _, err := svc.Place("DC-9", c); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSnapshotSwap measures what a reader pays while snapshots are being
// published underneath it: parallel readers run class selection in a loop
// while the benchmark goroutine keeps republishing snapshots via Refresh.
// The interesting result is that the reader path costs the same as in
// BenchmarkServiceSelect — the swap is invisible to readers.
func BenchmarkSnapshotSwap(b *testing.B) {
	svc := newTestService(b)
	job := core.JobRequest{Type: core.JobShort, MaxConcurrentCores: 4}
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for !stop.Load() {
			if err := svc.Refresh("DC-9"); err != nil {
				b.Error(err)
				return
			}
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, _, err := svc.Select("DC-9", job); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	stop.Store(true)
	<-done
	snap, _ := svc.Snapshot("DC-9")
	b.ReportMetric(float64(snap.Generation), "generations")
}

// BenchmarkSnapshotBuild measures one full from-scratch snapshot rebuild
// (FFT classification of every tenant, K-Means, placement clustering) — the
// cost warm-started refreshes exist to avoid, forced here by a
// FullRebuildEvery of 1.
func BenchmarkSnapshotBuild(b *testing.B) {
	cfg := testConfig()
	cfg.FullRebuildEvery = 1
	svc, err := service.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := svc.Refresh("DC-9"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotRefreshWarm measures the steady-state refresh: a
// warm-started re-clustering (drift check + K-Means from previous centroids,
// no FFT for undrifted tenants) plus snapshot assembly. The ratio to
// BenchmarkSnapshotBuild is what the warm start saves (BENCHMARK.json:
// service.refresh_warm_ms against service.refresh_full_ms).
func BenchmarkSnapshotRefreshWarm(b *testing.B) {
	cfg := testConfig()
	cfg.FullRebuildEvery = -1 // measure the pure warm path; the backstop is benched above
	svc, err := service.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := svc.Refresh("DC-9"); err != nil {
			b.Fatal(err)
		}
	}
}

var sinkHistogram obs.Histogram

// BenchmarkHistogramObserve measures the per-request metrics cost.
func BenchmarkHistogramObserve(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkHistogram.Observe(12345)
	}
}

// forReplShapes runs f at each standing state the replication benchmarks
// cover: the benchmark's fleet load (6,000 leases) with a smaller and a larger
// lease count around it, each without blocks and with the storage load's
// 30,000.
func forReplShapes(b *testing.B, f func(b *testing.B, link *replLink)) {
	for _, leases := range []int{1_000, 6_000, 100_000} {
		for _, blocks := range []int{0, 30_000} {
			b.Run(fmt.Sprintf("leases=%d/blocks=%d", leases, blocks), func(b *testing.B) {
				f(b, loadedLink(b, leases, blocks))
			})
		}
	}
}

// BenchmarkReplBeatBuild measures the primary's side of a steady-state beat:
// one walk of each ledger under its shard locks, encoded straight into the
// reused frame buffer. allocs/op is the number the AllocsPerRun gate in
// TestReplBeatAllocationBudget pins; B/frame is what goes on the wire.
func BenchmarkReplBeatBuild(b *testing.B) {
	forReplShapes(b, func(b *testing.B, link *replLink) {
		var payload []byte
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, payload, _ = link.build(b)
		}
		b.ReportMetric(float64(len(payload)+wire.HeaderSize), "B/frame")
	})
}

// BenchmarkReplBeatApply measures the follower's side: decode the beat into
// the connection's long-lived message, then reconcile it into ledgers that
// already hold the same state — the steady state, where nothing is news.
func BenchmarkReplBeatApply(b *testing.B) {
	forReplShapes(b, func(b *testing.B, link *replLink) {
		_, payload, _ := link.build(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := link.follower.ApplyReplFrame(&link.ap, wire.OpReplBeat, payload); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// warmRefreshLoad is the state BenchmarkWarmRefresh and TestWarmRefreshAllocs
// refresh over: a persisting DC-9 holding the given number of R=3 blocks, warm
// refreshes only, and a telemetry feed shaped like the benchmark harness's:
// every tenant's trace utilization at the slot's offset plus seeded noise of
// the given deviation (the harness's is 0.02), so every ring has moved since
// the last refresh and, but for a peak the noise raises now and then, nobody
// has drifted.
type warmRefreshLoad struct {
	svc    *service.Service
	pop    *tenant.Population
	rng    *rand.Rand
	noise  float64
	offset time.Duration
	batch  []service.IngestSample
}

func newWarmRefreshLoad(tb testing.TB, scale float64, blocks int, noise float64) *warmRefreshLoad {
	tb.Helper()
	cfg := testConfig()
	cfg.Scale.Datacenter = scale
	cfg.PersistDir = tb.TempDir()
	cfg.FullRebuildEvery = -1
	svc, err := service.New(cfg)
	if err != nil {
		tb.Fatalf("New: %v", err)
	}
	tb.Cleanup(svc.Close)
	pop, _, err := experiments.BuildPopulation("DC-9", cfg.Scale)
	if err != nil {
		tb.Fatal(err)
	}
	c := core.PlacementConstraints{Replication: 3, Writer: -1, EnforceEnvironment: true}
	for i := 0; i < blocks; i++ {
		if _, err := svc.CreateBlock("DC-9", c); err != nil {
			tb.Fatalf("create block %d: %v", i, err)
		}
	}
	snap, _ := svc.Snapshot("DC-9")
	return &warmRefreshLoad{
		svc: svc, pop: pop,
		rng:    rand.New(rand.NewSource(7)),
		noise:  noise,
		offset: snap.AsOf + timeseries.SlotDuration,
		batch:  make([]service.IngestSample, len(pop.Tenants)),
	}
}

// slots ingests n telemetry slots.
func (l *warmRefreshLoad) slots(tb testing.TB, n int) {
	for ; n > 0; n-- {
		for i, t := range l.pop.Tenants {
			v := t.UtilizationAt(l.offset) + l.rng.NormFloat64()*l.noise
			l.batch[i] = service.IngestSample{Tenant: t.ID, Server: -1, At: l.offset, Value: math.Min(1, math.Max(0, v))}
		}
		if res, err := l.svc.Ingest("DC-9", l.batch); err != nil || res.Rejected != 0 {
			tb.Fatalf("ingest: %+v, %v", res, err)
		}
		l.offset += timeseries.SlotDuration
	}
}

func (l *warmRefreshLoad) refresh(tb testing.TB) {
	if err := l.svc.Refresh("DC-9"); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkWarmRefresh measures one warm refresh at the state the benchmark's
// storage_refresh workload reaches (DC-9 at scale 0.3, 36,000 blocks, a
// telemetry slot every 200 ms of a 1 s refresh period, persistence on): drift
// check of every ring, block re-validation, and all three files written.
// `go test -bench WarmRefresh -benchmem ./internal/service` is the local check
// that the refresh's garbage does not grow with the state it walks.
func BenchmarkWarmRefresh(b *testing.B) {
	l := newWarmRefreshLoad(b, 0.3, 36_000, 0.02)
	l.slots(b, 5)
	l.refresh(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		l.slots(b, 5)
		b.StartTimer()
		l.refresh(b)
	}
}
