// Package harvest_test holds the benchmark harness that regenerates every
// table and figure of the paper's evaluation (see DESIGN.md for the package
// index and the benchmark-to-figure mapping). Each benchmark runs the
// corresponding experiment at a small scale and reports the headline metric
// via b.ReportMetric so `go test -bench` output doubles as the results table.
// The simulators' hot loops are benchmarked in the packages that own them
// (internal/simulator, internal/hdfssim, internal/yarnsim); the serving stack's
// numbers come from BENCHMARK.json / `bash bench/run.sh`.
package harvest_test

import (
	"testing"
	"time"

	"harvest/internal/core"
	"harvest/internal/experiments"
	"harvest/internal/hdfssim"
	"harvest/internal/timeseries"
	"harvest/internal/yarnsim"
)

func benchScale() experiments.Scale {
	return experiments.Scale{Datacenter: 0.05, Blocks: 0.002, Workload: 0.1, Seed: 1}
}

func BenchmarkFigure1Characterization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := experiments.Figure1(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if len(results) != 2 {
			b.Fatal("unexpected result count")
		}
	}
}

func BenchmarkFigure2And3ClassShares(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure2And3(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 10 {
			b.Fatal("expected ten datacenters")
		}
	}
}

func BenchmarkFigure4ServerReimageCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure4(benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure5TenantReimageCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure5(benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure6GroupChangeCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure6(benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure7ConcurrencyEstimate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Figure7()
		if res.MaxConcurrentTasks != 469 {
			b.Fatalf("max concurrent = %d", res.MaxConcurrentTasks)
		}
	}
}

func BenchmarkFigure8PlacementScheme(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure8(benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure10And11Testbed(b *testing.B) {
	var last []experiments.TestbedResult
	for i := 0; i < b.N; i++ {
		results, err := experiments.Figure10And11(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		last = results
	}
	reportTestbed(b, last)
}

func BenchmarkFigure12StorageTestbed(b *testing.B) {
	var last []experiments.TestbedResult
	for i := 0; i < b.N; i++ {
		results, err := experiments.Figure12(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		last = results
	}
	for _, r := range last {
		if r.System == hdfssim.PolicyHistory.String() {
			b.ReportMetric(float64(r.FailedAccesses), "hdfs-h-failed-accesses")
		}
		if r.System == hdfssim.PolicyStock.String() {
			b.ReportMetric(float64(r.AvgTailLatency)/1e6, "hdfs-stock-tail-ms")
		}
	}
}

func reportTestbed(b *testing.B, results []experiments.TestbedResult) {
	b.Helper()
	for _, r := range results {
		switch r.System {
		case yarnsim.PolicyPT.String():
			b.ReportMetric(r.AvgJobRuntime.Seconds(), "yarn-pt-runtime-s")
			b.ReportMetric(float64(r.TasksKilled), "yarn-pt-kills")
		case yarnsim.PolicyHistory.String():
			b.ReportMetric(r.AvgJobRuntime.Seconds(), "yarn-h-runtime-s")
			b.ReportMetric(float64(r.TasksKilled), "yarn-h-kills")
			b.ReportMetric(float64(r.AvgTailLatency)/1e6, "yarn-h-tail-ms")
		case "No Harvesting":
			b.ReportMetric(float64(r.AvgTailLatency)/1e6, "baseline-tail-ms")
		}
	}
}

func BenchmarkFigure13UtilizationSweep(b *testing.B) {
	cfg := experiments.DefaultFigure13Config()
	cfg.Utilizations = []float64{0.45}
	cfg.Scalings = []timeseries.ScalingMethod{timeseries.ScaleLinear}
	cfg.Horizon = 6 * time.Hour
	var last []experiments.UtilizationSweepPoint
	for i := 0; i < b.N; i++ {
		points, err := experiments.Figure13(benchScale(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = points
	}
	if len(last) > 0 {
		b.ReportMetric(100*last[0].Improvement, "runtime-improvement-pct")
		b.ReportMetric(float64(last[0].PTKills), "pt-kills")
		b.ReportMetric(float64(last[0].HistoryKills), "h-kills")
	}
}

func BenchmarkFigure14PerDatacenterImprovement(b *testing.B) {
	cfg := experiments.DefaultFigure13Config()
	cfg.Utilizations = []float64{0.45}
	cfg.Scalings = []timeseries.ScalingMethod{timeseries.ScaleLinear}
	cfg.Horizon = 4 * time.Hour
	var last []experiments.Figure14Row
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure14(benchScale(), cfg, []string{"DC-1", "DC-9"})
		if err != nil {
			b.Fatal(err)
		}
		last = rows
	}
	if len(last) > 0 {
		b.ReportMetric(100*last[0].AvgImprovement, "dc1-avg-improvement-pct")
	}
}

func BenchmarkFigure15Durability(b *testing.B) {
	cfg := experiments.DefaultFigure15Config()
	cfg.Datacenters = []string{"DC-3"}
	cfg.Replications = []int{3}
	s := benchScale()
	s.Datacenter = 0.1
	s.Blocks = 0.005
	var last []experiments.DurabilityRow
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure15(s, cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = rows
	}
	for _, r := range last {
		switch r.Policy {
		case hdfssim.PolicyStock:
			b.ReportMetric(float64(r.LostBlocks), "stock-lost-blocks")
		case hdfssim.PolicyHistory:
			b.ReportMetric(float64(r.LostBlocks), "hdfs-h-lost-blocks")
		}
	}
}

func BenchmarkFigure16Availability(b *testing.B) {
	cfg := experiments.DefaultFigure16Config()
	cfg.Utilizations = []float64{0.55}
	cfg.Replications = []int{3}
	var last []experiments.AvailabilityRow
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure16(benchScale(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = rows
	}
	for _, r := range last {
		switch r.Policy {
		case hdfssim.PolicyStock:
			b.ReportMetric(100*r.FailedFraction, "stock-failed-pct")
		case hdfssim.PolicyHistory:
			b.ReportMetric(100*r.FailedFraction, "hdfs-h-failed-pct")
		}
	}
}

// §6.2 microbenchmarks: the individual operation costs of the clustering
// service, class selection, and replica placement.

func BenchmarkClusteringService(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Microbench(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Classes), "classes")
	}
}

func BenchmarkClassSelection(b *testing.B) {
	res, err := experiments.Microbench(benchScale())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(res.ClassSelectionDuration)/1e3, "class-selection-us")
	for i := 0; i < b.N; i++ {
		_ = core.ClassifyLength(200*time.Second, core.DefaultLengthThresholds())
	}
}

func BenchmarkReplicaPlacement(b *testing.B) {
	res, err := experiments.Microbench(benchScale())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(res.PlacementDuration)/1e6, "placement-ms")
	b.ReportMetric(res.PlacementAllocsPerOp, "placement-allocs/op")
	for i := 0; i < b.N; i++ {
		_ = experiments.Figure7()
	}
}

// Ablation benches for the design choices DESIGN.md calls out.

func BenchmarkAblationEnvConstraint(b *testing.B) {
	var last *experiments.AblationResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationEnvironmentConstraint(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	if last != nil {
		b.ReportMetric(100*last.Default, "strict-lost-pct")
		b.ReportMetric(100*last.Variant, "relaxed-lost-pct")
	}
}

func BenchmarkAblationReserve(b *testing.B) {
	var last *experiments.AblationResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationReserve(benchScale(), 2)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	if last != nil {
		b.ReportMetric(last.Default, "kills-reserve4")
		b.ReportMetric(last.Variant, "kills-reserve2")
	}
}
