// Command harvestbench is the repository's benchmark: one command that boots
// the real daemons (harvestd, harvestrouter) as subprocesses, drives four
// fleet workloads at them from one process over two connections, checks every
// reply and the conservation books, and prints every metric by name with its
// unit. A second mode (-trace 1) measures the layers from outside the program:
// it calls each internal package's public functions directly, records a span
// around each call, and writes a trace file. See bench/README.md.
//
// Usage (from the checkout root; bench/run.sh builds and execs this):
//
//	bash bench/run.sh                               every workload, end to end
//	bash bench/run.sh -trace 1                      every workload, per-layer traced run
//	bash bench/run.sh -aa                           the end-to-end set twice, with the gap per metric
//	bash bench/run.sh -workload sched_binary -seed 7 -seconds 10 -trace 0
//	                                                one run in the driver's contract: the last
//	                                                stdout line is one JSON object
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"harvest/internal/experiments"
)

// environment is the recorded context of a run: numbers from two boxes are
// not comparable, and this says which box.
type environment struct {
	NProc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	Kernel       string  `json:"kernel"`
	SharedCores  string  `json:"client_and_servers_shared_cores"`
	Scale        float64 `json:"dataset_scale"`
	Servers      int     `json:"dataset_servers"`
	Tenants      int     `json:"dataset_tenants"`
	Seed         int64   `json:"seed"`
	Seconds      float64 `json:"seconds"`
	BuildSeconds float64 `json:"build_s"`
}

// report is bench/out/results.json.
type report struct {
	Environment environment `json:"environment"`
	Results     []*result   `json:"results"`
}

func main() {
	workloadName := flag.String("workload", "", "run only this workload (default: all four)")
	seed := flag.Int64("seed", 1, "seed of the generated request inputs; the dataset and the daemons' own seed stay fixed")
	seconds := flag.Float64("seconds", 10, "measured seconds per workload, split over three boots (each: open loop 60%, closed loop 40%)")
	trace := flag.Int("trace", 0, "1 = the per-layer traced run (in-process spans), 0 = the end-to-end run")
	aa := flag.Bool("aa", false, "run the end-to-end set twice on the same build and seed and compare against the bounds")
	flag.Parse()
	if err := run(*workloadName, *seed, *seconds, *trace == 1, *aa); err != nil {
		fmt.Fprintln(os.Stderr, "harvestbench:", err)
		os.Exit(1)
	}
}

func run(workloadName string, seed int64, seconds float64, traced, aa bool) error {
	if seconds < 1 {
		return errors.New("-seconds must be at least 1")
	}
	selected := workloads
	if workloadName != "" {
		w := workloadByName(workloadName)
		if w == nil {
			return fmt.Errorf("unknown workload %q", workloadName)
		}
		selected = []workload{*w}
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	bench, err := loadBenchmarkFile(root)
	if err != nil {
		return err
	}
	e := &env{
		binDir:  filepath.Join(root, ".bench_build", "bin"),
		outDir:  filepath.Join(root, "bench", "out"),
		scale:   benchScale,
		seed:    seed,
		seconds: seconds,
	}
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return err
	}
	build, err := buildDaemons(root, e.binDir)
	if err != nil {
		return err
	}
	if e.pop, _, err = experiments.BuildPopulation(benchDC, experiments.Scale{Datacenter: e.scale, Seed: 1}); err != nil {
		return err
	}
	for _, id := range e.pop.ServerIDs() {
		e.servers = append(e.servers, int64(id))
	}
	sort.Slice(e.servers, func(i, j int) bool { return e.servers[i] < e.servers[j] })

	// A signal takes the daemons and their scratch directories down before
	// the harness exits.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		e.killChildren()
		for _, pattern := range []string{"persist-*", "layers-*"} {
			dirs, _ := filepath.Glob(filepath.Join(e.outDir, pattern))
			for _, dir := range dirs {
				os.RemoveAll(dir)
			}
		}
		os.Exit(1)
	}()

	rep := &report{Environment: environment{
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		Kernel:       kernelRelease(),
		SharedCores:  "yes",
		Scale:        e.scale,
		Servers:      len(e.servers),
		Tenants:      len(e.pop.Tenants),
		Seed:         seed,
		Seconds:      seconds,
		BuildSeconds: build.Seconds(),
	}}

	if aa {
		return e.runAA(selected, rep, bench)
	}
	if err := e.runSet(selected, rep, traced); err != nil {
		return err
	}
	file, names := "results.json", bench.endToEndNames()
	if traced {
		file, names = "results-traced.json", bench.perLayerNames()
	}
	if err := writeJSON(filepath.Join(e.outDir, file), rep); err != nil {
		return err
	}
	if workloadName != "" {
		// The driver's contract: the verdict travels in the result object.
		return printContractLine(rep.Results[0], names)
	}
	return rep.gate()
}

// runSet runs each workload end to end — and, traced, also the in-process
// layer suite and the chain replay that writes bench/out/trace-<workload>.json
// — printing `workload name value unit` per metric as it goes. End-to-end
// metrics are never read from a traced run: it exists for the per-layer ones.
// Nothing in the layer suite depends on the workload, so it runs once and
// every workload's result carries its numbers.
func (e *env) runSet(selected []workload, rep *report, traced bool) error {
	var suite *result
	for i := range selected {
		w := &selected[i]
		started := time.Now()
		res, err := e.runWorkload(w)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		res.set("bench.build_s", rep.Environment.BuildSeconds, "s")
		if traced {
			if suite == nil {
				suite = &result{Metrics: map[string]metric{}}
				if err := e.runLayerSuite(suite); err != nil {
					return fmt.Errorf("layer suite: %w", err)
				}
			}
			for name, m := range suite.Metrics {
				res.Metrics[name] = m
			}
			if err := e.traceWorkload(w, res); err != nil {
				return fmt.Errorf("%s: chain replay: %w", w.name, err)
			}
		}
		rep.Results = append(rep.Results, res)
		printResult(res)
		fmt.Printf("%s ran in %.1fs: %d attempted, %d failed, %d create conflicts retried, %d checks passed, %d violated\n",
			w.name, time.Since(started).Seconds(), res.Attempted, res.Failed, res.Conflicts, len(res.Checks), len(res.Violations))
	}
	return nil
}

// gate is the correctness gate of a whole command: any workload with a failed
// request or a violated check fails it.
func (rep *report) gate() error {
	var bad []string
	for _, res := range rep.Results {
		if !res.correct() {
			bad = append(bad, res.Workload+": "+strings.Join(res.Violations, "; "))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("correctness gate: %s", strings.Join(bad, " | "))
	}
	return nil
}

// printResult prints one workload's metrics, one per line, by name.
func printResult(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("%s %s %.6g %s\n", res.Workload, name, m.Value, m.Unit)
	}
}

// printContractLine prints the driver's result object as the last line of
// stdout: exactly the named metrics, each with all its digits.
func printContractLine(res *result, names []string) error {
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: res.correct(), Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metric{}}
	// Why a run is incorrect goes to stderr, where whoever reads the verdict
	// can find it.
	for _, v := range res.Violations {
		fmt.Fprintf(os.Stderr, "harvestbench: %s: violated: %s\n", res.Workload, v)
	}
	if res.Conflicts > 0 {
		fmt.Fprintf(os.Stderr, "harvestbench: %s: %d block creates were turned away as racing a refresh and sent again\n", res.Workload, res.Conflicts)
	}
	for _, name := range names {
		m, ok := res.Metrics[name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", res.Workload, name)
		}
		out.Metrics[name] = m
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func kernelRelease() string {
	data, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(data))
}
