package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// benchmarkFile is BENCHMARK.json, the one definition of which metrics the
// benchmark reports and how far each end-to-end metric may worsen. The
// harness reads the names and bounds from it instead of repeating them.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(root string) (*benchmarkFile, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(b.EndToEnd) == 0 || len(b.PerLayer) == 0 {
		return nil, errors.New("BENCHMARK.json lists no metrics")
	}
	return &b, nil
}

func (b *benchmarkFile) endToEndNames() []string {
	names := make([]string, len(b.EndToEnd))
	for i, m := range b.EndToEnd {
		names[i] = m.Name
	}
	return names
}

func (b *benchmarkFile) perLayerNames() []string {
	names := make([]string, len(b.PerLayer))
	for i, m := range b.PerLayer {
		names[i] = m.Name
	}
	return names
}

// runAA is the A/A self-check: the same end-to-end set twice on one build and
// one seed. For every end-to-end metric it prints both values, the gap and the
// bound; a gap over the bound is unresolved — the benchmark cannot tell that
// metric's noise from a regression — and fails the command.
func (e *env) runAA(selected []workload, rep *report, bench *benchmarkFile) error {
	var runs [2]*report
	for i := range runs {
		runs[i] = &report{Environment: rep.Environment}
		fmt.Printf("--- A/A run %d of 2 ---\n", i+1)
		if err := e.runSet(selected, runs[i], false); err != nil {
			return err
		}
		if err := runs[i].gate(); err != nil {
			return err
		}
	}
	unresolved := 0
	fmt.Println("--- A/A: workload metric first second gap bound verdict ---")
	for k, first := range runs[0].Results {
		second := runs[1].Results[k]
		for _, m := range bench.EndToEnd {
			a, b := first.Metrics[m.Name].Value, second.Metrics[m.Name].Value
			gap := aaGap(a, b, m.Better == "higher")
			verdict := "ok"
			if !(gap <= m.Bound) {
				verdict = "unresolved"
				unresolved++
			}
			fmt.Printf("%s %s %.6g %.6g %.4f %.2f %s\n", first.Workload, m.Name, a, b, gap, m.Bound, verdict)
		}
	}
	rep.Results = append(runs[0].Results, runs[1].Results...)
	if err := writeJSON(filepath.Join(e.outDir, "results-aa.json"), rep); err != nil {
		return err
	}
	if unresolved > 0 {
		return fmt.Errorf("A/A: %d end-to-end metrics differ by more than their bound between two runs of the same code", unresolved)
	}
	return nil
}

// aaGap is how far apart two runs of the same code are: how much worse the
// worse value is than the better one, as a share of the better one — what the
// bound would see if the better run were the parent. Both runs are noise, so
// either may be the worse. A zero, negative or missing value gives NaN, which
// no bound admits.
func aaGap(a, b float64, higherIsBetter bool) float64 {
	lo, hi := math.Min(a, b), math.Max(a, b)
	if !(lo > 0) {
		return math.NaN()
	}
	if higherIsBetter {
		return (hi - lo) / hi
	}
	return (hi - lo) / lo
}
