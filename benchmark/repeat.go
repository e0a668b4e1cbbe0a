package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the repeatability report
// and the tests read.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// readBenchmarkFile finds BENCHMARK.json from the checkout root or from
// the benchmark directory.
func readBenchmarkFile() (*benchmarkFile, error) {
	var raw []byte
	var err error
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		if raw, err = os.ReadFile(p); err == nil {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// runOnce runs one workload in a fresh process, as the driver does, and
// returns its end-to-end metrics.
func runOnce(workload string, seed int64, seconds int) (map[string]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res jsonResult
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line is not a result: %w", workload, seed, err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("%s seed %d: %d of %d operations failed", workload, seed, res.Failed, res.Attempted)
	}
	vals := make(map[string]float64, len(res.Metrics))
	for name, m := range res.Metrics {
		vals[name] = m.Value
	}
	return vals, nil
}

// exactCounts are functions of the seed alone on the serial workloads.
var exactCounts = map[string]bool{
	"reads_per_frame": true, "dist_comps_per_frame": true, "write_amp": true, "stored_bytes_per_segment": true,
}

// repeatability runs two sets of runs per workload on the same list of
// seeds, alternating between the sets so both see the same drift of the
// machine, and prints for each metric and workload what the acceptance
// rule looks at: each set's median and quartiles, the spread across seeds
// (interquartile range over median, shown only) and how much worse the
// second median is than the first, against the metric's bound. The two sets run the
// same inputs, so a count that differs between them is a harness bug. It
// also writes results/baseline.json.
func repeatability(seed int64, seconds int) error {
	const runs = 5 // in each of the two sets
	bf, err := readBenchmarkFile()
	if err != nil {
		return err
	}
	type cell struct{ a, b []float64 }
	table := map[string]map[string]*cell{}
	for _, w := range bf.Workloads {
		table[w.Name] = map[string]*cell{}
		for i := 0; i < runs; i++ {
			for set := 0; set < 2; set++ {
				vals, err := runOnce(w.Name, seed+int64(i), seconds)
				if err != nil {
					return err
				}
				// One line per run, so a long session that is cut short
				// still leaves its measurements behind.
				line, _ := json.Marshal(map[string]any{"workload": w.Name, "set": set, "seed": seed + int64(i), "metrics": vals})
				fmt.Fprintln(os.Stderr, string(line))
				for name, v := range vals {
					c := table[w.Name][name]
					if c == nil {
						c = &cell{}
						table[w.Name][name] = c
					}
					if set == 0 {
						c.a = append(c.a, v)
					} else {
						c.b = append(c.b, v)
					}
				}
			}
		}
	}

	fmt.Printf("# Repeatability: two alternating sets of %d runs on seeds %d to %d, %d s each\n\n", runs, seed, seed+int64(runs)-1, seconds)
	fmt.Printf("%s, %d CPUs, revision %s. gap = how much worse the second set's median is than the first's.\n", runtime.Version(), runtime.NumCPU(), revision())
	fmt.Printf("PASS = gap ≤ bound, and on the serial workloads the four counts equal run for run. spread = (Q3−Q1)/median\n")
	fmt.Printf("across the seeds of a set, the larger of the two; with five runs in a set one disturbed run moves a quartile,\n")
	fmt.Printf("so it is shown, not judged: the acceptance rule takes it over ten runs (README, \"Seeds and bounds\").\n\n")
	baseline := map[string]map[string]float64{}
	failed := 0
	for _, w := range bf.Workloads {
		fmt.Printf("## %s\n\n| metric | unit | median A | Q1–Q3 A | median B | Q1–Q3 B | spread | gap | bound | |\n|---|---|---|---|---|---|---|---|---|---|\n", w.Name)
		baseline[w.Name] = map[string]float64{}
		for _, m := range bf.EndToEnd {
			c := table[w.Name][m.Name]
			if c == nil {
				return fmt.Errorf("%s did not report %s", w.Name, m.Name)
			}
			ma, mb := median(c.a), median(c.b)
			a1, a3 := quartiles(c.a)
			b1, b3 := quartiles(c.b)
			spread := max(ratio(a3-a1, ma), ratio(b3-b1, mb))
			gap := ratio(mb-ma, ma)
			if m.Better == "higher" {
				gap = -gap
			}
			verdict := "PASS"
			if gap > m.Bound {
				verdict = "FAIL"
				failed++
			} else if exactCounts[m.Name] && w.Name != "live-wire" && !slices.Equal(c.a, c.b) {
				verdict = "FAIL: the sets ran the same seeds and must agree exactly"
				failed++
			}
			fmt.Printf("| %s | %s | %.5g | %.5g–%.5g | %.5g | %.5g–%.5g | %.2f%% | %+.2f%% | %.0f%% | %s |\n",
				m.Name, m.Unit, ma, a1, a3, mb, b1, b3, 100*spread, 100*gap, 100*m.Bound, verdict)
			baseline[w.Name][m.Name] = median(append(append([]float64(nil), c.a...), c.b...))
		}
		fmt.Println()
	}
	fmt.Printf("%d of %d metric × workload cells fail.\n", failed, len(bf.Workloads)*len(bf.EndToEnd))
	if err := writeBaseline(baseline, seed, seconds, 2*runs); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d cells outside their bound", failed)
	}
	return nil
}

func revision() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// writeBaseline records the medians of all runs as the numbers later
// changes are compared with. It claims nothing.
func writeBaseline(medians map[string]map[string]float64, seed int64, seconds, runs int) error {
	dir, err := resultsDir()
	if err != nil {
		return err
	}
	doc := map[string]any{
		"revision":        revision(),
		"go":              runtime.Version(),
		"nproc":           runtime.NumCPU(),
		"first_seed":      seed,
		"runs_per_cell":   runs,
		"run_seconds":     seconds,
		"medians":         medians,
		"measured_on":     "2-vCPU KVM sandbox; reads come from the OS page cache, fsync is cheap, the network is loopback",
		"claim":           nil,
		"claim_statement": "this change defines the benchmark and claims no gain",
	}
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "baseline.json"), append(raw, '\n'), 0o644)
}
