// Command benchmark is the repository's benchmark: four seeded workloads
// over the public dynq and netq surface, twelve end-to-end metrics and
// a per-layer ledger. See README.md in this directory.
//
//	go run . -workload fly-mem -seed 1 -seconds 12 -trace 0
//
// The last line of standard output is one JSON object
// {"correct","attempted","failed","metrics"}; with -trace 0 the metrics
// are the end-to-end ones, with -trace 1 the per-layer ones.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
)

func main() {
	var (
		workload = flag.String("workload", "", "fly-mem, fly-disk, ingest-wal or live-wire")
		seed     = flag.Int64("seed", 1, "seed of every generated input")
		seconds  = flag.Int("seconds", 12, "nominal measured time; fixes the amount of work")
		trace    = flag.String("trace", "0", "1: traced run, report the per-layer ledger and write the span file")
		smoke    = flag.Bool("smoke", false, "tiny population, one short round (backs the tests)")
		repeat   = flag.Bool("repeat", false, "run two alternating sets of five runs per workload and report repeatability")
	)
	flag.Parse()

	// Pinned so that two runs, and two commits, see the same runtime. One
	// processor: run.sh also ties the process to one CPU, because on the
	// shared two-vCPU sandbox the cost of waking the other vCPU follows
	// the host's load, not the program (README, "One CPU").
	runtime.GOMAXPROCS(1)
	debug.SetGCPercent(100)

	if *repeat {
		if err := repeatability(*seed, *seconds); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		return
	}

	traced, err := strconv.ParseBool(*trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: -trace must be 0 or 1, got %q\n", *trace)
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: traced, smoke: *smoke, setups: 5, rounds: 5}
	if cfg.smoke {
		cfg.setups, cfg.rounds = 1, 1
	}
	out, err := run(*workload, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	out.print(cfg.trace)
	if out.failed > 0 {
		os.Exit(1)
	}
}

// run executes one workload in a private scratch directory under the
// working directory and removes it afterwards.
func run(workload string, cfg config) (*outcome, error) {
	wd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	base := filepath.Join(wd, ".bench_build", "scratch")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	cfg.scratch, err = os.MkdirTemp(base, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.scratch)

	if spec, ok := serialSpecs(cfg)[workload]; ok {
		if cfg.trace {
			return traceSerial(spec, cfg)
		}
		return runSerial(spec, cfg)
	}
	if workload == "live-wire" {
		if cfg.trace {
			return traceLive(cfg)
		}
		return runLive(cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (want fly-mem, fly-disk, ingest-wal or live-wire)", workload)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// print writes the human-readable table and, as the last line, the
// result object.
func (o *outcome) print(traced bool) {
	fmt.Printf("workload %s  seed %d  script %016x  measured %.1fs\n", o.workload, o.seed, o.scriptHash, o.measured.Seconds())
	if !traced {
		fmt.Printf("sandbox slowdown ×%.3f (median; see pace.go): timings are in reference-sandbox time, with the time as measured beside them\n", o.slowdown)
	}
	res := jsonResult{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]jsonMetric{}}
	if traced {
		names := make([]string, 0, len(o.layers))
		for name := range o.layers {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			unit := layerUnit(name)
			fmt.Printf("  %-34s %14.4f %s\n", name, o.layers[name], unit)
			res.Metrics[name] = jsonMetric{o.layers[name], unit}
		}
	} else {
		for _, m := range endToEnd {
			line := fmt.Sprintf("  %-26s %14.4f %-6s n=%d", m.name, o.metrics[m.name], m.unit, o.samples[m.name])
			if raw, timed := o.raw[m.name]; timed {
				line += fmt.Sprintf("  (measured %.4f)", raw)
			}
			fmt.Println(line)
			res.Metrics[m.name] = jsonMetric{o.metrics[m.name], m.unit}
		}
	}
	for _, note := range o.notes {
		fmt.Println(note)
	}
	fmt.Printf("operations: %d attempted, %d failed\n", o.attempted, o.failed)
	if o.firstWrong != "" {
		fmt.Printf("first failure: %s\n", o.firstWrong)
	}
	line, _ := json.Marshal(res) // a map of floats and strings cannot fail to marshal
	fmt.Println(string(line))
}
