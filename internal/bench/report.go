package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"dynq/internal/obs"
	"dynq/internal/stats"
)

// ReportSchemaVersion identifies the BENCH_*.json layout. Bump it when a
// field changes meaning; readers reject reports from a different schema
// so a stale baseline fails loudly instead of comparing garbage.
const ReportSchemaVersion = 1

// Report is the machine-readable record of one dqbench run: the
// environment it ran in, the workload parameters, and every measured
// figure. It is the durable artifact behind `dqbench -json` and the
// input to the `-compare` gate — the repo's recorded perf
// trajectory lives in files of this schema.
type Report struct {
	SchemaVersion int    `json:"schema_version"`
	CreatedUnix   int64  `json:"created_unix,omitempty"`
	GoVersion     string `json:"go_version"`
	Revision      string `json:"revision,omitempty"`
	OS            string `json:"os"`
	Arch          string `json:"arch"`
	NumCPU        int    `json:"num_cpu"`

	// Workload parameters: reports are only comparable when these match.
	Scale        float64 `json:"scale"`
	Trajectories int     `json:"trajectories"`
	Seed         int64   `json:"seed"`

	Figures []FigureReport `json:"figures"`
}

// FigureReport is one measured figure of the paper's evaluation.
type FigureReport struct {
	Fig       int          `json:"fig"`
	Title     string       `json:"title"`
	Metric    string       `json:"metric"`
	Segments  int          `json:"segments"`
	ElapsedNS int64        `json:"elapsed_ns"`
	Cells     []CellReport `json:"cells"`
}

// CellReport is one measured (strategy, overlap, range) point.
type CellReport struct {
	Strategy string     `json:"strategy"`
	Overlap  float64    `json:"overlap"`
	Range    float64    `json:"range"`
	First    CostReport `json:"first"`
	Subseq   CostReport `json:"subseq"`
}

// CostReport is the paper's per-query mean cost counters.
type CostReport struct {
	LeafReads     float64 `json:"leaf_reads"`
	InternalReads float64 `json:"internal_reads"`
	Reads         float64 `json:"reads"`
	DistanceComps float64 `json:"distance_comps"`
	PrunedNodes   float64 `json:"pruned_nodes"`
	Results       float64 `json:"results"`
}

func costReportFromMean(m stats.Mean) CostReport {
	return CostReport{
		LeafReads:     m.LeafReads,
		InternalReads: m.InternalReads,
		Reads:         m.Reads(),
		DistanceComps: m.DistanceComps,
		PrunedNodes:   m.PrunedNodes,
		Results:       m.Results,
	}
}

// NewReport stamps a report with the environment and the run's workload
// parameters.
func NewReport(cfg Config) *Report {
	goVersion, revision := obs.BuildInfo()
	return &Report{
		SchemaVersion: ReportSchemaVersion,
		CreatedUnix:   time.Now().Unix(),
		GoVersion:     goVersion,
		Revision:      revision,
		OS:            runtime.GOOS,
		Arch:          runtime.GOARCH,
		NumCPU:        runtime.NumCPU(),
		Scale:         cfg.Scale,
		Trajectories:  cfg.Trajectories,
		Seed:          cfg.Seed,
	}
}

// AddFigure appends one measured figure.
func (r *Report) AddFigure(spec FigureSpec, cells []Cell, segments int, elapsed time.Duration) {
	fr := FigureReport{
		Fig:       int(spec.Fig),
		Title:     spec.Title,
		Metric:    spec.Metric,
		Segments:  segments,
		ElapsedNS: elapsed.Nanoseconds(),
		Cells:     make([]CellReport, len(cells)),
	}
	for i, c := range cells {
		fr.Cells[i] = CellReport{
			Strategy: string(c.Strategy),
			Overlap:  c.Overlap,
			Range:    c.Range,
			First:    costReportFromMean(c.First),
			Subseq:   costReportFromMean(c.Subseq),
		}
	}
	r.Figures = append(r.Figures, fr)
}

// WriteFile writes the report as indented JSON.
func (r *Report) WriteFile(path string) error {
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// ReadReport loads a BENCH_*.json file, rejecting unknown schema
// versions.
func ReadReport(path string) (*Report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("bench: %s is not a benchmark report: %w", path, err)
	}
	if r.SchemaVersion != ReportSchemaVersion {
		return nil, fmt.Errorf("bench: %s has schema version %d, this binary speaks %d",
			path, r.SchemaVersion, ReportSchemaVersion)
	}
	return &r, nil
}
