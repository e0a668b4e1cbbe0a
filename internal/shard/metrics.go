package shard

import (
	"strconv"

	"dynq/internal/obs"
	"dynq/internal/stats"
)

// costFamilies are the paper's cost counters and their companions, one
// series per unit: the database's totals are their sums over shard.
var costFamilies = []struct {
	name, help string
	read       func(stats.Snapshot) int64
}{
	{"dynq_page_reads_total", "Cumulative index node fetches (the paper's disk-access metric), by shard.", stats.Snapshot.Reads},
	{"dynq_page_writes_total", "Cumulative index page writes, by shard.", func(s stats.Snapshot) int64 { return s.PageWrites }},
	{"dynq_distance_comps_total", "Cumulative geometric predicate evaluations (the paper's CPU metric), by shard.", func(s stats.Snapshot) int64 { return s.DistanceComps }},
	{"dynq_pruned_nodes_total", "Index nodes skipped by a pruning rule, by shard.", func(s stats.Snapshot) int64 { return s.PrunedNodes }},
	{"dynq_results_total", "Objects returned, by shard.", func(s stats.Snapshot) int64 { return s.Results }},
}

// Register exposes per-shard observability through a metric registry:
// the cost counters (reads, writes, distance computations, pruned
// nodes, results), the segment count, and the engine-owned per-shard
// fan-out latency histograms. Idempotent per registry.
func (e *Engine) Register(reg *obs.Registry) {
	reg.SetHelp("dynq_shards", "Number of index partitions in the sharded engine.")
	for _, f := range costFamilies {
		reg.SetHelp(f.name, f.help)
	}
	reg.SetHelp("dynq_shard_segments", "Motion segments currently indexed, by shard.")
	reg.SetHelp("dynq_shard_task_seconds", "Per-shard wall time of fanned-out query tasks.")

	reg.GaugeFunc("dynq_shards", func() float64 { return float64(len(e.shards)) })
	for i := range e.shards {
		sh := e.shards[i]
		l := obs.L("shard", strconv.Itoa(i))
		for _, f := range costFamilies {
			read := f.read
			reg.GaugeFunc(f.name, func() float64 { return float64(read(sh.Counters.Snapshot())) }, l)
		}
		reg.GaugeFunc("dynq_shard_segments", func() float64 {
			return float64(sh.Tree.Size())
		}, l)
		reg.AttachHistogram("dynq_shard_task_seconds", e.latency[i], l)
	}
}
