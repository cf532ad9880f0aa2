package main

import (
	"fmt"
	"io"
	"sort"
)

// spec names one metric the benchmark reports, with its unit and the
// direction that is better. A per-layer spec also names the end-to-end
// metric and workload it should move; BENCHMARK.json has no field for
// that, so README.md's per-layer table carries it, and the self-test
// keeps the two in step.
type spec struct {
	name, unit, better, moves string
}

// endToEnd lists the metrics every untraced run reports, in print order.
// They come only from the CLI child processes, never from the traced
// pass.
var endToEnd = []spec{
	{name: "wall_s", unit: "s", better: "lower"},
	{name: "records_per_s", unit: "records/s", better: "higher"},
	{name: "cpu_s", unit: "s", better: "lower"},
	{name: "peak_rss_mb", unit: "MB", better: "lower"},
	{name: "stored_bytes_per_record", unit: "B/record", better: "lower"},
	{name: "success_share", unit: "fraction", better: "higher"},
	{name: "setup_s", unit: "s", better: "lower"},
}

// perLayer lists the metrics every traced run reports, in print order.
var perLayer = []spec{
	{"sim.build_s", "s", "lower", "wall_s on gen-file-auto"},
	{"sim.generate_s", "s", "lower", "wall_s on gen-file-auto"},
	{"sim.records", "count", "higher", "none: fixed by seed and population"},
	{"dataset.write_s", "s", "lower", "wall_s on gen-file-auto"},
	{"dataset.close_s", "s", "lower", "wall_s on gen-file-auto"},
	{"dataset.stored_bytes", "B", "lower", "stored_bytes_per_record on gen-file-auto"},
	{"telemetry.blocks.identity", "count", "lower", "stored_bytes_per_record on gen-file-auto"},
	{"telemetry.blocks.lz", "count", "lower", "stored_bytes_per_record on gen-file-auto"},
	{"telemetry.blocks.delta", "count", "higher", "stored_bytes_per_record on gen-file-auto"},
	{"dataset.open_source_s", "s", "lower", "wall_s on analyze-export-w1"},
	{"dataset.part_crc_s", "s", "lower", "wall_s on analyze-export-w1 only"},
	{"dataset.decode_s", "s", "lower", "wall_s on analyze-file-w2 and analyze-export-w1"},
	{"dataset.blocks_read", "count", "lower", "wall_s on analyze-file-w2 and analyze-export-w1"},
	{"dataset.records_read", "count", "higher", "none: fixed by seed and population"},
	{"dataset.consumer_wait_s", "s", "lower", "wall_s on analyze-export-w1"},
	{"core.observe_s.user_centric", "s", "lower", "wall_s on analyze-file-w2 and analyze-export-w1"},
	{"core.observe_s.ip_centric_v4_32", "s", "lower", "wall_s on analyze-file-w2 and analyze-export-w1"},
	{"core.observe_s.ip_centric_v6_128", "s", "lower", "wall_s on analyze-file-w2 and analyze-export-w1"},
	{"core.observe_s.ip_centric_v6_64", "s", "lower", "wall_s on analyze-file-w2 and analyze-export-w1"},
	{"core.observe_s.churn", "s", "lower", "wall_s on analyze-file-w2 and analyze-export-w1"},
	{"core.observe_s", "s", "lower", "wall_s on analyze-file-w2 and analyze-export-w1"},
	{"core.worker_busy_s.max", "s", "lower", "wall_s on analyze-file-w2"},
	{"core.worker_busy_s.min", "s", "lower", "wall_s on analyze-file-w2"},
	{"core.fold_s", "s", "lower", "wall_s on analyze-file-w2"},
	{"core.fold_s.user_centric", "s", "lower", "wall_s on analyze-file-w2"},
	{"core.fold_s.ip_centric_v4_32", "s", "lower", "wall_s on analyze-file-w2"},
	{"core.fold_s.ip_centric_v6_128", "s", "lower", "wall_s on analyze-file-w2"},
	{"core.fold_s.ip_centric_v6_64", "s", "lower", "wall_s on analyze-file-w2"},
	{"core.fold_s.churn", "s", "lower", "wall_s on analyze-file-w2"},
	{"core.query_s", "s", "lower", "wall_s on analyze-file-w2 and analyze-export-w1"},
	{"core.alloc_mb.observe", "MB", "lower", "peak_rss_mb and cpu_s on analyze-file-w2 and analyze-export-w1"},
	{"core.heap_mb.after_observe", "MB", "lower", "peak_rss_mb on analyze-export-w1"},
	{"core.heap_mb.after_fold", "MB", "lower", "peak_rss_mb on analyze-file-w2"},
	{"go.gc_cycles", "count", "lower", "cpu_s and wall_s on analyze-file-w2 and analyze-export-w1"},
	{"go.gc_pause_s", "s", "lower", "cpu_s and wall_s on analyze-file-w2 and analyze-export-w1"},
	{"userv6.execute_s", "s", "lower", "wall_s on analyze-file-w2 and analyze-export-w1"},
	{"trace.overhead_ratio", "ratio", "lower", "none: the cost of the spans themselves"},
}

// metric is one reported value; the JSON shape is the benchmark's
// output contract.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// median returns the median of xs (the mean of the middle two for an
// even count) and 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// printMetrics writes one "name value unit" line per spec present in ms.
func printMetrics(w io.Writer, prefix string, specs []spec, ms map[string]metric) {
	for _, sp := range specs {
		if m, ok := ms[sp.name]; ok {
			fmt.Fprintf(w, "%s%-36s %16.6f %s\n", prefix, sp.name, m.Value, m.Unit)
		}
	}
}
