package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// The benchmark's declared surface: its workloads and every metric it
// prints. BENCHMARK.json at the repository root is generated from these
// tables (-write-spec) and the self-test checks that it still matches, so a
// metric cannot be printed without being declared.

// Workload names. Keep them stable: results are cited by them.
const (
	wlReadMix       = "read-mix"
	wlArchiveExport = "archive-export"
	wlLiveUpdate    = "live-update"
)

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadSpec{
	{wlReadMix, "default read path on a hot zipf pool of 32 intervals: engine filter and refinement dominate, the batch window has shared work"},
	{wlArchiveExport, "stored index behind a 256-page pool, fresh 1% intervals with geometry in JSON and FWB1: pool misses, file reads and encoding dominate"},
	{wlLiveUpdate, "open-loop 16-sample update batches at 5/s on a 36k-triangle TIN beside one read-mix reader: the write path and its cost to readers"},
}

// e2eSpec is one end-to-end metric: what a user of the server sees. Every
// workload reports every one of them (the lead operation differs per
// workload; see NOTES.md).
type e2eSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// layerSpec is one per-layer metric of the traced run.
type layerSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

var endToEnd = []e2eSpec{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_rps", "1/s", "higher", 0.25},
	{"range_p50_ms", "ms", "lower", 0.25},
	{"range_p90_ms", "ms", "lower", 0.25},
	{"lead_p50_ms", "ms", "lower", 0.25},
	{"lead_p90_ms", "ms", "lower", 0.25},
	{"heap_live_mb", "MB", "lower", 0.15},
}

// perClass are the per-class end-to-end figures. Not every workload has
// every class, and a gated metric must exist, non-zero, on every workload,
// so they are declared with the per-layer metrics: the traced run reports
// them from its untraced slices.
var perClass = []layerSpec{
	{"aggregate_p50_ms", "ms", "lower"},
	{"point_p50_ms", "ms", "lower"},
	{"export_json_p50_ms", "ms", "lower"},
	{"export_json_p90_ms", "ms", "lower"},
	{"export_bin_p50_ms", "ms", "lower"},
	{"export_bin_p90_ms", "ms", "lower"},
	{"update_p50_ms", "ms", "lower"},
	{"update_p90_ms", "ms", "lower"},
	{"failed_frac", "ratio", "lower"},
}

// perLayer is every metric a traced run prints.
var perLayer = append(perClass[:len(perClass):len(perClass)], layerMetrics...)

var layerMetrics = []layerSpec{
	{"serve.self_ms", "ms", "lower"},
	{"serve.pre_engine_ms", "ms", "lower"},
	{"serve.post_engine_ms", "ms", "lower"},
	{"serve.resp_kb_json", "KB", "lower"},
	{"serve.resp_kb_bin", "KB", "lower"},
	{"serve.shed_429", "count", "lower"},
	{"serve.point_gap_frac", "ratio", "lower"},
	{"fielddb.range_ms", "ms", "lower"},
	{"fielddb.aggregate_ms", "ms", "lower"},
	{"fielddb.point_ms", "ms", "lower"},
	{"fielddb.window_wait_ms", "ms", "lower"},
	{"fielddb.self_ms", "ms", "lower"},
	{"core.self_ms", "ms", "lower"},
	{"core.plan_ms", "ms", "lower"},
	{"core.sidecar_filter_ms", "ms", "lower"},
	{"core.refine_ms", "ms", "lower"},
	{"core.batch_fetch_ms", "ms", "lower"},
	{"core.summary_eval_ms", "ms", "lower"},
	{"core.decode_ms", "ms", "lower"},
	{"core.patch_ms", "ms", "lower"},
	{"core.index_maintain_ms", "ms", "lower"},
	{"core.cells_fetched_per_query", "count", "lower"},
	{"core.cells_matched_per_query", "count", "lower"},
	{"core.refine_useful_ratio", "ratio", "higher"},
	{"core.batch_size_mean", "count", "higher"},
	{"core.coalesced_pages_saved_per_query", "count", "higher"},
	{"core.regroup_frac", "ratio", "lower"},
	{"core.update_pages_written_per_batch", "count", "lower"},
	{"core.aggregate_fallback_frac", "ratio", "lower"},
	{"rstar.search_ms", "ms", "lower"},
	{"rstar.index_pages_per_query", "count", "lower"},
	{"band.geometry_ms_per_query", "ms", "lower"},
	{"band.polygons_per_query", "count", "lower"},
	{"band.allocs_per_query", "count", "lower"},
	{"storage.pages_per_query", "count", "lower"},
	{"storage.sim_disk_ms_per_query", "ms", "lower"},
	{"storage.pool_hit_ratio", "ratio", "higher"},
	{"process.allocs_per_req", "count", "lower"},
	{"process.alloc_kb_per_req", "KB", "lower"},
	{"process.gc_cpu_frac", "ratio", "lower"},
	{"client.update_late_p90_ms", "ms", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
}

// runSeconds is how long one run measures: 100 update batches on
// live-update, a few thousand reads elsewhere. A run also sets up five
// times, warms up and verifies, so it takes 25-40 s.
const runSeconds = 20

// benchmarkFile is the BENCHMARK.json document.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []e2eSpec      `json:"end_to_end"`
	PerLayer   []layerSpec    `json:"per_layer"`
}

func specDocument() ([]byte, error) {
	doc := benchmarkFile{
		Command:    []string{"bash", "e2ebench/run.sh"},
		Paths:      []string{"e2ebench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// writeSpecFile writes BENCHMARK.json to path.
func writeSpecFile(path string) error {
	b, err := specDocument()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}

func knownWorkload(name string) bool {
	for _, w := range workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}
