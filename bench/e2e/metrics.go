package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// metricDef is one metric's name and unit. The lists below are the contract
// with BENCHMARK.json (metrics_test.go holds the two equal): the result line
// carries exactly endToEnd with -trace 0 and exactly perLayer with -trace 1.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"host_us_per_event", "us"},
	{"cpu_us_per_event", "us"},
	{"allocs_per_event", "count"},
	{"alloc_bytes_per_event", "B"},
	{"peak_rss_mb", "MB"},
}

// bounds is the share by which each end-to-end metric may worsen before a
// change counts as a regression (all are lower-is-better). Each is at least
// three times the widest quartile spread seen over ten runs with ten seeds on
// the founding VM (README, "Noise method"): the counts repeat exactly for a
// seed and owe their spread to the seeds alone.
var bounds = map[string]float64{
	"setup_s":               0.25,
	"host_us_per_event":     0.25,
	"cpu_us_per_event":      0.25,
	"allocs_per_event":      0.02,
	"alloc_bytes_per_event": 0.02,
	"peak_rss_mb":           0.25,
}

var analyzeViews = []string{
	"executions", "transitions", "transfers", "taskmeta", "dxt", "posix", "warnings",
	"heartbeats", "utilization", "phases", "iotimeline", "commscatter", "parallelcoords",
	"warninghist", "attribute_io", "taskio", "correlate", "critpath",
}

var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		// The named workload's own cycles (one untraced, one traced).
		{"disk_bytes_per_event", "B"},
		{"virtual_makespan_s", "s"},
		{"raw.host_us_per_event", "us"},
		{"raw.setup_s", "s"},
		{"cal.kernel_ms", "ms"},
		{"cal.spread", "ratio"},
		{"trace.overhead_share", "ratio"},
		{"trace.coverage_share", "ratio"},
		// Spans of the traced cycle; 0 where the workload bypasses the layer.
		{"core.newsession_s", "s"},
		{"core.execute_s", "s"},
		{"core.close_s", "s"},
		{"core.session_s.wal_live", "s"},
		{"core.session_s.cluster_rf2", "s"},
		{"perfrecup.load_wal_s", "s"},
		{"perfrecup.load_cluster_s", "s"},
	}
	for _, v := range analyzeViews {
		defs = append(defs, metricDef{"perfrecup.view." + v + "_s", "s"})
	}
	return append(defs, []metricDef{
		{"perfrecup.join_coverage", "ratio"},
		{"whatif.extract_s", "s"},
		{"whatif.critpath_s", "s"},
		{"whatif.slack_s", "s"},
		{"whatif.replay_s", "s"},
		{"whatif.replay_error_share", "ratio"},
		{"resume.reconstruct_s", "s"},
		{"live.replay_datadir_s", "s"},
		// Stage replays: the same work in every traced run.
		{"sim.kernel_ns_per_step", "ns"},
		{"sim.steps_per_cycle", "count"},
		{"dask.sim_s.imageprocessing", "s"},
		{"dask.sim_s.resnet152", "s"},
		{"dask.sim_s.xgboost", "s"},
		{"dask.tasks_per_cycle", "count"},
		{"core.writedir_s", "s"},
		{"core.loaddir_s", "s"},
		{"provenance.encode_ns_per_event", "ns"},
		{"provenance.parse_ns_per_event", "ns"},
		{"mofka.push_ns_per_event", "ns"},
		{"mofka.pushraw_ns_per_event", "ns"},
		{"mofka.marshal_ns_per_event", "ns"},
		{"mofka.append_ns_per_event", "ns"},
		{"mofka.pull_ns_per_event", "ns"},
		{"mofka.meta_bytes_per_event", "B"},
		{"mofka.batch_fill", "ratio"},
		{"wal.append_batch_ns_per_event", "ns"},
		{"wal.append_never_ns_per_event", "ns"},
		{"wal.fsync_share", "ratio"},
		{"wal.replay_ns_per_event", "ns"},
		{"wal.open_s", "s"},
		{"wal.disk_bytes_per_event", "B"},
		{"cluster.push_rf1_ns_per_event", "ns"},
		{"cluster.push_rf2_ns_per_event", "ns"},
		{"cluster.push_rf3_ns_per_event", "ns"},
		{"cluster.readview_s", "s"},
		{"cluster.postmortem_open_s", "s"},
		{"live.ingest_ns_per_event", "ns"},
		{"live.snapshot_ms", "ms"},
		{"darshan.write_s", "s"},
		{"darshan.read_s", "s"},
		{"darshan.log_bytes", "B"},
		{"darshan.dxt_segments", "count"},
		{"budget.collect_marginal_us_per_event", "us"},
		{"budget.durable_marginal_us_per_event", "us"},
		{"budget.unattributed_share", "ratio"},
	}...)
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// withUnits attaches each value's declared unit. A measured name that is not
// declared is a bug in the harness.
func withUnits(values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(values))
	var unknown []string
	for name, v := range values {
		unit, ok := unitOf[name]
		if !ok {
			unknown = append(unknown, name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // a ratio whose base was not measured; JSON has no NaN
		}
		out[name] = metricValue{Value: v, Unit: unit}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return nil, fmt.Errorf("measured metrics with no definition: %v", unknown)
	}
	return out, nil
}

var unitOf = func() map[string]string {
	m := make(map[string]string)
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		m[d.name] = d.unit
	}
	return m
}()

// selectMetrics builds the result's metrics from measured values: exactly
// the defined names, 0 for a layer the workload did not enter.
func selectMetrics(defs []metricDef, measured map[string]float64) (map[string]metricValue, error) {
	all := make(map[string]float64, len(defs))
	for _, d := range defs {
		all[d.name] = 0
	}
	for name, v := range measured {
		if _, ok := all[name]; !ok {
			return nil, fmt.Errorf("measured %s is not among the %d metrics to report", name, len(defs))
		}
		all[name] = v
	}
	return withUnits(all)
}

func (r result) line() string {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // floats and strings only
	}
	return string(b)
}

// higherIsBetter names the per-layer metrics that are not costs.
var higherIsBetter = map[string]bool{
	"trace.coverage_share":    true,
	"perfrecup.join_coverage": true,
	"mofka.batch_fill":        true,
}

// benchmarkJSON renders BENCHMARK.json from the tables above, so the
// declaration at the root of the repo cannot drift from what the command
// prints (metrics_test.go compares the file with this).
func benchmarkJSON() []byte {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type bounded struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []bounded  `json:"end_to_end"`
		PerLayer   []layer    `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/e2e/run.sh"},
		Paths:      []string{"bench/e2e"},
		RunSeconds: declaredRunSeconds,
	}
	for _, w := range workloadTable {
		doc.Workloads = append(doc.Workloads, workload{w.name, w.why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, bounded{d.name, d.unit, "lower", bounds[d.name]})
	}
	for _, d := range perLayer {
		better := "lower"
		if higherIsBetter[d.name] {
			better = "higher"
		}
		doc.PerLayer = append(doc.PerLayer, layer{d.name, d.unit, better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // strings and floats only
	}
	return append(b, '\n')
}
