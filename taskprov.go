// Package taskprov is the public facade of the characterization framework:
// a Go reproduction of "Performance Characterization and Provenance of
// Distributed Task-based Workflows on HPC Platforms" (SC 2024).
//
// The typical flow mirrors the paper's architecture — run an instrumented
// workflow (WMS plugins streaming task provenance through Mofka, Darshan
// collecting I/O with pthread IDs), persist the artifacts, and analyze them
// with PERFRECUP:
//
//	wf, _ := taskprov.NewWorkflow("xgboost")
//	cfg := taskprov.DefaultSession("xgboost", "job-001", 1)
//	art, err := taskprov.Run(cfg, wf)
//	...
//	art.WriteDir("runs/job-001")
//	pc, _ := taskprov.ParallelCoords(art)       // Fig. 6 view
//	lin, _ := taskprov.Lineage(art, taskKey)    // Fig. 8 summary
//
// Custom workflows implement the Workflow interface and build task graphs
// with the dask package's Graph/TaskSpec types; see examples/quickstart.
// The underlying subsystems (discrete-event kernel, platform and PFS
// models, the Dask-model WMS, Darshan, Mofka on its Mochi substrate, and
// the frame dataframe library) live under internal/ and are documented
// there.
package taskprov

import (
	"taskprov/internal/core"
	"taskprov/internal/live"
	"taskprov/internal/perfrecup"
	"taskprov/internal/perfrecup/frame"
	"taskprov/internal/whatif"
	"taskprov/internal/workloads"
)

// Core run orchestration (see internal/core).
type (
	// SessionConfig describes one instrumented run: platform, storage, WMS
	// configuration, and instrumentation knobs.
	SessionConfig = core.SessionConfig
	// Workflow is implemented by workload generators: Stage places input
	// data on the PFS, Run drives the client program.
	Workflow = core.Workflow
	// Env exposes the run's substrate (kernel, platform, PFS, cluster) to
	// workflows.
	Env = core.Env
	// RunArtifacts is everything a run leaves behind: Mofka event topics,
	// per-worker Darshan logs, and the provenance-chart metadata.
	RunArtifacts = core.RunArtifacts
	// RunMetadata is the serialized provenance chart (Fig. 1 layers).
	RunMetadata = core.RunMetadata
)

// Run executes a workflow under full instrumentation.
func Run(cfg SessionConfig, wf Workflow) (*RunArtifacts, error) { return core.Run(cfg, wf) }

// LoadRun reads artifacts previously persisted with RunArtifacts.WriteDir.
func LoadRun(dir string) (*RunArtifacts, error) { return core.LoadDir(dir) }

// DefaultSessionConfig returns the paper's session setup (Polaris-like
// platform, Lustre-like storage, 2 nodes x 4 workers x 8 threads, DXT on).
func DefaultSessionConfig(jobID string, seed uint64) SessionConfig {
	return core.DefaultSessionConfig(jobID, seed)
}

// Paper workloads (see internal/workloads).

// NewWorkflow returns one of the paper's calibrated evaluation workflows:
// "imageprocessing", "resnet152", or "xgboost".
func NewWorkflow(name string) (Workflow, error) { return workloads.New(name) }

// WorkflowNames lists the available paper workflows.
func WorkflowNames() []string { return workloads.Names() }

// DefaultSession returns the paper-equivalent session configuration for a
// named workflow (including its instrumentation quirks, e.g. ResNet152's
// overflowing DXT buffer).
func DefaultSession(workflow, jobID string, seed uint64) SessionConfig {
	return workloads.DefaultSession(workflow, jobID, seed)
}

// PERFRECUP analyses (see internal/perfrecup).
type (
	// PhaseBreakdown is one run's I/O / communication / computation / total
	// decomposition (Fig. 3).
	PhaseBreakdown = perfrecup.PhaseBreakdown
	// PhaseStats aggregates breakdowns across runs with variability.
	PhaseStats = perfrecup.PhaseStats
	// CommBucket summarizes transfers by size bucket (Fig. 5).
	CommBucket = perfrecup.CommBucket
	// TaskLineage is the full provenance of one task (Fig. 8).
	TaskLineage = perfrecup.Lineage
	// WindowStats zooms into a time period of a run (§IV-D).
	WindowStats = perfrecup.WindowStats
	// ScheduleComparison contrasts the scheduling of two runs (§IV-D).
	ScheduleComparison = perfrecup.ScheduleComparison
	// CorrelationReport quantifies warning/long-task and duration/size
	// relationships (§IV-D3).
	CorrelationReport = perfrecup.CorrelationReport
)

// Phases computes a run's Fig. 3 breakdown.
func Phases(art *RunArtifacts) (PhaseBreakdown, error) { return perfrecup.Phases(art) }

// AggregatePhases summarizes per-run breakdowns across a run set.
func AggregatePhases(runs []PhaseBreakdown) PhaseStats { return perfrecup.AggregatePhases(runs) }

// IOTimeline renders the Fig. 4 per-thread I/O timeline as text.
func IOTimeline(art *RunArtifacts, bins int, smallCutoff int64) (string, error) {
	return perfrecup.IOTimeline(art, bins, smallCutoff)
}

// CommScatter computes the Fig. 5 communication-vs-size view.
func CommScatter(art *RunArtifacts) ([]CommBucket, error) { return perfrecup.CommScatter(art) }

// ParallelCoords computes the Fig. 6 task view as a dataframe sorted by
// duration.
func ParallelCoords(art *RunArtifacts) (Frame, error) { return perfrecup.ParallelCoords(art) }

// WarningHistogram computes the Fig. 7 warning distributions.
func WarningHistogram(art *RunArtifacts, binSeconds float64) (map[string]perfrecup.Histogram, error) {
	return perfrecup.WarningHistogram(art, binSeconds)
}

// Lineage assembles the Fig. 8 provenance summary of one task key.
func Lineage(art *RunArtifacts, key string) (*TaskLineage, error) {
	return perfrecup.BuildLineage(art, key)
}

// Window summarizes all activity within [from, to) seconds of a run.
func Window(art *RunArtifacts, from, to float64) (WindowStats, error) {
	return perfrecup.Window(art, from, to)
}

// CompareSchedules contrasts two runs' task placement and ordering.
func CompareSchedules(a, b *RunArtifacts) (ScheduleComparison, error) {
	return perfrecup.CompareSchedules(a, b)
}

// Correlate computes the §IV-D3 correlation report with the given time-bin
// width.
func Correlate(art *RunArtifacts, binSeconds float64) (CorrelationReport, error) {
	return perfrecup.Correlate(art, binSeconds)
}

// AttributeIOToTasks joins every Darshan DXT segment to the task that
// issued it on (hostname, pthread ID, time window) — the paper's central
// fusion (§III-E3).
func AttributeIOToTasks(art *RunArtifacts) (Frame, error) {
	return perfrecup.AttributeIOToTasks(art)
}

// Frame is the uniform tabular representation all views share (see
// internal/perfrecup/frame for its operations: filter, sort, group-by,
// joins, CSV round-trips).
type Frame = *frame.Frame

// What-if analysis (see internal/whatif): a calibrated performance model
// extracted from a run's provenance, critical-path/bottleneck attribution,
// and a discrete-event replay simulator for perturbed configurations. A run
// carries none of it: ExtractModel(art), then the model's CriticalPath(),
// computes the digest on demand from art.Records(), before or after Close.
type (
	// WhatIfModel is the calibrated model of one run: the weighted task DAG
	// with fitted compute/transfer/I-O/scheduler costs.
	WhatIfModel = whatif.Model
	// WhatIfScenario perturbs the measured configuration (workers, threads,
	// network and PFS speed, proxy threshold, stealing).
	WhatIfScenario = whatif.Scenario
	// WhatIfResult is one replay prediction with its makespan delta.
	WhatIfResult = whatif.Result
	// CriticalPath is the executed schedule's longest weighted chain with
	// category attribution summing to the makespan.
	CriticalPath = whatif.CritPath
)

// ExtractModel fits the what-if cost model from a run's provenance.
func ExtractModel(art *RunArtifacts) (*WhatIfModel, error) { return art.ExtractModel() }

// ParseScenario parses "workers=8 threads=4 net=0.5 pfs=2 proxy=1048576
// steal=off" into a WhatIfScenario ("baseline" or "" = unchanged).
func ParseScenario(s string) (WhatIfScenario, error) { return whatif.ParseScenario(s) }

// RenderCritPath renders a run's critical path, bottleneck attribution, and
// chain as deterministic text (the `perfrecup critpath` report).
func RenderCritPath(art *RunArtifacts) (string, error) { return perfrecup.RenderCritPath(art) }

// Live monitoring (see internal/live). Enable during a run with
// SessionConfig.LiveMonitor (the final LiveSummary lands in
// RunArtifacts.Live) and optionally SessionConfig.LiveHTTPAddr for the
// /snapshot, /metrics, and /events endpoints; `taskprov watch` attaches the
// same machinery to runs started elsewhere.
type (
	// LiveSummary is the live monitor's aggregate state: counters, phase
	// decomposition, per-group duration quantiles, per-worker and per-host
	// activity, sliding windows, and detected anomalies.
	LiveSummary = live.Summary
	// LiveAnomaly is one online-detector finding (straggler, event-loop
	// streak, or I/O-bandwidth collapse).
	LiveAnomaly = live.Anomaly
)

// LiveReplay rebuilds the live monitor's end-of-run aggregates from a run's
// artifacts in canonical order — the reference side of the live/post-mortem
// equivalence invariant (DESIGN.md §7).
func LiveReplay(art *RunArtifacts) (LiveSummary, error) {
	return perfrecup.LiveReplay(art, live.AggregatorOptions{})
}

// WatchDataDir builds live aggregates post-mortem from a durable Mofka data
// directory, including the log of a crashed (kill -9) run.
func WatchDataDir(dir string) (LiveSummary, error) {
	return live.ReplayDataDir(dir, live.AggregatorOptions{})
}
