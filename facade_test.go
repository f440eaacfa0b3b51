package taskprov_test

import (
	"path/filepath"
	"strings"
	"testing"

	"taskprov/internal/core"
	"taskprov/internal/live"
	"taskprov/internal/perfrecup"
	"taskprov/internal/workloads"
)

// TestFacadeEndToEnd runs the whole chain a custom program inside the module
// drives, the way examples/quickstart does: a live-monitored paper workflow,
// live ≡ replay, persist, reload, then every post-mortem view over the
// reloaded run. No other test runs, persists, reloads and analyzes in one
// sequence.
func TestFacadeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full workflow run")
	}
	wf, err := workloads.New("imageprocessing")
	if err != nil {
		t.Fatal(err)
	}
	cfg := workloads.DefaultSession("imageprocessing", "facade-001", 13)
	cfg.LiveMonitor = true
	art, err := core.Run(cfg, wf)
	if err != nil {
		t.Fatal(err)
	}
	if art.Live == nil {
		t.Fatal("LiveMonitor enabled but art.Live is nil")
	}
	ref, err := perfrecup.LiveReplay(art, live.AggregatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if art.Live.Tasks != ref.Tasks || art.Live.ComputeSeconds != ref.ComputeSeconds {
		t.Fatalf("live summary diverged from replay: %+v vs %+v", art.Live, ref)
	}

	dir := filepath.Join(t.TempDir(), "facade-001")
	if err := art.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := core.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}

	ph, err := perfrecup.Phases(loaded)
	if err != nil || ph.TotalSeconds <= 0 {
		t.Fatalf("phases = %+v, %v", ph, err)
	}
	stats := perfrecup.AggregatePhases([]perfrecup.PhaseBreakdown{ph})
	if stats.Runs != 1 || stats.NormTotal != 1 {
		t.Fatalf("stats = %+v", stats)
	}

	timeline, err := perfrecup.IOTimeline(loaded, 60, 1<<20)
	if err != nil || !strings.Contains(timeline, "tid") {
		t.Fatalf("timeline: %v", err)
	}
	buckets, err := perfrecup.CommScatter(loaded)
	if err != nil || len(buckets) == 0 {
		t.Fatalf("comm scatter: %v", err)
	}
	pc, err := perfrecup.ParallelCoords(loaded)
	if err != nil || pc.NRows() == 0 {
		t.Fatalf("parallel coords: %v", err)
	}
	if _, err := perfrecup.WarningHistogram(loaded, 10); err != nil {
		t.Fatalf("warnings: %v", err)
	}

	key := pc.Col("key").Str(0)
	lin, err := perfrecup.BuildLineage(loaded, key)
	if err != nil || lin.Worker == "" {
		t.Fatalf("lineage: %v", err)
	}
	win, err := perfrecup.Window(loaded, 0, ph.TotalSeconds)
	if err != nil || win.TasksActive == 0 {
		t.Fatalf("window: %+v, %v", win, err)
	}
	cmp, err := perfrecup.CompareSchedules(loaded, loaded)
	if err != nil || cmp.SameWorker != 1 {
		t.Fatalf("compare: %+v, %v", cmp, err)
	}
	rep, err := perfrecup.Correlate(loaded, 10)
	if err != nil || len(rep.LongTaskPrefixes) == 0 {
		t.Fatalf("correlate: %+v, %v", rep, err)
	}
	att, err := perfrecup.AttributeIOToTasks(loaded)
	if err != nil || att.NRows() == 0 {
		t.Fatalf("attribute: %v", err)
	}
	if len(workloads.Names()) != 3 {
		t.Fatal("workflow names")
	}
}
