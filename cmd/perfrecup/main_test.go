package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"taskprov/internal/core"
	"taskprov/internal/whatif"
	"taskprov/internal/workloads"
)

// writeRun produces one persisted ImageProcessing run for CLI tests.
func writeRun(t *testing.T) string {
	t.Helper()
	wf, err := workloads.New("imageprocessing")
	if err != nil {
		t.Fatal(err)
	}
	art, err := core.Run(workloads.DefaultSession("imageprocessing", "cli-test", 6), wf)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "imageprocessing-0006")
	if err := art.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestCLICommands(t *testing.T) {
	if testing.Short() {
		t.Skip("full workflow run")
	}
	dir := writeRun(t)

	if err := cmdTable1([]string{dir}); err != nil {
		t.Fatalf("table1: %v", err)
	}
	if err := cmdPhases([]string{dir}); err != nil {
		t.Fatalf("phases: %v", err)
	}
	if err := cmdIOTimeline([]string{dir, "-bins", "40"}); err != nil {
		t.Fatalf("iotimeline: %v", err)
	}
	if err := cmdComm([]string{dir}); err != nil {
		t.Fatalf("comm: %v", err)
	}
	if err := cmdTasks([]string{dir, "-top", "5"}); err != nil {
		t.Fatalf("tasks: %v", err)
	}
	if err := cmdWarnings([]string{dir, "-bin", "20"}); err != nil {
		t.Fatalf("warnings: %v", err)
	}
	if err := cmdLineage([]string{dir, "-prefix", "imread"}); err != nil {
		t.Fatalf("lineage: %v", err)
	}
	if err := cmdCritPath([]string{dir}); err != nil {
		t.Fatalf("critpath: %v", err)
	}
	if err := cmdWhatIf([]string{dir, "-scenario", "baseline", "-scenario", "net=0.5 pfs=2"}, os.Stdout); err != nil {
		t.Fatalf("whatif: %v", err)
	}
	for _, view := range []string{"executions", "transitions", "transfers", "warnings", "dxt", "posix", "taskmeta", "heartbeats", "taskio", "critpath"} {
		// Redirect stdout noise for the big CSVs.
		old := os.Stdout
		null, _ := os.Open(os.DevNull)
		devnull, _ := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
		os.Stdout = devnull
		err := cmdExport([]string{dir, "-view", view})
		os.Stdout = old
		_ = null.Close()
		_ = devnull.Close()
		if err != nil {
			t.Fatalf("export %s: %v", view, err)
		}
	}
}

func TestCLIErrors(t *testing.T) {
	if err := cmdTable1([]string{filepath.Join(t.TempDir(), "nope")}); err == nil {
		t.Fatal("missing dir accepted")
	}
	dir := t.TempDir() // empty, no metadata.json
	if err := cmdComm([]string{dir}); err == nil {
		t.Fatal("empty dir accepted")
	}
}

func TestCLILineageValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("full workflow run")
	}
	dir := writeRun(t)
	if err := cmdLineage([]string{dir}); err == nil {
		t.Fatal("lineage without key/prefix accepted")
	}
	if err := cmdLineage([]string{dir, "-key", "ghost"}); err == nil {
		t.Fatal("lineage for unknown key accepted")
	}
	err := cmdExport([]string{dir, "-view", "bogus"})
	if err == nil {
		t.Fatal("unknown view accepted")
	}
	// The error must name the valid views so the user can self-correct.
	if !strings.Contains(err.Error(), "valid:") || !strings.Contains(err.Error(), "critpath") {
		t.Fatalf("unknown-view error does not list valid views: %v", err)
	}
	if err := cmdWhatIf([]string{dir, "-scenario", "workers=0"}, io.Discard); err == nil {
		t.Fatal("invalid scenario accepted")
	}
}

func TestCLIWindowCompareDarshanSVG(t *testing.T) {
	if testing.Short() {
		t.Skip("full workflow run")
	}
	dir := writeRun(t)
	if err := cmdWindow([]string{dir, "-from", "0", "-to", "20"}); err != nil {
		t.Fatalf("window: %v", err)
	}
	if err := cmdCompare([]string{dir, dir}); err != nil {
		t.Fatalf("compare: %v", err)
	}
	if err := cmdCompare([]string{dir}); err == nil {
		t.Fatal("compare with one dir accepted")
	}
	if err := cmdDarshan([]string{dir, "-top", "3"}); err != nil {
		t.Fatalf("darshan: %v", err)
	}
	out := filepath.Join(t.TempDir(), "fig.svg")
	for _, fig := range []string{"iotimeline", "comm", "warnings", "phases", "critpath"} {
		if err := cmdSVG([]string{dir, "-figure", fig, "-o", out}); err != nil {
			t.Fatalf("svg %s: %v", fig, err)
		}
		if st, err := os.Stat(out); err != nil || st.Size() == 0 {
			t.Fatalf("svg %s produced no file", fig)
		}
	}
	if err := cmdSVG([]string{dir, "-figure", "bogus", "-o", out}); err == nil {
		t.Fatal("unknown figure accepted")
	}
	if err := cmdCorrelate([]string{dir, "-bin", "10"}); err != nil {
		t.Fatalf("correlate: %v", err)
	}
	if err := cmdHeatmap([]string{dir}); err != nil {
		t.Fatalf("heatmap: %v", err)
	}
	if err := cmdMetadata([]string{dir}); err != nil {
		t.Fatalf("metadata: %v", err)
	}
}

// TestCLIWhatIf replays scenarios from a run dir and, as JSON, from the
// run's durable data dir; a missing dir is an error, not an exit.
func TestCLIWhatIf(t *testing.T) {
	if testing.Short() {
		t.Skip("full workflow run")
	}
	wf, err := workloads.New("imageprocessing")
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	cfg := workloads.DefaultSession("imageprocessing", "imageprocessing-0009", 9)
	cfg.MofkaDataDir = filepath.Join(tmp, "data")
	art, err := core.Run(cfg, wf)
	if err != nil {
		t.Fatal(err)
	}
	runDir := filepath.Join(tmp, "imageprocessing-0009")
	if err := art.WriteDir(runDir); err != nil {
		t.Fatal(err)
	}

	var buf strings.Builder
	if err := cmdWhatIf([]string{runDir, "-scenario", "baseline", "-scenario", "workers=2 threads=1"}, &buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"what-if replay", "baseline", "workers=2 threads=1"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("whatif output missing %q:\n%s", want, buf.String())
		}
	}

	var jsonBuf strings.Builder
	if err := cmdWhatIf([]string{cfg.MofkaDataDir, "-json"}, &jsonBuf); err != nil {
		t.Fatal(err)
	}
	var results []whatif.Result
	if err := json.Unmarshal([]byte(jsonBuf.String()), &results); err != nil {
		t.Fatalf("whatif -json unparseable: %v\n%s", err, jsonBuf.String())
	}
	if len(results) != 1 || results[0].Scenario != "baseline" {
		t.Fatalf("whatif -json results = %+v", results)
	}
	// Self-replay of the unchanged configuration stays within the validation
	// tolerance.
	if d := results[0].DeltaFraction; d < -0.10 || d > 0.10 {
		t.Errorf("baseline self-replay off by %.1f%%", 100*d)
	}

	if err := cmdWhatIf([]string{filepath.Join(tmp, "nope")}, io.Discard); err == nil {
		t.Fatal("whatif on missing dir accepted")
	}
}
