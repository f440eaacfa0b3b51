package perfrecup

import (
	"encoding/xml"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"taskprov/internal/core"
	"taskprov/internal/whatif"
)

// TestCritPathGoldenDeterminism pins the critpath report byte-identical
// across every load path: the live in-memory broker, a WAL replay of the
// durable event log, and a post-mortem load of the written run directory.
// The report is a pure function of the recorded provenance, so the loader
// that materialized it must not be observable in the output.
func TestCritPathGoldenDeterminism(t *testing.T) {
	dataDir := t.TempDir()
	live := durableRun(t, dataDir)

	golden, err := RenderCritPath(live)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(golden, "attribution:") || !strings.Contains(golden, "chain (time order):") {
		t.Fatalf("report missing sections:\n%s", golden)
	}
	// The attribution must cover the makespan (the >= 95% acceptance bound;
	// it is exactly 100% by construction on a consistent stream).
	if !strings.Contains(golden, "coverage 100.0%") {
		t.Fatalf("report does not attribute the full makespan:\n%s", golden)
	}

	wal, err := LoadEventLog(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	fromWAL, err := RenderCritPath(wal)
	if err != nil {
		t.Fatal(err)
	}
	if fromWAL != golden {
		t.Errorf("critpath report differs between live broker and WAL replay:\nlive:\n%s\nwal:\n%s", golden, fromWAL)
	}

	runDir := filepath.Join(t.TempDir(), "run")
	if err := live.WriteDir(runDir); err != nil {
		t.Fatal(err)
	}
	pm, err := core.LoadDir(runDir)
	if err != nil {
		t.Fatal(err)
	}
	fromDir, err := RenderCritPath(pm)
	if err != nil {
		t.Fatal(err)
	}
	if fromDir != golden {
		t.Errorf("critpath report differs between live broker and post-mortem run dir:\nlive:\n%s\ndir:\n%s", golden, fromDir)
	}

	// Rendering is repeatable on the same artifacts (no hidden map-order or
	// drain-state dependence).
	again, err := RenderCritPath(live)
	if err != nil {
		t.Fatal(err)
	}
	if again != golden {
		t.Error("second render of the same artifacts differs")
	}
}

// TestCriticalSecondsBitReproducible: the attributed total is the same float,
// bit for bit, on every call and whichever loader materialized the stream —
// live broker, WAL replay, or the written run directory.
func TestCriticalSecondsBitReproducible(t *testing.T) {
	dataDir := t.TempDir()
	live := durableRun(t, dataDir)
	wal, err := LoadEventLog(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	runDir := filepath.Join(t.TempDir(), "run")
	if err := live.WriteDir(runDir); err != nil {
		t.Fatal(err)
	}
	pm, err := core.LoadDir(runDir)
	if err != nil {
		t.Fatal(err)
	}
	var want uint64
	for i, art := range []*core.RunArtifacts{live, wal, pm} {
		model, err := whatif.Extract(art.WhatIfInput())
		if err != nil {
			t.Fatal(err)
		}
		cp := model.CriticalPath()
		if len(cp.Categories) < 3 {
			t.Fatalf("path attributes only %v: the sum has no order to get wrong", cp.Categories)
		}
		if i == 0 {
			want = math.Float64bits(cp.CriticalSeconds())
		}
		for call := 0; call < 100; call++ {
			if got := math.Float64bits(cp.CriticalSeconds()); got != want {
				t.Fatalf("source %d, call %d: CriticalSeconds = %x, first was %x", i, call, got, want)
			}
		}
		if again := math.Float64bits(model.CriticalPath().CriticalSeconds()); again != want {
			t.Fatalf("source %d: a second extraction sums to %x, first %x", i, again, want)
		}
	}
}

// TestCritPathViewAndSVG: the frame view carries the chain with its
// decomposition and slack, and the SVG overlay is well-formed XML.
func TestCritPathViewAndSVG(t *testing.T) {
	dir := t.TempDir()
	art := durableRun(t, dir)

	f, err := CritPathView(art)
	if err != nil {
		t.Fatal(err)
	}
	if f.NRows() == 0 {
		t.Fatal("empty critpath view")
	}
	for _, col := range []string{"step", "key", "worker", "reason", "compute", "io", "proxy",
		"wait_transfer", "wait_scheduler", "slack"} {
		if !f.HasCol(col) {
			t.Errorf("critpath view missing column %q", col)
		}
	}
	// The chain is in time order and ends at the run's last task.
	stops := f.Col("stop")
	for i := 1; i < f.NRows(); i++ {
		if stops.Float(i) < stops.Float(i-1) {
			t.Errorf("chain not in time order at step %d", i+1)
		}
	}

	svg, err := CritPathSVG(art)
	if err != nil {
		t.Fatal(err)
	}
	if err := xml.Unmarshal([]byte(svg), new(struct{})); err != nil {
		t.Fatalf("critpath SVG is not well-formed XML: %v", err)
	}
	if !strings.Contains(svg, "critical path") {
		t.Error("SVG lacks the critical-path legend")
	}
}

// TestRenderWhatIf: the scenario table includes every requested scenario
// with its mode and prediction, and baseline self-replay stays within the
// validation tolerance.
func TestRenderWhatIf(t *testing.T) {
	dir := t.TempDir()
	art := durableRun(t, dir)
	model, err := art.ExtractModel()
	if err != nil {
		t.Fatal(err)
	}
	scenarios := []whatif.Scenario{{}, {Workers: 1, ThreadsPerWorker: 1}}
	var results []*whatif.Result
	for _, s := range scenarios {
		r, err := model.Replay(s)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, r)
	}
	if d := results[0].DeltaFraction; d < -0.10 || d > 0.10 {
		t.Errorf("baseline self-replay off by %.1f%%", 100*d)
	}
	out := RenderWhatIf(model, results)
	for _, want := range []string{"baseline", "workers=1 threads=1", "pinned", "replaced", "measured makespan"} {
		if !strings.Contains(out, want) {
			t.Errorf("what-if table missing %q:\n%s", want, out)
		}
	}
}
