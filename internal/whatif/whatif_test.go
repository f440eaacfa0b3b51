package whatif_test

import (
	"math"
	"sync"
	"testing"

	"taskprov/internal/core"
	"taskprov/internal/whatif"
	"taskprov/internal/workloads"
)

// seededRun executes one seeded workload under full instrumentation,
// caching artifacts per workflow so the validation tests share runs.
var (
	runMu    sync.Mutex
	runCache = map[string]*core.RunArtifacts{}
)

func seededRun(t *testing.T, name string) *core.RunArtifacts {
	t.Helper()
	runMu.Lock()
	defer runMu.Unlock()
	if art, ok := runCache[name]; ok {
		return art
	}
	wf, err := workloads.New(name)
	if err != nil {
		t.Fatalf("workload %s: %v", name, err)
	}
	cfg := workloads.DefaultSession(name, "whatif-"+name, 7)
	art, err := core.Run(cfg, wf)
	if err != nil {
		t.Fatalf("run %s: %v", name, err)
	}
	runCache[name] = art
	return art
}

// TestSelfReplayValidation is the subsystem's acceptance gate: replaying the
// *unchanged* scenario over the extracted model must predict the measured
// makespan within +/-10% — on both the ImageProcessing and xgboost seeded
// runs (`make whatif` runs exactly this test).
func TestSelfReplayValidation(t *testing.T) {
	for _, name := range []string{"imageprocessing", "xgboost"} {
		t.Run(name, func(t *testing.T) {
			art := seededRun(t, name)
			model, err := art.ExtractModel()
			if err != nil {
				t.Fatalf("extract: %v", err)
			}
			res, err := model.Replay(whatif.Scenario{})
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			if res.Mode != "pinned" {
				t.Errorf("baseline replay mode = %q, want pinned", res.Mode)
			}
			rel := math.Abs(res.DeltaFraction)
			t.Logf("%s: measured %.3fs, predicted %.3fs (%.2f%%), utilization %.3f -> %.3f",
				name, res.MeasuredMakespanSeconds, res.PredictedMakespanSeconds,
				100*res.DeltaFraction, res.MeasuredUtilization, res.PredictedUtilization)
			if rel > 0.10 {
				t.Errorf("self-replay error %.2f%% exceeds the 10%% tolerance (measured %.3fs, predicted %.3fs)",
					100*rel, res.MeasuredMakespanSeconds, res.PredictedMakespanSeconds)
			}
		})
	}
}

// TestCriticalPathAttribution checks the second acceptance criterion: the
// whole-run critical path attributes at least 95% of its span to the named
// categories on the seeded examples.
func TestCriticalPathAttribution(t *testing.T) {
	for _, name := range []string{"imageprocessing", "xgboost"} {
		t.Run(name, func(t *testing.T) {
			art := seededRun(t, name)
			model, err := art.ExtractModel()
			if err != nil {
				t.Fatalf("extract: %v", err)
			}
			cp := model.CriticalPath()
			if cp.MakespanSeconds <= 0 {
				t.Fatalf("critical path has no span")
			}
			t.Logf("%s: critical path %.3fs over %d tasks, dominant %s, categories %v",
				name, cp.MakespanSeconds, len(cp.Tasks), cp.Dominant(), cp.Categories)
			if cp.Coverage < 0.95 {
				t.Errorf("attribution coverage %.3f < 0.95 (categories %v over %.3fs)",
					cp.Coverage, cp.Categories, cp.MakespanSeconds)
			}
			if cp.Coverage > 1.05 {
				t.Errorf("attribution coverage %.3f > 1.05 — double counting", cp.Coverage)
			}
		})
	}
}
