package workloads

import (
	"testing"

	"taskprov/internal/core"
)

// TestSimOnlyAllocBudget holds the simulated runtime itself — kernel,
// platform, file system, scheduler and workers, collection off — to the
// malloc count it had when messages, timers and processes stopped allocating:
// 36.0 per task of imageprocessing at seed 1 (it was 136.5 with an Event, a
// job and four closures per message and a coroutine per task). bench/e2e's
// sim-only workload measures the same thing per provenance event, but tier-1
// does not run it.
func TestSimOnlyAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("full workflow run")
	}
	const budget = 1.15 * 36.0
	wf, err := New("imageprocessing")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultSession("imageprocessing", "job-sim-budget", 1)
	cfg.DisableCollection = true
	var art *core.RunArtifacts
	n := mallocs(func() { art, err = core.Run(cfg, wf) })
	if err != nil {
		t.Fatal(err)
	}
	if art.Meta.WallSeconds < 10 {
		t.Fatalf("the run lasted %v virtual seconds, want the whole workflow", art.Meta.WallSeconds)
	}
	tasks := float64(TableI["imageprocessing"].DistinctTasks)
	t.Logf("%v mallocs for %v tasks: %.1f per task", n, tasks, n/tasks)
	if n/tasks > budget {
		t.Errorf("a collection-off session costs %.1f mallocs per task, budget %.1f", n/tasks, budget)
	}
}
