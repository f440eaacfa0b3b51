package workloads

import (
	"testing"

	"taskprov/internal/core"
)

// TestSimOnlyAllocBudget holds the simulated runtime itself — kernel,
// platform, file system, scheduler and workers, collection off — to the
// malloc count it had when a task's round trip and its PFS operations
// stopped allocating in the runtime: 7.2 per task of imageprocessing at seed
// 1, nearly all of it the workload's graph construction (21.5 while assign,
// fetch, execute, finish and every PFS operation built closures; 36.0 while
// the task table kept maps per task and task keys went through fmt; 136.5
// with an Event, a job and four closures per message and a coroutine per
// task). bench/e2e's
// sim-only workload measures the same thing per provenance event, but tier-1
// does not run it.
func TestSimOnlyAllocBudget(t *testing.T) {
	const budget = 1.15 * 7.2
	cfg := DefaultSession("imageprocessing", "job-sim-budget", 1)
	cfg.DisableCollection = true
	if perTask := imageprocessingMallocsPerTask(t, cfg); perTask > budget {
		t.Errorf("a collection-off session costs %.1f mallocs per task, budget %.1f", perTask, budget)
	}
}

// TestCollectOnAllocBudget holds a whole collection-on session — the
// simulated runtime plus tracers, collector, encode, producer and broker —
// to the malloc count it had when the simulated runtime under it stopped
// allocating per task: 8.4 per task of imageprocessing at seed 1 (23.1
// before, 30.7 while the session fitted a what-if model at the end of every
// instrumented run). Analysis a caller asks for runs on demand from the
// run's records; this budget fails if it comes back as an end-of-run step.
func TestCollectOnAllocBudget(t *testing.T) {
	const budget = 1.15 * 8.4
	cfg := DefaultSession("imageprocessing", "job-collect-budget", 1)
	if perTask := imageprocessingMallocsPerTask(t, cfg); perTask > budget {
		t.Errorf("a collection-on session costs %.1f mallocs per task, budget %.1f", perTask, budget)
	}
}

// imageprocessingMallocsPerTask runs the whole imageprocessing workflow
// under cfg and returns the mallocs it cost per distinct task.
func imageprocessingMallocsPerTask(t *testing.T, cfg core.SessionConfig) float64 {
	t.Helper()
	if testing.Short() {
		t.Skip("full workflow run")
	}
	wf, err := New("imageprocessing")
	if err != nil {
		t.Fatal(err)
	}
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
	return n / tasks
}
