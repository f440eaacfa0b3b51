package workloads

import (
	"fmt"
	"testing"

	"taskprov/internal/core"
	"taskprov/internal/dask"
)

// TestSimOnlyAllocBudget holds the simulated runtime itself — kernel,
// platform, file system, scheduler and workers, collection off — to the
// malloc count it had when the workload's graphs stopped costing mallocs per
// task: 1.9 per task of imageprocessing at seed 1 (7.2 while every key, spec,
// Deps list and Finalize's dependents lists were a malloc each; 21.5 while
// assign, fetch, execute, finish and every PFS operation built closures;
// 36.0 while the task table kept maps per task and task keys went through
// fmt; 136.5 with an Event, a job and four closures per message and a
// coroutine per task). bench/e2e's sim-only workload measures the same thing
// per provenance event, but tier-1 does not run it.
func TestSimOnlyAllocBudget(t *testing.T) {
	const budget = 1.15 * 1.9
	cfg := DefaultSession("imageprocessing", "job-sim-budget", 1)
	cfg.DisableCollection = true
	if perTask := imageprocessingMallocsPerTask(t, cfg); perTask > budget {
		t.Errorf("a collection-off session costs %.1f mallocs per task, budget %.1f", perTask, budget)
	}
}

// TestCollectOnAllocBudget holds a whole collection-on session — the
// simulated runtime plus tracers, collector, encode, producer and broker —
// to the malloc count it had when the workload's graphs stopped costing
// mallocs per task: 3.1 per task of imageprocessing at seed 1 (8.4 before,
// 23.1 while the simulated runtime under it allocated per task, 30.7 while
// the session fitted a what-if model at the end of every instrumented run).
// Analysis a caller asks for runs on demand from the run's records; this
// budget fails if it comes back as an end-of-run step.
func TestCollectOnAllocBudget(t *testing.T) {
	const budget = 1.15 * 3.1
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

// TestGraphBuildAllocBudget holds building and finalizing each paper
// workflow's graphs — every key, spec, dependency list and topological order
// — to its mallocs per task beyond the task bodies' closures, which are the
// one malloc a task may cost: the graph keeps specs in a slab, keys in
// append-only chunks and dependency lists in arenas, and orders itself over
// dense indices. The budgets are 1.15 times what was measured when that
// became so (imageprocessing cost 5.3 mallocs per task before, a key, a spec,
// a Deps list and Finalize's dependents lists each).
func TestGraphBuildAllocBudget(t *testing.T) {
	ip, rn, xg := NewImageProcessing(), NewResNet152(), NewXGBoost()
	xg.threads = 8
	for i := 0; i < 8; i++ {
		xg.workers = append(xg.workers, fmt.Sprintf("tcp://10.0.0.%d:40000", i))
	}
	cases := []struct {
		name   string
		build  func() []*dask.Graph
		bodies int     // tasks with a Run closure
		budget float64 // mallocs per task beyond the bodies
	}{
		{"imageprocessing", func() []*dask.Graph {
			return []*dask.Graph{ip.graph1(), ip.graph2(), ip.graph3()}
		}, 5*ip.NumImages + 1, 1.15 * 0.032},
		{"resnet152", func() []*dask.Graph {
			return []*dask.Graph{rn.graph()}
		}, rn.NumImages, 1.15 * 0.018},
		{"xgboost", func() []*dask.Graph {
			gs := make([]*dask.Graph, 0, xg.Months+2)
			for m := 0; m < xg.Months; m++ {
				gs = append(gs, xg.monthGraph(m))
			}
			return append(gs, xg.trainGraph(), xg.predictGraph())
		}, xg.Months + len(xg.workers)*xg.threads, 1.15 * 0.239},
	}
	for _, c := range cases {
		var graphs []*dask.Graph
		var err error
		n := mallocs(func() {
			graphs = c.build()
			for _, g := range graphs {
				if err = g.Finalize(); err != nil {
					return
				}
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		tasks := 0
		for _, g := range graphs {
			tasks += g.Len()
		}
		if want := TableI[c.name].DistinctTasks; tasks != want {
			t.Fatalf("%s: %d tasks, want Table I's %d", c.name, tasks, want)
		}
		perTask := (n - float64(c.bodies)) / float64(tasks)
		t.Logf("%s: %v mallocs for %d graphs of %d tasks, %d bodies: %.3f per task beyond the bodies", c.name, n, len(graphs), tasks, c.bodies, perTask)
		if perTask > c.budget {
			t.Errorf("%s: building and finalizing its graphs costs %.3f mallocs per task beyond the bodies, budget %.3f", c.name, perTask, c.budget)
		}
	}
}
