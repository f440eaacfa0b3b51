package dask

import (
	"fmt"
	"strings"
	"testing"

	"taskprov/internal/sim"
)

func TestTaskFailureMarksGraphErred(t *testing.T) {
	env := newEnv(1, smallCfg())
	g := NewGraph(1)
	g.Add(&TaskSpec{Key: "ok-01", EstDuration: sim.Milliseconds(20), OutputSize: 8})
	g.Add(&TaskSpec{Key: "boom-02", OutputSize: 8, Run: func(ctx *TaskContext) {
		ctx.Compute(sim.Milliseconds(10))
		ctx.Fail("synthetic failure")
	}})
	g.Add(&TaskSpec{Key: "child-03", Deps: []TaskKey{"boom-02"}, EstDuration: sim.Milliseconds(10), OutputSize: 8})
	g.Add(&TaskSpec{Key: "grandchild-04", Deps: []TaskKey{"child-03"}, EstDuration: sim.Milliseconds(10), OutputSize: 8})
	env.runWorkflow(func(p *sim.Proc, cl *Client) {
		cl.SubmitAndWait(p, g)
		if cl.GraphError(1) == "" {
			t.Error("graph error not surfaced")
		}
		if !strings.Contains(cl.GraphError(1), "boom-02") {
			t.Errorf("error = %q", cl.GraphError(1))
		}
	})
	s := env.c.scheduler
	if s.TaskState("boom-02") != StateErred {
		t.Fatalf("boom state = %s", s.TaskState("boom-02"))
	}
	// Failure propagates to waiting dependents, transitively.
	if s.TaskState("child-03") != StateErred || s.TaskState("grandchild-04") != StateErred {
		t.Fatalf("dependents = %s, %s", s.TaskState("child-03"), s.TaskState("grandchild-04"))
	}
	// Independent tasks still succeed.
	if !s.HasInMemory("ok-01") {
		t.Fatal("independent task lost")
	}
	// Only boom-02 executed among the failing chain.
	for _, e := range env.rec.execs {
		if e.Key == "child-03" || e.Key == "grandchild-04" {
			t.Fatalf("dependent %s executed after upstream failure", e.Key)
		}
	}
}

func TestTaskRetriesThenSucceeds(t *testing.T) {
	env := newEnv(1, smallCfg())
	attempts := 0
	g := NewGraph(1)
	g.Add(&TaskSpec{
		Key: "flaky-01", OutputSize: 8, MaxRetries: 3,
		Run: func(ctx *TaskContext) {
			attempts++
			ctx.Compute(sim.Milliseconds(10))
			if attempts < 3 {
				ctx.Fail("transient")
			}
		},
	})
	env.runWorkflow(func(p *sim.Proc, cl *Client) {
		cl.SubmitAndWait(p, g)
		if cl.GraphError(1) != "" {
			t.Errorf("flaky task with retries failed the graph: %s", cl.GraphError(1))
		}
	})
	if attempts != 3 {
		t.Fatalf("attempts = %d, want 3", attempts)
	}
	if !env.c.scheduler.HasInMemory("flaky-01") {
		t.Fatal("retried task not in memory")
	}
	// The retry stimuli appear in the scheduler transition stream.
	retries := 0
	for _, tr := range env.rec.schedTrans {
		if tr.Key == "flaky-01" && tr.Stimulus == "retry" {
			retries++
		}
	}
	if retries != 2 {
		t.Fatalf("retry transitions = %d, want 2", retries)
	}
}

func TestTaskRetriesExhausted(t *testing.T) {
	env := newEnv(1, smallCfg())
	attempts := 0
	g := NewGraph(1)
	g.Add(&TaskSpec{
		Key: "doomed-01", OutputSize: 8, MaxRetries: 2,
		Run: func(ctx *TaskContext) {
			attempts++
			ctx.Compute(sim.Milliseconds(5))
			ctx.Fail("permanent")
		},
	})
	env.runWorkflow(func(p *sim.Proc, cl *Client) {
		cl.SubmitAndWait(p, g)
		if cl.GraphError(1) == "" {
			t.Error("exhausted retries did not fail the graph")
		}
	})
	if attempts != 3 { // initial + 2 retries
		t.Fatalf("attempts = %d, want 3", attempts)
	}
}

func TestFailureDoesNotLeakThreads(t *testing.T) {
	env := newEnv(1, smallCfg())
	g := NewGraph(1)
	for i := 0; i < 20; i++ {
		i := i
		g.Add(&TaskSpec{
			Key: TaskKey(fmt.Sprintf("mixed-%03d", i)), OutputSize: 8,
			Run: func(ctx *TaskContext) {
				ctx.Compute(sim.Milliseconds(15))
				if i%3 == 0 {
					ctx.Fail("every third fails")
				}
			},
		})
	}
	env.runWorkflow(func(p *sim.Proc, cl *Client) {
		cl.SubmitAndWait(p, g)
	})
	// All workers' thread pools must be whole again.
	for _, w := range env.c.Workers() {
		if len(w.freeThreads) != env.c.Config().ThreadsPerWorker {
			t.Fatalf("worker %d has %d free threads, want %d",
				w.rank, len(w.freeThreads), env.c.Config().ThreadsPerWorker)
		}
	}
}
