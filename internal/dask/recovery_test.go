package dask

import (
	"fmt"
	"testing"

	"taskprov/internal/sim"
)

// wideGraph builds two layers of cross-dependent tasks plus one sink, sized
// so a mid-run worker crash always catches tasks processing and finished
// layer-1 outputs still needed by layer 2.
func wideGraph(id, width int) *Graph {
	g := NewGraph(id)
	var srcs []TaskKey
	for i := 0; i < width; i++ {
		k := TaskKey(fmt.Sprintf("src-%02d", i))
		g.Add(&TaskSpec{Key: k, EstDuration: sim.Seconds(1), OutputSize: 1 << 20})
		srcs = append(srcs, k)
	}
	var mids []TaskKey
	for i := 0; i < width; i++ {
		k := TaskKey(fmt.Sprintf("mid-%02d", i))
		deps := []TaskKey{srcs[i], srcs[(i+1)%width], srcs[(i+3)%width]}
		g.Add(&TaskSpec{Key: k, Deps: deps, EstDuration: sim.Milliseconds(1500), OutputSize: 1 << 18})
		mids = append(mids, k)
	}
	g.Add(&TaskSpec{Key: "sink-00", Deps: mids, EstDuration: sim.Milliseconds(100), OutputSize: 256})
	return g
}

// warningKinds collects the distinct warning kinds observed.
func warningKinds(warns []Warning) map[WarningKind]int {
	kinds := make(map[WarningKind]int)
	for _, w := range warns {
		kinds[w.Kind]++
	}
	return kinds
}

// TestWorkerCrashRecovers is the tentpole recovery scenario: one of four
// workers dies mid-run, the scheduler declares it dead after WorkerTTL,
// reschedules its processing tasks, recomputes its lost in-memory keys, and
// the graph still completes correctly.
func TestWorkerCrashRecovers(t *testing.T) {
	env := newEnv(42, smallCfg())
	victim := 2
	// Workers connect within [0.5s, 3s]; the client submits right after. At
	// 4.2s layer 1 is partly done (outputs live on the victim) and tasks are
	// processing everywhere.
	env.k.At(sim.Seconds(4.2), func() { env.c.KillWorker(victim) })
	g := wideGraph(1, 16)
	env.runWorkflow(func(p *sim.Proc, cl *Client) {
		cl.SubmitAndWait(p, g)
		if e := cl.GraphError(1); e != "" {
			t.Errorf("graph erred: %s", e)
		}
	})

	s := env.c.scheduler
	if s.lostCount != 1 {
		t.Fatalf("LostWorkers = %d, want 1", s.lostCount)
	}
	if !s.HasInMemory("sink-00") {
		t.Fatal("sink result missing")
	}
	// Every task ran at least once; recomputed keys ran more than once.
	ran := make(map[TaskKey]int)
	for _, e := range env.rec.execs {
		ran[e.Key]++
	}
	for _, k := range g.Keys() {
		if ran[k] == 0 {
			t.Errorf("task %s never executed", k)
		}
	}
	kinds := warningKinds(env.rec.warnings)
	if kinds[WarnWorkerLost] != 1 {
		t.Fatalf("worker_lost warnings = %d, want 1", kinds[WarnWorkerLost])
	}
	if kinds[WarnTaskRescheduled] == 0 {
		t.Error("no task_rescheduled warnings")
	}
	// The dead worker never executes anything after the kill.
	addr := env.c.Workers()[victim].Addr()
	for _, e := range env.rec.execs {
		if e.Worker == addr && e.Stop > sim.Seconds(4.2) {
			t.Fatalf("dead worker reported execution of %s stopping at %v", e.Key, e.Stop)
		}
	}
}

// TestLostKeyRecomputed crashes the worker holding a finished key that a
// still-running consumer has not yet released; the scheduler must recompute
// it rather than deadlock.
func TestLostKeyRecomputed(t *testing.T) {
	env := newEnv(7, smallCfg())
	env.k.At(sim.Seconds(4.2), func() { env.c.KillWorker(1) })
	g := wideGraph(1, 16)
	env.runWorkflow(func(p *sim.Proc, cl *Client) {
		cl.SubmitAndWait(p, g)
	})
	kinds := warningKinds(env.rec.warnings)
	if kinds[WarnKeyRecomputed] == 0 {
		t.Fatal("no key_recomputed warnings; crash did not lose any needed key")
	}
	ran := make(map[TaskKey]int)
	recomputed := 0
	for _, e := range env.rec.execs {
		ran[e.Key]++
	}
	for _, n := range ran {
		if n > 1 {
			recomputed++
		}
	}
	if recomputed == 0 {
		t.Fatal("key_recomputed warned but no task executed twice")
	}
	if !env.c.scheduler.HasInMemory("sink-00") {
		t.Fatal("sink result missing")
	}
}

// TestWorkerRestartRejoins kills a worker and boots a replacement process
// before the run ends: the scheduler evicts the old incarnation, admits the
// new one, and the rejoined worker executes work again.
func TestWorkerRestartRejoins(t *testing.T) {
	env := newEnv(11, smallCfg())
	victim := 0
	env.k.At(sim.Seconds(4), func() { env.c.KillWorker(victim) })
	env.k.At(sim.Seconds(9), func() { env.c.RestartWorker(victim) })
	g := wideGraph(1, 24)
	env.runWorkflow(func(p *sim.Proc, cl *Client) {
		cl.SubmitAndWait(p, g)
		if e := cl.GraphError(1); e != "" {
			t.Errorf("graph erred: %s", e)
		}
	})
	kinds := warningKinds(env.rec.warnings)
	if kinds[WarnWorkerLost] != 1 {
		t.Fatalf("worker_lost = %d, want 1", kinds[WarnWorkerLost])
	}
	if kinds[WarnWorkerRejoined] != 1 {
		t.Fatalf("worker_rejoined = %d, want 1", kinds[WarnWorkerRejoined])
	}
	addr := env.c.Workers()[victim].Addr()
	rejoinedRan := false
	for _, e := range env.rec.execs {
		if e.Worker == addr && e.Start > sim.Seconds(9) {
			rejoinedRan = true
			break
		}
	}
	if !rejoinedRan {
		t.Error("restarted worker never executed a task after rejoining")
	}
}

// TestRepeatedCrashMarksTaskErred pins a task to one worker and kills that
// worker every time the task lands on it; past AllowedFailures the task is
// marked erred instead of being rescheduled forever.
func TestRepeatedCrashMarksTaskErred(t *testing.T) {
	cfg := smallCfg()
	cfg.AllowedFailures = 1
	env := newEnv(3, cfg)
	victim := 1
	addr := workerAddr(env.c.Workers()[victim].node.Hostname, victim)

	g := NewGraph(1)
	g.Add(&TaskSpec{
		Key: "pinned-01", EstDuration: sim.Seconds(30), OutputSize: 8,
		Restrictions: []string{addr},
	})
	// Kill the pinned worker twice, restarting in between so the task can be
	// reassigned to it (suspicious = 2 > AllowedFailures = 1 -> erred).
	env.k.At(sim.Seconds(4), func() { env.c.KillWorker(victim) })
	env.k.At(sim.Seconds(9), func() { env.c.RestartWorker(victim) })
	env.k.At(sim.Seconds(14), func() { env.c.KillWorker(victim) })
	env.runWorkflow(func(p *sim.Proc, cl *Client) {
		cl.SubmitAndWait(p, g)
		if cl.GraphError(1) == "" {
			t.Error("graph error not surfaced for repeatedly crashed task")
		}
	})
	if st := env.c.scheduler.TaskState("pinned-01"); st != StateErred {
		t.Fatalf("pinned task state = %s, want erred", st)
	}
}

// TestCrashWithStealingRetries runs the crash scenario with work stealing
// and task retries active together: steal bookkeeping must survive the
// eviction (no negative in-flight counters, no lost tasks).
func TestCrashWithStealingRetries(t *testing.T) {
	cfg := smallCfg()
	cfg.WorkStealing = true
	env := newEnv(5, cfg)
	env.k.At(sim.Seconds(4.5), func() { env.c.KillWorker(3) })

	attempts := make(map[string]int)
	g := NewGraph(1)
	var deps []TaskKey
	for i := 0; i < 24; i++ {
		i := i
		k := TaskKey(fmt.Sprintf("flaky-%02d", i))
		deps = append(deps, k)
		g.Add(&TaskSpec{
			Key: k, OutputSize: 1 << 16, MaxRetries: 2,
			Run: func(ctx *TaskContext) {
				attempts[fmt.Sprint(i)]++
				ctx.Compute(sim.Milliseconds(800))
				if attempts[fmt.Sprint(i)] == 1 && i%6 == 0 {
					ctx.Fail("transient")
				}
			},
		})
	}
	g.Add(&TaskSpec{Key: "gather-00", Deps: deps, EstDuration: sim.Milliseconds(50), OutputSize: 64})
	env.runWorkflow(func(p *sim.Proc, cl *Client) {
		cl.SubmitAndWait(p, g)
		if e := cl.GraphError(1); e != "" {
			t.Errorf("graph erred: %s", e)
		}
	})
	if !env.c.scheduler.HasInMemory("gather-00") {
		t.Fatal("gather result missing")
	}
	for i := 0; i < 24; i += 6 {
		if attempts[fmt.Sprint(i)] < 2 {
			t.Errorf("flaky-%02d retried %d times, want >= 2", i, attempts[fmt.Sprint(i)])
		}
	}
}

// TestCrashPropertyResultsMatchBaseline is the recovery property test: for
// random DAGs, a single worker crash at a random mid-run time must leave the
// final results identical to the crash-free baseline — same leaves in
// memory, every task executed, no graph error.
func TestCrashPropertyResultsMatchBaseline(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		seed := uint64(9000 + trial)
		gen := sim.NewRNG(seed).Split("crash")
		layers, width := gen.IntBetween(3, 6), 8

		type outcome struct {
			leaves map[TaskKey]bool
			err    string
		}
		run := func(kill bool) outcome {
			env := newEnv(seed, smallCfg())
			g := randomDAG(1, sim.NewRNG(seed).Split("dag"), layers, width)
			if kill {
				victim := gen.Intn(len(env.c.Workers()))
				at := sim.Seconds(gen.Uniform(3.5, 5.5))
				env.k.At(at, func() { env.c.KillWorker(victim) })
			}
			var errMsg string
			env.runWorkflow(func(p *sim.Proc, cl *Client) {
				cl.SubmitAndWait(p, g)
				errMsg = cl.GraphError(1)
			})
			o := outcome{leaves: make(map[TaskKey]bool), err: errMsg}
			for _, k := range g.Leaves() {
				o.leaves[k] = env.c.scheduler.HasInMemory(k)
			}
			return o
		}

		base := run(false)
		crashed := run(true)
		if crashed.err != "" {
			t.Fatalf("seed %d: crashed run erred: %s", seed, crashed.err)
		}
		if len(base.leaves) != len(crashed.leaves) {
			t.Fatalf("seed %d: leaf sets differ", seed)
		}
		for k, inMem := range base.leaves {
			if !inMem {
				t.Fatalf("seed %d: baseline leaf %s not in memory", seed, k)
			}
			if !crashed.leaves[k] {
				t.Fatalf("seed %d: leaf %s lost after crash recovery", seed, k)
			}
		}
	}
}

// TestCrashDeterminism re-runs one crash scenario under the same seed and
// requires the identical warning (failure/recovery) sequence.
func TestCrashDeterminism(t *testing.T) {
	run := func() []Warning {
		env := newEnv(13, smallCfg())
		env.k.At(sim.Seconds(4.2), func() { env.c.KillWorker(2) })
		g := wideGraph(1, 16)
		env.runWorkflow(func(p *sim.Proc, cl *Client) {
			cl.SubmitAndWait(p, g)
		})
		return env.rec.warnings
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("warning counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("warning %d differs:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}
