package dask

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"taskprov/internal/sim"
)

func timeNow() int64 { return time.Now().UnixNano() }

// randomDAG builds a layered random DAG with the given rng stream.
func randomDAG(id int, rng *sim.RNG, layers, width int) *Graph {
	g := NewGraph(id)
	var prev []TaskKey
	for l := 0; l < layers; l++ {
		n := rng.IntBetween(1, width)
		var cur []TaskKey
		for i := 0; i < n; i++ {
			key := TaskKey(fmt.Sprintf("t-%02d-%02d", l, i))
			var deps []TaskKey
			for _, p := range prev {
				if rng.Bool(0.4) {
					deps = append(deps, p)
				}
			}
			// Ensure connectivity beyond layer 0.
			if l > 0 && len(deps) == 0 {
				deps = append(deps, prev[rng.Intn(len(prev))])
			}
			g.Add(&TaskSpec{
				Key: key, Deps: deps,
				EstDuration: sim.Milliseconds(rng.Uniform(5, 120)),
				OutputSize:  int64(rng.IntBetween(1, 64)) << 16,
			})
			cur = append(cur, key)
		}
		prev = cur
	}
	return g
}

// TestRandomDAGsScheduleCorrectly is the scheduler's core property test:
// for arbitrary layered DAGs, every task executes exactly once, no task
// starts before all of its dependencies finished, transitions are
// well-formed, and the run is deterministic per seed.
func TestRandomDAGsScheduleCorrectly(t *testing.T) {
	for trial := 0; trial < 12; trial++ {
		seed := uint64(1000 + trial)
		gen := sim.NewRNG(seed).Split("dag")
		env := newEnv(seed, smallCfg())
		g := randomDAG(1, gen, gen.IntBetween(2, 6), 8)
		total := g.Len()
		env.runWorkflow(func(p *sim.Proc, cl *Client) {
			cl.SubmitAndWait(p, g)
		})

		// Exactly-once execution.
		execTimes := map[TaskKey]TaskExecution{}
		for _, e := range env.rec.execs {
			if _, dup := execTimes[e.Key]; dup {
				t.Fatalf("seed %d: task %s executed twice", seed, e.Key)
			}
			execTimes[e.Key] = e
		}
		if len(execTimes) != total {
			t.Fatalf("seed %d: executed %d/%d tasks", seed, len(execTimes), total)
		}

		// Dependency ordering.
		for _, k := range g.Keys() {
			spec, _ := g.Task(k)
			for _, d := range spec.Deps {
				if execTimes[k].Start < execTimes[d].Stop {
					t.Fatalf("seed %d: %s started %v before dep %s finished %v",
						seed, k, execTimes[k].Start, d, execTimes[d].Stop)
				}
			}
		}

		// Transition well-formedness: per (key, location), each transition's
		// From matches the previous To.
		last := map[string]TaskState{}
		for _, tr := range env.rec.schedTrans {
			id := string(tr.Key)
			if prev, ok := last[id]; ok && tr.From != prev {
				t.Fatalf("seed %d: scheduler transition chain broken for %s: %s -> (%s->%s)",
					seed, tr.Key, prev, tr.From, tr.To)
			}
			last[id] = tr.To
		}

		// Every leaf ends in scheduler-side memory.
		for _, k := range g.Leaves() {
			if env.c.scheduler.TaskState(k) != StateMemory {
				t.Fatalf("seed %d: leaf %s in state %s", seed, k, env.c.scheduler.TaskState(k))
			}
		}
	}
}

// TestRandomDAGDeterminism re-runs one random DAG under the same seed and
// requires identical execution records.
func TestRandomDAGDeterminism(t *testing.T) {
	run := func() []TaskExecution {
		gen := sim.NewRNG(77).Split("dag")
		env := newEnv(77, smallCfg())
		g := randomDAG(1, gen, 5, 6)
		env.runWorkflow(func(p *sim.Proc, cl *Client) {
			cl.SubmitAndWait(p, g)
		})
		return env.rec.execs
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("execution counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Fatalf("execution %d differs:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

// roots lists a graph's tasks with no dependencies, sorted.
func roots(g *Graph) []TaskKey {
	var out []TaskKey
	for k, t := range g.tasks {
		if len(t.Deps) == 0 {
			out = append(out, k)
		}
	}
	sortKeys(out)
	return out
}

// TestRandomDAGWithIO mixes I/O-performing tasks into random DAGs and
// checks Darshan-visible effects stay consistent with execution.
func TestRandomDAGWithIO(t *testing.T) {
	seed := uint64(31)
	gen := sim.NewRNG(seed).Split("dag")
	env := newEnv(seed, smallCfg())
	g := randomDAG(1, gen, 4, 6)
	// Augment: every root also writes a file.
	rootKeys := roots(g)
	for i, k := range rootKeys {
		spec, _ := g.Task(k)
		path := fmt.Sprintf("/lus/prop/out-%02d", i)
		inner := spec.EstDuration
		spec.EstDuration = 0
		spec.Run = func(ctx *TaskContext) {
			ctx.Compute(inner)
			f, err := ctx.Open(path, 0x2|0x4) // WRONLY|CREATE
			if err != nil {
				panic(err)
			}
			f.Write(ctx.Proc(), 1<<20)
			f.Close(ctx.Proc())
		}
	}
	env.runWorkflow(func(p *sim.Proc, cl *Client) {
		cl.SubmitAndWait(p, g)
	})
	files := env.c.fs.PFS().List("/lus/prop")
	if len(files) != len(rootKeys) {
		t.Fatalf("files = %d, want %d", len(files), len(rootKeys))
	}
}

// TestSchedulerScales runs a large random workload (20k tasks) and bounds
// the real time the scheduler machinery takes — a regression guard against
// accidentally quadratic bookkeeping.
func TestSchedulerScales(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	start := timeNow()
	gen := sim.NewRNG(7).Split("stress")
	env := newEnv(7, DefaultConfig())
	g := NewGraph(1)
	const roots = 2000
	total := 0
	for r := 0; r < roots; r++ {
		root := TaskKey(fmt.Sprintf("src-%05d", r))
		g.Add(&TaskSpec{Key: root, EstDuration: sim.Milliseconds(gen.Uniform(5, 40)), OutputSize: 1 << 20})
		total++
		fan := gen.IntBetween(5, 13)
		for c := 0; c < fan; c++ {
			g.Add(&TaskSpec{
				Key:  TaskKey(fmt.Sprintf("child-%05d-%02d", r, c)),
				Deps: []TaskKey{root}, EstDuration: sim.Milliseconds(gen.Uniform(5, 30)),
				OutputSize: 1 << 16,
			})
			total++
		}
	}
	env.runWorkflow(func(p *sim.Proc, cl *Client) {
		cl.SubmitAndWait(p, g)
	})
	if len(env.rec.execs) != total {
		t.Fatalf("executed %d/%d", len(env.rec.execs), total)
	}
	if el := timeNow() - start; el > 60e9 {
		t.Fatalf("stress run took %.1fs of real time", float64(el)/1e9)
	}
}

// TestRandomDAGsSurviveWorkerKills is the chaos property: random DAGs run
// with the pass-by-reference data plane enabled while a random kill/restart
// schedule takes workers down mid-flight. Whatever the schedule, after the
// run quiesces three invariants must hold: every key the scheduler reports
// in memory has at least one live holder; no task is stranded in waiting or
// processing; and the proxy store's refcounts and resident bytes reconcile
// with the recorded event stream.
func TestRandomDAGsSurviveWorkerKills(t *testing.T) {
	const trials = 8
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			seed := uint64(7000 + trial)
			gen := sim.NewRNG(seed).Split("chaos")
			g := randomDAG(1, gen.Split("dag"), gen.IntBetween(3, 5), 8)
			env := newEnv(seed, proxyCfg(1<<17))

			// One or two distinct ranks die at random times; each restarts a
			// few seconds later so per-task retry budgets are never exhausted
			// (a task can lose its worker at most once per victim).
			kills := gen.IntBetween(1, 2)
			ranks := perm(gen, len(env.c.Workers()))[:kills]
			var lastRestart sim.Time
			for _, r := range ranks {
				r := r
				killAt := sim.Seconds(gen.Uniform(1, 6))
				restartAt := killAt + sim.Seconds(gen.Uniform(2, 4))
				env.k.At(killAt, func() { env.c.KillWorker(r) })
				env.k.At(restartAt, func() { env.c.RestartWorker(r) })
				if restartAt > lastRestart {
					lastRestart = restartAt
				}
			}

			env.runWorkflow(func(p *sim.Proc, cl *Client) {
				cl.SubmitAndWait(p, g)
				if e := cl.GraphError(1); e != "" {
					t.Errorf("graph erred: %s", e)
				}
				// Quiesce past the whole kill schedule: a short graph can
				// finish before the last kill/restart fires, and TTL sweeps,
				// rejoins, and refcount releases need time to settle.
				settle := env.c.cfg.WorkerTTL + sim.Seconds(2)
				deadline := lastRestart + settle
				if d := deadline - env.k.Now(); d > settle {
					p.Sleep(d)
				} else {
					p.Sleep(settle)
				}
			})

			sched := env.c.scheduler
			for _, k := range g.Keys() {
				switch st := sched.TaskState(k); st {
				case StateMemory:
					holders := 0
					for _, w := range env.c.Workers() {
						if w.alive && w.HasData(k) {
							holders++
						}
					}
					if holders == 0 {
						t.Errorf("task %s in memory with no live holder", k)
					}
				case StateWaiting, StateProcessing:
					t.Errorf("task %s stuck in %q after quiescence", k, st)
				}
			}

			// Proxy store invariants: no blob outlives its owner, refcounts
			// never go negative, and the published/released/resident balance
			// from the event stream matches the store's live footprint.
			store := env.c.ProxyStore()
			for _, key := range store.Keys() {
				if refs := store.Refs(key); refs < 0 {
					t.Errorf("blob %s has negative refcount %d", key, refs)
				}
				ref, ok := store.Resolve(key)
				if !ok {
					continue
				}
				if w := env.c.Workers()[ref.Owner]; !w.alive {
					t.Errorf("blob %s owned by dead worker %d", key, ref.Owner)
				}
			}
			st := env.c.ProxyStats()
			if st.Resident < 0 {
				t.Errorf("negative resident bytes: %+v", st)
			}
			var published, released int64
			for _, ev := range env.rec.proxyEvents {
				switch ev.Op {
				case ProxyOpPublish:
					published += ev.Bytes
				case ProxyOpFree, ProxyOpReclaim:
					released += ev.Bytes
				}
			}
			if published != released+st.Resident {
				t.Errorf("resident delta stream unbalanced: published %d, released %d, resident %d",
					published, released, st.Resident)
			}
		})
	}
}

// hedgedTrial is one random-DAG run with hedged execution on, under whatever
// fault schedule the test arms on it.
type hedgedTrial struct {
	NopWorkerPlugin
	env *testEnv
	// killed: some worker dies during the run, so recovery recomputation is a
	// legitimate source of repeated execution records.
	killed bool
	// fetchKills are kills waiting for a fetch from their victim to begin.
	fetchKills []fetchKill
	// deadHedgeCandidates counts (task, speculation tick) pairs where the
	// task was a hedge candidate on a dead worker the scheduler had not
	// evicted yet.
	deadHedgeCandidates int
}

type fetchKill struct {
	rank      int
	notBefore sim.Time
}

func newHedgedTrial(seed uint64, cfg Config) *hedgedTrial {
	cfg.Speculation.Enabled = true
	cfg.Speculation.MinRuntime = sim.Milliseconds(50)
	cfg.Speculation.SlowFactor = 1.5
	tr := &hedgedTrial{env: newEnv(seed, cfg)}
	tr.env.c.AddWorkerPlugin(tr)
	tr.env.k.Every(tr.env.c.cfg.Speculation.Interval, tr.countDeadHedgeCandidates)
	return tr
}

func (tr *hedgedTrial) countDeadHedgeCandidates() {
	s := tr.env.c.scheduler
	now := tr.env.k.Now()
	for _, ts := range s.tasks {
		if ts.live != 1 {
			continue
		}
		wh, elapsed := s.workers[ts.attempts[0].rank], now-ts.attempts[0].startedAt
		if wh.connected && !wh.w.alive && elapsed >= s.c.cfg.Speculation.MinRuntime &&
			s.isStraggler(ts.spec.Prefix(), elapsed) {
			tr.deadHedgeCandidates++
		}
	}
}

// killOnFetchFrom kills worker rank as soon as, at or after notBefore,
// another worker starts fetching a dependency only rank holds.
func (tr *hedgedTrial) killOnFetchFrom(rank int, notBefore sim.Time) {
	tr.fetchKills = append(tr.fetchKills, fetchKill{rank, notBefore})
}

// WorkerTransition implements WorkerPlugin: it fires the pending
// killOnFetchFrom kills.
func (tr *hedgedTrial) WorkerTransition(x Transition) {
	if x.To != WStateFetching {
		return
	}
	s := tr.env.c.scheduler
	for i, fk := range tr.fetchKills {
		victim := s.workers[fk.rank].w
		if x.At < fk.notBefore || x.Location == victim.addr {
			continue
		}
		for _, d := range s.tasks[x.Key].spec.Deps {
			if _, held := s.tasks[d].whoHas[fk.rank]; held && len(s.tasks[d].whoHas) == 1 {
				tr.fetchKills = append(tr.fetchKills[:i], tr.fetchKills[i+1:]...)
				tr.env.k.After(sim.Microseconds(200), func() { tr.env.c.KillWorker(fk.rank) })
				return
			}
		}
	}
}

// run drives the graph to completion and then quiesces past the fault
// schedule. arm is called at graph start and returns when the schedule's last
// event fires.
func (tr *hedgedTrial) run(t *testing.T, g *Graph, arm func(start sim.Time) sim.Time) {
	env := tr.env
	env.runWorkflow(func(p *sim.Proc, cl *Client) {
		lastEvent := arm(p.Now())
		cl.SubmitAndWait(p, g)
		if e := cl.GraphError(1); e != "" {
			t.Errorf("graph erred: %s", e)
		}
		settle := env.c.cfg.WorkerTTL + sim.Seconds(2)
		deadline := lastEvent + settle
		if d := deadline - env.k.Now(); d > settle {
			p.Sleep(d)
		} else {
			p.Sleep(settle)
		}
	})
}

// check asserts the invariants every hedged run must end with — no task
// stranded, every in-memory key on a live holder, every speculative launch
// settled exactly once, duplicate execution records only for hedged keys,
// and the proxy store's refcount/delta balance — and returns the number of
// speculative launches.
func (tr *hedgedTrial) check(t *testing.T, g *Graph) (launched int) {
	env, killed := tr.env, tr.killed

	// No task stranded; every in-memory key has a live holder.
	sched := env.c.scheduler
	for _, k := range g.Keys() {
		switch st := sched.TaskState(k); st {
		case StateMemory:
			holders := 0
			for _, w := range env.c.Workers() {
				if w.alive && w.HasData(k) {
					holders++
				}
			}
			if holders == 0 {
				t.Errorf("task %s in memory with no live holder", k)
			}
		case StateWaiting, StateProcessing:
			t.Errorf("task %s stuck in %q after quiescence", k, st)
		}
	}

	// Speculation bookkeeping: every launch settles exactly once, and
	// every win cancels exactly one loser.
	var won, cancelled, failed, promoted int
	hedged := map[TaskKey]bool{}
	for _, ev := range env.rec.specEvents {
		switch ev.Kind {
		case SpecLaunched:
			launched++
			hedged[ev.Key] = true
		case SpecWon:
			won++
		case SpecCancelled:
			cancelled++
		case SpecFailed:
			failed++
		case SpecPromoted:
			promoted++
		}
	}
	if launched != won+failed+promoted {
		t.Errorf("speculation launches unsettled: launched %d, won %d, failed %d, promoted %d",
			launched, won, failed, promoted)
	}
	if cancelled != won {
		t.Errorf("win/cancel pairing broken: won %d, cancelled %d", won, cancelled)
	}

	// Execution records: every key ran. In kill-free trials a key only
	// executes more than once if it was actually hedged (recovery
	// recomputation is the one other legitimate source of duplicates).
	execsPerKey := map[TaskKey]int{}
	for _, e := range env.rec.execs {
		execsPerKey[e.Key]++
	}
	for _, k := range g.Keys() {
		n := execsPerKey[k]
		if n == 0 {
			t.Errorf("task %s never executed", k)
			continue
		}
		if n > 1 && !hedged[k] && !killed {
			t.Errorf("task %s executed %d times without speculation or recovery", k, n)
		}
	}

	// Proxy-store invariants: refcounts non-negative, owners alive,
	// and the published/released/resident delta balance holds — a
	// cancelled loser whose publish leaked would break it.
	store := env.c.ProxyStore()
	if store == nil {
		return launched
	}
	for _, key := range store.Keys() {
		if refs := store.Refs(key); refs < 0 {
			t.Errorf("blob %s has negative refcount %d", key, refs)
		}
		ref, ok := store.Resolve(key)
		if !ok {
			continue
		}
		if w := env.c.Workers()[ref.Owner]; !w.alive {
			t.Errorf("blob %s owned by dead worker %d", key, ref.Owner)
		}
	}
	st := env.c.ProxyStats()
	if st.Resident < 0 {
		t.Errorf("negative resident bytes: %+v", st)
	}
	var published, released int64
	for _, ev := range env.rec.proxyEvents {
		switch ev.Op {
		case ProxyOpPublish:
			published += ev.Bytes
		case ProxyOpFree, ProxyOpReclaim:
			released += ev.Bytes
		}
	}
	if published != released+st.Resident {
		t.Errorf("resident delta stream unbalanced: published %d, released %d, resident %d",
			published, released, st.Resident)
	}
	return launched
}

// TestRandomDAGsSurviveBrownoutsWithSpeculation is the gray-failure property:
// random DAGs run with hedged execution enabled — on the pass-by-reference
// data plane (trialNN) and on the direct one (direct/trialNN) — while a random
// brownout schedule degrades workers (sometimes healing them, sometimes
// mixing in a kill/restart). Whatever the schedule: the graph completes, no
// task is stranded, every speculative launch settles exactly once (won,
// failed, or promoted), duplicate execution records only exist for keys that
// were actually hedged, and the proxy store's refcount/delta balance
// reconciles — cancelled losers never publish visible outputs.
func TestRandomDAGsSurviveBrownoutsWithSpeculation(t *testing.T) {
	const trials = 8
	totalLaunched := 0
	trial := func(seed uint64, cfg Config) func(t *testing.T) {
		return func(t *testing.T) {
			gen := sim.NewRNG(seed).Split("brownout")
			g := randomDAG(1, gen.Split("dag"), gen.IntBetween(3, 5), 8)
			tr := newHedgedTrial(seed, cfg)
			env := tr.env

			// One or two workers brown out at random times by 4-10x; some
			// heal, some stay degraded for the rest of the run.
			slows := gen.IntBetween(1, 2)
			ranks := perm(gen, len(env.c.Workers()))
			var lastEvent sim.Time
			for i := 0; i < slows; i++ {
				r := ranks[i]
				at := sim.Seconds(gen.Uniform(0.2, 3))
				factor := gen.Uniform(4, 10)
				env.k.At(at, func() { env.c.SlowWorker(r, factor) })
				if at > lastEvent {
					lastEvent = at
				}
				if gen.Bool(0.5) {
					heal := at + sim.Seconds(gen.Uniform(1, 4))
					env.k.At(heal, func() { env.c.ClearSlowdown(r) })
					if heal > lastEvent {
						lastEvent = heal
					}
				}
			}
			// Half the trials also lose a (different) worker outright.
			tr.killed = gen.Bool(0.5)
			if tr.killed {
				r := ranks[len(ranks)-1]
				killAt := sim.Seconds(gen.Uniform(1, 5))
				restartAt := killAt + sim.Seconds(gen.Uniform(2, 4))
				env.k.At(killAt, func() { env.c.KillWorker(r) })
				env.k.At(restartAt, func() { env.c.RestartWorker(r) })
				if restartAt > lastEvent {
					lastEvent = restartAt
				}
			}

			tr.run(t, g, func(sim.Time) sim.Time { return lastEvent })
			totalLaunched += tr.check(t, g)
		}
	}
	for i := 0; i < trials; i++ {
		t.Run(fmt.Sprintf("trial%02d", i), trial(uint64(8000+i), proxyCfg(1<<17)))
	}
	if totalLaunched == 0 {
		t.Fatal("no trial launched a speculation — the schedule no longer exercises hedging")
	}
	totalLaunched = 0
	for i := 0; i < trials; i++ {
		t.Run(fmt.Sprintf("direct/trial%02d", i), trial(uint64(8100+i), smallCfg()))
	}
	if totalLaunched == 0 {
		t.Fatal("no direct-plane trial launched a speculation — the schedule no longer exercises hedging")
	}
}
