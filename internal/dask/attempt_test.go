package dask

import (
	"fmt"
	"reflect"
	"testing"

	"taskprov/internal/proxystore"
	"taskprov/internal/sim"
)

// hedgeOnDeadWorkerRun builds, deterministically, the race that used to abort
// the process (ROADMAP item 1a): the only replica of "src" sits on worker A, a
// dependent ("stay") is processing on A, a second worker is mid-fetch of
// "src" for another dependent ("away") — and A dies. The failed fetch scrubs
// A from src's replica set at once, while A stays connected until its
// heartbeat TTL runs out; in between, "stay" looks like a straggler to the
// speculation tick, whose duplicate would carry an empty holder snapshot.
// With kill=false it is the same run without the fault.
func hedgeOnDeadWorkerRun(t *testing.T, cfg Config, kill bool) *testEnv {
	t.Helper()
	cfg.Speculation.Enabled = true
	cfg.Speculation.MinRuntime = sim.Milliseconds(50)
	cfg.Speculation.SlowFactor = 1.5
	cfg.Speculation.Interval = sim.Milliseconds(100)
	env := newEnv(42, cfg)
	const srcBytes = 16 << 30 // ~0.8 s on the wire between nodes
	midFetch := false
	env.runWorkflow(func(p *sim.Proc, cl *Client) {
		g1 := NewGraph(1)
		g1.Add(&TaskSpec{Key: "src-01", EstDuration: sim.Milliseconds(500), OutputSize: srcBytes})
		cl.SubmitAndWait(p, g1)

		var a, b *Worker
		for _, w := range env.c.Workers() {
			if w.HasData("src-01") {
				a = w
			}
		}
		for _, w := range env.c.Workers() {
			if a != nil && w.node != a.node {
				b = w
			}
		}
		if a == nil || b == nil {
			t.Fatalf("need src's holder and a worker on another node, got %v, %v", a, b)
		}

		g2 := NewGraph(2)
		g2.AddExternal("src-01")
		g2.Add(&TaskSpec{Key: "stay-02", Deps: []TaskKey{"src-01"}, EstDuration: sim.Seconds(2), OutputSize: 1 << 21})
		g2.Add(&TaskSpec{Key: "away-03", Deps: []TaskKey{"src-01"}, EstDuration: sim.Milliseconds(200), OutputSize: 1 << 21,
			Restrictions: []string{b.Addr()}})
		if kill {
			env.k.After(sim.Milliseconds(300), func() {
				onA := env.c.scheduler.workers[a.rank].runs("stay-02")
				midFetch = onA && len(b.fetching["src-01"]) > 0
				env.c.KillWorker(a.rank)
			})
		}
		cl.SubmitAndWait(p, g2)
		if e := cl.GraphError(2); e != "" {
			t.Errorf("graph erred: %s", e)
		}
		p.Sleep(env.c.cfg.WorkerTTL + sim.Seconds(2))
	})
	if kill && !midFetch {
		t.Fatal("the kill did not land with stay-02 processing on src's holder and src in flight to the other worker")
	}
	return env
}

// TestHedgeOnDeadWorkerLosesNoTask is the regression test for the
// kill × -speculate abort, on both data planes: the graph completes, each
// dependent has exactly one execution record and src exactly two (it was
// recomputed once), every execution record is one the scheduler took as the
// key's result, every hedge settles, and the proxy store ends where the
// fault-free run leaves it.
func TestHedgeOnDeadWorkerLosesNoTask(t *testing.T) {
	for _, plane := range []struct {
		name string
		cfg  Config
	}{{"direct", smallCfg()}, {"proxy", proxyCfg(1 << 20)}} {
		t.Run(plane.name, func(t *testing.T) {
			env := hedgeOnDeadWorkerRun(t, plane.cfg, true)

			execs := map[TaskKey]int{}
			for _, e := range env.rec.execs {
				execs[e.Key]++
			}
			if want := map[TaskKey]int{"src-01": 2, "stay-02": 1, "away-03": 1}; !reflect.DeepEqual(execs, want) {
				t.Errorf("execution records per key = %v, want %v", execs, want)
			}
			finished := map[TaskKey]int{}
			for _, tr := range env.rec.schedTrans {
				if tr.To == StateMemory && tr.Stimulus == "task-finished" {
					finished[tr.Key]++
				}
			}
			if !reflect.DeepEqual(execs, finished) {
				t.Errorf("execution records %v, but the scheduler took results %v", execs, finished)
			}
			for k := range execs {
				if st := env.c.scheduler.TaskState(k); st != StateMemory {
					t.Errorf("%s ended in %q, want memory", k, st)
				}
			}

			settled := map[string]int{}
			for _, ev := range env.rec.specEvents {
				settled[ev.Kind]++
			}
			if settled[SpecLaunched] != settled[SpecWon]+settled[SpecFailed]+settled[SpecPromoted] ||
				settled[SpecWon] != settled[SpecCancelled] {
				t.Errorf("speculation ledger unsettled: %v", settled)
			}

			kinds := warningKinds(env.rec.warnings)
			if kinds[WarnKeyRecomputed] != 1 || kinds[WarnTaskRescheduled] == 0 {
				t.Errorf("recovery warnings = %v, want src recomputed once and the dependents rescheduled", kinds)
			}

			if store := env.c.ProxyStore(); store != nil {
				base := hedgeOnDeadWorkerRun(t, plane.cfg, false).c.ProxyStore()
				refs := func(s *proxystore.Store) map[string]int {
					m := map[string]int{}
					for _, k := range s.Keys() {
						m[k] = s.Refs(k)
					}
					return m
				}
				if got, want := refs(store), refs(base); !reflect.DeepEqual(got, want) {
					t.Errorf("proxy refcounts after the fault = %v, fault-free baseline %v", got, want)
				}
				if got, want := store.ResidentBytes(), base.ResidentBytes(); got != want {
					t.Errorf("proxy resident bytes = %d, fault-free baseline %d", got, want)
				}
			}
		})
	}
}

// TestEmptyHolderSnapshotSurrenders: an assignment naming no holder for a
// dependency that is not local must hand the task back, not take the process
// down. Scheduler.launch never ships one, so the message is built by hand.
func TestEmptyHolderSnapshotSurrenders(t *testing.T) {
	env := newEnv(5, smallCfg())
	w := env.c.Workers()[1]
	spec := &TaskSpec{Key: "orphan-01", Deps: []TaskKey{"ghost-00"}}
	env.runWorkflow(func(p *sim.Proc, cl *Client) {
		w.handleAssign(assignment{spec: spec, deps: []depInfo{{key: "ghost-00", size: 8}}})
		p.Sleep(sim.Seconds(1))
	})
	if len(w.tasks) != 0 || len(w.fetching) != 0 {
		t.Errorf("worker still holds the task: tasks %v, fetching %v", w.tasks, w.fetching)
	}
	surrendered := false
	for _, tr := range env.rec.workerTrans {
		if tr.Key == "orphan-01" && tr.To == StateReleased && tr.Stimulus == "missing-data" {
			surrendered = true
		}
	}
	if !surrendered {
		t.Errorf("no missing-data surrender among %v", env.rec.workerTrans)
	}
}

// TestSourcePickIndependentOfHolderOrder: with several registered holders of
// a key, the consumer's source pick must be a function of the seed — not of
// the order the holders were registered in.
func TestSourcePickIndependentOfHolderOrder(t *testing.T) {
	source := func(run int) string {
		env := newEnv(9, smallCfg())
		env.runWorkflow(func(p *sim.Proc, cl *Client) {
			g1 := NewGraph(1)
			g1.Add(&TaskSpec{Key: "src-01", EstDuration: sim.Milliseconds(20), OutputSize: 1 << 20})
			cl.SubmitAndWait(p, g1)
			// Register every worker but the last as a holder, in ascending
			// rank order on even runs and descending on odd ones.
			ws := env.c.Workers()
			for i := range ws[:len(ws)-1] {
				w := ws[i]
				if run%2 == 1 {
					w = ws[len(ws)-2-i]
				}
				if !w.HasData("src-01") {
					w.data["src-01"] = 1 << 20
					env.c.scheduler.tasks["src-01"].addHolder(w.rank)
				}
			}
			g2 := NewGraph(2)
			g2.AddExternal("src-01")
			g2.Add(&TaskSpec{Key: "use-02", Deps: []TaskKey{"src-01"}, EstDuration: sim.Milliseconds(20),
				Restrictions: []string{ws[len(ws)-1].Addr()}})
			cl.SubmitAndWait(p, g2)
		})
		if len(env.rec.transfers) != 1 {
			t.Fatalf("transfers = %v, want one fetch of src-01", env.rec.transfers)
		}
		checkSchedulerInvariants(t, env.c.scheduler)
		return env.rec.transfers[0].From
	}
	first := source(0)
	for i := 1; i <= 16; i++ {
		if got := source(i); got != first {
			t.Fatalf("run %d fetched src-01 from %s, the first run from %s", i, got, first)
		}
	}
}

// faultPlan is one worker-level chaos directive of the paired-fault property.
type faultPlan struct {
	name string
	// arm schedules the fault on rank r relative to graph start and returns
	// when its last effect fires.
	arm func(tr *hedgedTrial, gen *sim.RNG, r int, start sim.Time) sim.Time
}

func armKill(restart bool) func(*hedgedTrial, *sim.RNG, int, sim.Time) sim.Time {
	return func(tr *hedgedTrial, gen *sim.RNG, r int, start sim.Time) sim.Time {
		tr.killed = true
		at := start + sim.Seconds(gen.Uniform(0.02, 0.4))
		if gen.Bool(0.5) {
			// Kill the moment another worker starts fetching from the victim,
			// so the death falls while that transfer is in flight.
			tr.killOnFetchFrom(r, at)
		} else {
			tr.env.k.At(at, func() { tr.env.c.KillWorker(r) })
		}
		if !restart {
			return at
		}
		back := at + sim.Seconds(gen.Uniform(2, 4))
		tr.env.k.At(back, func() { tr.env.c.RestartWorker(r) })
		return back
	}
}

func armSlow(heal bool) func(*hedgedTrial, *sim.RNG, int, sim.Time) sim.Time {
	return func(tr *hedgedTrial, gen *sim.RNG, r int, start sim.Time) sim.Time {
		at := start + sim.Seconds(gen.Uniform(0, 0.3))
		factor := gen.Uniform(4, 10)
		tr.env.k.At(at, func() { tr.env.c.SlowWorker(r, factor) })
		if !heal {
			return at
		}
		healed := at + sim.Seconds(gen.Uniform(0.2, 2))
		tr.env.k.At(healed, func() { tr.env.c.ClearSlowdown(r) })
		return healed
	}
}

// TestRandomDAGsSurvivePairedFaultsWithSpeculation crosses the worker-level
// chaos directives two at a time, on both data planes, with hedging always
// on — the combinations no single-fault gate composes. Kill times are drawn
// relative to graph start, half of them triggered by a fetch from the victim.
// The table must keep reaching the window the kill × -speculate abort lived
// in: a hedge candidate sitting on a dead worker the scheduler has not
// evicted yet.
func TestRandomDAGsSurvivePairedFaultsWithSpeculation(t *testing.T) {
	plans := []faultPlan{
		{"kill", armKill(false)}, {"kill+restart", armKill(true)},
		{"slow", armSlow(false)}, {"slow+heal", armSlow(true)},
	}
	const trials = 2
	reachedWindow, launched := 0, 0
	seed := uint64(9000)
	for i, first := range plans {
		for _, second := range plans[i:] {
			for _, proxy := range []bool{true, false} {
				for trial := 0; trial < trials; trial++ {
					seed++
					seed := seed
					name := fmt.Sprintf("%s,%s/proxy=%v/trial%d", first.name, second.name, proxy, trial)
					t.Run(name, func(t *testing.T) {
						gen := sim.NewRNG(seed).Split("paired")
						g := randomDAG(1, gen.Split("dag"), gen.IntBetween(3, 5), 8)
						cfg := smallCfg()
						if proxy {
							cfg = proxyCfg(1 << 17)
						}
						tr := newHedgedTrial(seed, cfg)
						ranks := perm(gen, len(tr.env.c.Workers()))
						tr.run(t, g, func(start sim.Time) sim.Time {
							last := first.arm(tr, gen, ranks[0], start)
							if l := second.arm(tr, gen, ranks[1], start); l > last {
								last = l
							}
							return last
						})
						launched += tr.check(t, g)
						if tr.deadHedgeCandidates > 0 {
							reachedWindow++
						}
					})
				}
			}
		}
	}
	if launched == 0 {
		t.Error("no trial launched a speculation — the table no longer exercises hedging")
	}
	if reachedWindow == 0 {
		t.Error("no trial had a hedge candidate on a dead, not yet evicted worker — the table went vacuous")
	}
}
