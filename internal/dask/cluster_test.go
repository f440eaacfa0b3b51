package dask

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"taskprov/internal/pfs"
	"taskprov/internal/platform"
	"taskprov/internal/posixio"
	"taskprov/internal/sim"
)

// recorder captures every plugin callback for assertions.
type recorder struct {
	metas       []TaskMeta
	schedTrans  []Transition
	workerTrans []Transition
	execs       []TaskExecution
	transfers   []Transfer
	warnings    []Warning
	heartbeats  []WorkerMetrics
	steals      []StealEvent
	graphsDone  []int
	proxyEvents []ProxyEvent
	specEvents  []SpeculationEvent
}

func (r *recorder) TaskAdded(m TaskMeta)             { r.metas = append(r.metas, m) }
func (r *recorder) SchedulerTransition(t Transition) { r.schedTrans = append(r.schedTrans, t) }
func (r *recorder) GraphDone(id int, _ sim.Time)     { r.graphsDone = append(r.graphsDone, id) }
func (r *recorder) Stolen(ev StealEvent)             { r.steals = append(r.steals, ev) }
func (r *recorder) WorkerTransition(t Transition)    { r.workerTrans = append(r.workerTrans, t) }
func (r *recorder) TaskExecuted(rec TaskExecution)   { r.execs = append(r.execs, rec) }
func (r *recorder) TransferReceived(rec Transfer)    { r.transfers = append(r.transfers, rec) }
func (r *recorder) WorkerWarning(w Warning)          { r.warnings = append(r.warnings, w) }
func (r *recorder) Heartbeat(m WorkerMetrics)        { r.heartbeats = append(r.heartbeats, m) }
func (r *recorder) ProxyEvent(ev ProxyEvent)         { r.proxyEvents = append(r.proxyEvents, ev) }
func (r *recorder) Speculation(ev SpeculationEvent)  { r.specEvents = append(r.specEvents, ev) }

type testEnv struct {
	k   *sim.Kernel
	c   *Cluster
	rec *recorder
}

func newEnv(seed uint64, cfg Config) *testEnv {
	k := sim.NewKernel(seed)
	pcfg := platform.Polaris()
	pcfg.Name = "test-sim"
	pcfg.Nodes = 2
	pcfg.CoresPerNode = 8
	pcfg.Switches = 2
	pcfg.NodeSpeedCV = 0
	plat := platform.New(k, pcfg)
	fcfg := pfs.Lustre()
	fcfg.InterferenceLoad = 0
	fs := posixio.NewFS(pfs.New(k, fcfg))
	env := &testEnv{k: k, rec: &recorder{}}
	env.c = NewCluster(k, plat, fs, cfg, nil)
	env.c.AddSchedulerPlugin(env.rec)
	env.c.AddWorkerPlugin(env.rec)
	return env
}

// runWorkflow starts the cluster and drives the client program to
// completion.
func (e *testEnv) runWorkflow(body func(p *sim.Proc, cl *Client)) sim.Time {
	e.c.Start()
	finished := sim.Time(-1)
	e.k.Go(func(p *sim.Proc) {
		cl := e.c.Client()
		cl.WaitForWorkers(p, len(e.c.Workers()))
		body(p, cl)
		finished = p.Now()
		e.k.Stop() // cut heartbeat/steal loops
	})
	e.k.Run()
	return finished
}

func smallCfg() Config {
	cfg := DefaultConfig()
	cfg.WorkersPerNode = 2
	cfg.ThreadsPerWorker = 2
	return cfg
}

func diamond(id int) *Graph {
	g := NewGraph(id)
	g.Add(&TaskSpec{Key: "src-01", EstDuration: sim.Milliseconds(50), OutputSize: 1 << 20})
	g.Add(&TaskSpec{Key: "left-02", Deps: []TaskKey{"src-01"}, EstDuration: sim.Milliseconds(80), OutputSize: 1 << 20})
	g.Add(&TaskSpec{Key: "right-03", Deps: []TaskKey{"src-01"}, EstDuration: sim.Milliseconds(80), OutputSize: 1 << 20})
	g.Add(&TaskSpec{Key: "join-04", Deps: []TaskKey{"left-02", "right-03"}, EstDuration: sim.Milliseconds(30), OutputSize: 512})
	return g
}

func TestDiamondExecutes(t *testing.T) {
	env := newEnv(1, smallCfg())
	end := env.runWorkflow(func(p *sim.Proc, cl *Client) {
		cl.SubmitAndWait(p, diamond(1))
	})
	if end < 0 {
		t.Fatal("workflow never finished")
	}
	if len(env.rec.execs) != 4 {
		t.Fatalf("executions = %d, want 4", len(env.rec.execs))
	}
	if len(env.rec.graphsDone) != 1 || env.rec.graphsDone[0] != 1 {
		t.Fatalf("graphsDone = %v", env.rec.graphsDone)
	}
	// join must be scheduled in memory.
	if !env.c.scheduler.HasInMemory("join-04") {
		t.Fatal("join result not in memory")
	}
	// Execution respects dependencies: join starts after left & right stop.
	var joinStart, leftStop, rightStop sim.Time
	for _, e := range env.rec.execs {
		switch e.Key {
		case "join-04":
			joinStart = e.Start
		case "left-02":
			leftStop = e.Stop
		case "right-03":
			rightStop = e.Stop
		}
	}
	if joinStart < leftStop || joinStart < rightStop {
		t.Fatalf("join started %v before deps finished (%v, %v)", joinStart, leftStop, rightStop)
	}
}

func TestSchedulerTransitionsLifecycle(t *testing.T) {
	env := newEnv(1, smallCfg())
	env.runWorkflow(func(p *sim.Proc, cl *Client) {
		cl.SubmitAndWait(p, diamond(1))
	})
	// For key src-01 (not an output, gets released): released -> waiting ->
	// processing -> memory -> released.
	var states []TaskState
	for _, tr := range env.rec.schedTrans {
		if tr.Key == "src-01" {
			states = append(states, tr.To)
		}
	}
	want := []TaskState{StateWaiting, StateProcessing, StateMemory, StateReleased}
	if len(states) != len(want) {
		t.Fatalf("src-01 transitions = %v", states)
	}
	for i := range want {
		if states[i] != want[i] {
			t.Fatalf("src-01 transitions = %v, want %v", states, want)
		}
	}
	// Outputs stay in memory.
	for _, tr := range env.rec.schedTrans {
		if tr.Key == "join-04" && tr.To == StateReleased && tr.Stimulus == "no-dependents" {
			t.Fatal("output task was refcount-released")
		}
	}
}

func TestWorkerTransitionsLifecycle(t *testing.T) {
	env := newEnv(1, smallCfg())
	env.runWorkflow(func(p *sim.Proc, cl *Client) {
		cl.SubmitAndWait(p, diamond(1))
	})
	byKey := map[TaskKey][]TaskState{}
	for _, tr := range env.rec.workerTrans {
		byKey[tr.Key] = append(byKey[tr.Key], tr.To)
	}
	seq := byKey["join-04"]
	var filtered []TaskState
	for _, s := range seq {
		if s == WStateWaiting || s == WStateReady || s == WStateExecuting || s == WStateMemory {
			filtered = append(filtered, s)
		}
	}
	wantSub := []TaskState{WStateWaiting, WStateReady, WStateExecuting, WStateMemory}
	j := 0
	for _, s := range filtered {
		if j < len(wantSub) && s == wantSub[j] {
			j++
		}
	}
	if j != len(wantSub) {
		t.Fatalf("join-04 worker states = %v, want subsequence %v", seq, wantSub)
	}
	// Every worker transition carries a worker address, not "scheduler".
	for _, tr := range env.rec.workerTrans {
		if !strings.HasPrefix(tr.Location, "tcp://") {
			t.Fatalf("worker transition location = %q", tr.Location)
		}
	}
}

func TestTaskMetaCaptured(t *testing.T) {
	env := newEnv(1, smallCfg())
	env.runWorkflow(func(p *sim.Proc, cl *Client) {
		cl.SubmitAndWait(p, diamond(7))
	})
	if len(env.rec.metas) != 4 {
		t.Fatalf("metas = %d", len(env.rec.metas))
	}
	for _, m := range env.rec.metas {
		if m.GraphID != 7 {
			t.Fatalf("meta graph = %d", m.GraphID)
		}
		if m.Prefix == "" || m.Group == "" {
			t.Fatalf("meta missing prefix/group: %+v", m)
		}
	}
}

func TestDependencyTransfersRecorded(t *testing.T) {
	// A wide graph forces results to spread over workers, so the join must
	// fetch remote deps and transfers must be recorded.
	g := NewGraph(1)
	var deps []TaskKey
	for i := 0; i < 16; i++ {
		k := TaskKey(fmt.Sprintf("part-%02d", i))
		g.Add(&TaskSpec{Key: k, EstDuration: sim.Milliseconds(40), OutputSize: 4 << 20})
		deps = append(deps, k)
	}
	g.Add(&TaskSpec{Key: "agg-99", Deps: deps, EstDuration: sim.Milliseconds(10), OutputSize: 8})

	env := newEnv(1, smallCfg())
	env.runWorkflow(func(p *sim.Proc, cl *Client) {
		cl.SubmitAndWait(p, g)
	})
	if len(env.rec.transfers) == 0 {
		t.Fatal("no transfers recorded for distributed join")
	}
	for _, tr := range env.rec.transfers {
		if tr.Stop <= tr.Start {
			t.Fatalf("transfer has no duration: %+v", tr)
		}
		if tr.Bytes != 4<<20 {
			t.Fatalf("transfer bytes = %d", tr.Bytes)
		}
		if tr.From == tr.To {
			t.Fatalf("self transfer recorded: %+v", tr)
		}
	}
	// With 2 nodes there should typically be a mix of same-node and
	// cross-node transfers.
	var same, cross int
	for _, tr := range env.rec.transfers {
		if tr.SameNode {
			same++
		} else {
			cross++
		}
	}
	if same+cross != len(env.rec.transfers) {
		t.Fatal("bad same/cross accounting")
	}
}

func TestEventLoopWarningsFromBlockingTask(t *testing.T) {
	cfg := smallCfg()
	cfg.EventLoopMonitorThreshold = sim.Seconds(1)
	g := NewGraph(1)
	g.Add(&TaskSpec{Key: "gil-hog-01", EstDuration: sim.Seconds(5), BlocksEventLoop: true, OutputSize: 1})
	env := newEnv(1, cfg)
	env.runWorkflow(func(p *sim.Proc, cl *Client) {
		cl.SubmitAndWait(p, g)
	})
	var loopWarns int
	for _, w := range env.rec.warnings {
		if w.Kind == WarnEventLoop {
			loopWarns++
			if w.Duration < sim.Seconds(1) {
				t.Fatalf("warning for %v blocked", w.Duration)
			}
		}
	}
	// ~5s blocked at 1s threshold: expect about 4-5 warnings.
	if loopWarns < 3 || loopWarns > 6 {
		t.Fatalf("event loop warnings = %d, want ~5", loopWarns)
	}
}

func TestNonBlockingTaskEmitsNoLoopWarnings(t *testing.T) {
	cfg := smallCfg()
	cfg.EventLoopMonitorThreshold = sim.Seconds(1)
	g := NewGraph(1)
	g.Add(&TaskSpec{Key: "nice-01", EstDuration: sim.Seconds(5), OutputSize: 1})
	env := newEnv(1, cfg)
	env.runWorkflow(func(p *sim.Proc, cl *Client) {
		cl.SubmitAndWait(p, g)
	})
	for _, w := range env.rec.warnings {
		if w.Kind == WarnEventLoop {
			t.Fatal("cooperative task triggered event loop warning")
		}
	}
}

func TestGCWarningsUnderMemoryChurn(t *testing.T) {
	cfg := smallCfg()
	cfg.GCThresholdBytes = 32 << 20
	g := NewGraph(1)
	for i := 0; i < 12; i++ {
		g.Add(&TaskSpec{
			Key: TaskKey(fmt.Sprintf("alloc-%02d", i)), EstDuration: sim.Milliseconds(20),
			OutputSize: 16 << 20,
		})
	}
	env := newEnv(1, cfg)
	env.runWorkflow(func(p *sim.Proc, cl *Client) {
		cl.SubmitAndWait(p, g)
	})
	var gc int
	for _, w := range env.rec.warnings {
		if w.Kind == WarnGC {
			gc++
			if w.Duration <= 0 {
				t.Fatalf("GC warning without pause: %+v", w)
			}
		}
	}
	if gc == 0 {
		t.Fatal("no GC warnings under churn")
	}
}

func TestWorkStealingMovesQueuedTasks(t *testing.T) {
	// All roots depend on a seed task produced on one worker; with locality
	// scoring, everything piles onto that worker, and stealing must spread
	// the queue.
	cfg := smallCfg()
	cfg.WorkStealing = true
	g := NewGraph(1)
	g.Add(&TaskSpec{Key: "seed-00", EstDuration: sim.Milliseconds(10), OutputSize: 64 << 20})
	for i := 0; i < 24; i++ {
		g.Add(&TaskSpec{
			Key:  TaskKey(fmt.Sprintf("heavy-%02d", i)),
			Deps: []TaskKey{"seed-00"}, EstDuration: sim.Milliseconds(300), OutputSize: 1024,
		})
	}
	env := newEnv(3, cfg)
	env.runWorkflow(func(p *sim.Proc, cl *Client) {
		cl.SubmitAndWait(p, g)
	})
	if env.c.scheduler.stealCount == 0 {
		t.Fatal("no work stealing on a pathologically imbalanced graph")
	}
	if len(env.rec.steals) != env.c.scheduler.stealCount {
		t.Fatalf("plugin steals = %d, scheduler = %d", len(env.rec.steals), env.c.scheduler.stealCount)
	}
	// Every task still ran exactly once.
	seen := map[TaskKey]int{}
	for _, e := range env.rec.execs {
		seen[e.Key]++
	}
	if len(seen) != 25 {
		t.Fatalf("distinct executed = %d, want 25", len(seen))
	}
	for k, n := range seen {
		if n != 1 {
			t.Fatalf("task %s executed %d times", k, n)
		}
	}
}

func TestStealingDisabled(t *testing.T) {
	cfg := smallCfg()
	cfg.WorkStealing = false
	g := NewGraph(1)
	g.Add(&TaskSpec{Key: "seed-00", EstDuration: sim.Milliseconds(10), OutputSize: 64 << 20})
	for i := 0; i < 24; i++ {
		g.Add(&TaskSpec{
			Key:  TaskKey(fmt.Sprintf("heavy-%02d", i)),
			Deps: []TaskKey{"seed-00"}, EstDuration: sim.Milliseconds(300), OutputSize: 1024,
		})
	}
	env := newEnv(3, cfg)
	env.runWorkflow(func(p *sim.Proc, cl *Client) {
		cl.SubmitAndWait(p, g)
	})
	if env.c.scheduler.stealCount != 0 {
		t.Fatal("stealing occurred while disabled")
	}
}

func TestMultiGraphCrossDependency(t *testing.T) {
	env := newEnv(1, smallCfg())
	env.runWorkflow(func(p *sim.Proc, cl *Client) {
		g1 := NewGraph(1)
		g1.Add(&TaskSpec{Key: "train-data-01", EstDuration: sim.Milliseconds(50), OutputSize: 16 << 20})
		cl.SubmitAndWait(p, g1)

		g2 := NewGraph(2)
		g2.Add(&TaskSpec{Key: "model-01", Deps: []TaskKey{"train-data-01"}, EstDuration: sim.Milliseconds(100), OutputSize: 4 << 20})
		// train-data-01 is not in g2; it is an external already in memory.
		if err := g2.Finalize(); err == nil {
			t.Error("expected finalize error for missing dep — cross-graph deps go through AddExternal")
		}
		g2.AddExternal("train-data-01")
		cl.SubmitAndWait(p, g2)
	})
	if !env.c.scheduler.HasInMemory("model-01") {
		t.Fatal("second graph result missing")
	}
	if len(env.rec.graphsDone) != 2 {
		t.Fatalf("graphsDone = %v", env.rec.graphsDone)
	}
}

func TestRestrictionsHonored(t *testing.T) {
	env := newEnv(1, smallCfg())
	target := env.c.Workers()[2].Addr()
	g := NewGraph(1)
	for i := 0; i < 8; i++ {
		g.Add(&TaskSpec{
			Key:          TaskKey(fmt.Sprintf("pinned-%02d", i)),
			EstDuration:  sim.Milliseconds(20),
			OutputSize:   8,
			Restrictions: []string{target},
		})
	}
	env.runWorkflow(func(p *sim.Proc, cl *Client) {
		cl.SubmitAndWait(p, g)
	})
	for _, e := range env.rec.execs {
		if e.Worker != target {
			t.Fatalf("restricted task ran on %s, want %s", e.Worker, target)
		}
	}
}

func TestDeterministicForSeed(t *testing.T) {
	run := func(seed uint64) []TaskExecution {
		env := newEnv(seed, smallCfg())
		env.runWorkflow(func(p *sim.Proc, cl *Client) {
			cl.SubmitAndWait(p, diamond(1))
		})
		return env.rec.execs
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("different execution counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Fatalf("execution %d differs:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

func TestSeedsChangePlacement(t *testing.T) {
	placements := map[string]bool{}
	for seed := uint64(0); seed < 10; seed++ {
		env := newEnv(seed, smallCfg())
		env.runWorkflow(func(p *sim.Proc, cl *Client) {
			cl.SubmitAndWait(p, diamond(1))
		})
		sig := ""
		for _, e := range env.rec.execs {
			sig += string(e.Key) + "@" + e.Worker + ";"
		}
		placements[sig] = true
	}
	if len(placements) < 2 {
		t.Fatal("task placement identical across 10 seeds; variability source missing")
	}
}

func TestTaskIOThroughContext(t *testing.T) {
	env := newEnv(1, smallCfg())
	g := NewGraph(1)
	g.Add(&TaskSpec{Key: "writer-01", OutputSize: 1, Run: func(ctx *TaskContext) {
		f, err := ctx.Open("/lus/out/data.bin", posixio.WRONLY|posixio.CREATE)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		f.Write(ctx.proc, 4<<20)
		f.Close(ctx.proc)
		ctx.Compute(sim.Milliseconds(10))
		ctx.SetOutputSize(4 << 20)
	}})
	env.runWorkflow(func(p *sim.Proc, cl *Client) {
		cl.SubmitAndWait(p, g)
	})
	file := env.c.fs.PFS().Lookup("/lus/out/data.bin")
	if file == nil || file.Size != 4<<20 {
		t.Fatalf("file = %+v", file)
	}
	if env.rec.execs[0].OutputSize != 4<<20 {
		t.Fatalf("output size = %d", env.rec.execs[0].OutputSize)
	}
}

func TestHeartbeatsFlow(t *testing.T) {
	env := newEnv(1, smallCfg())
	env.runWorkflow(func(p *sim.Proc, cl *Client) {
		g := NewGraph(1)
		g.Add(&TaskSpec{Key: "slow-01", EstDuration: sim.Seconds(3), OutputSize: 1})
		cl.SubmitAndWait(p, g)
	})
	if len(env.rec.heartbeats) == 0 {
		t.Fatal("no heartbeats during a 3s workflow")
	}
	addrs := map[string]bool{}
	for _, h := range env.rec.heartbeats {
		addrs[h.Worker] = true
	}
	if len(addrs) != len(env.c.Workers()) {
		t.Fatalf("heartbeats from %d workers, want %d", len(addrs), len(env.c.Workers()))
	}
}

func TestRefcountReleaseFreesWorkerMemory(t *testing.T) {
	env := newEnv(1, smallCfg())
	env.runWorkflow(func(p *sim.Proc, cl *Client) {
		g := NewGraph(1)
		g.Add(&TaskSpec{Key: "big-01", EstDuration: sim.Milliseconds(10), OutputSize: 100 << 20})
		g.Add(&TaskSpec{Key: "reduce-02", Deps: []TaskKey{"big-01"}, EstDuration: sim.Milliseconds(10), OutputSize: 8})
		cl.SubmitAndWait(p, g)
		p.Sleep(sim.Seconds(1)) // allow free messages to land
	})
	var totalMem int64
	for _, w := range env.c.Workers() {
		totalMem += w.memBytes
	}
	// Only the 8-byte output should remain (transfers may duplicate it).
	if totalMem > 1<<20 {
		t.Fatalf("distributed memory after release = %d bytes", totalMem)
	}
}

func TestThreadConcurrencyLimit(t *testing.T) {
	cfg := smallCfg()
	cfg.ThreadsPerWorker = 2
	cfg.WorkersPerNode = 1 // 2 nodes x 1 worker x 2 threads = 4 slots
	g := NewGraph(1)
	for i := 0; i < 12; i++ {
		g.Add(&TaskSpec{Key: TaskKey(fmt.Sprintf("t-%02d", i)), EstDuration: sim.Seconds(1), OutputSize: 1})
	}
	env := newEnv(1, cfg)
	env.runWorkflow(func(p *sim.Proc, cl *Client) {
		cl.SubmitAndWait(p, g)
	})
	// Sweep the execution intervals: concurrency must never exceed 4.
	type ev struct {
		at    sim.Time
		delta int
	}
	var evs []ev
	for _, e := range env.rec.execs {
		evs = append(evs, ev{e.Start, 1}, ev{e.Stop, -1})
	}
	maxConc := 0
	cur := 0
	for {
		// simple O(n^2) sweep is fine for 24 events
		best := -1
		var bestAt sim.Time
		for i, e := range evs {
			if e.delta != 0 && (best == -1 || e.at < bestAt || (e.at == bestAt && e.delta < evs[best].delta)) {
				best, bestAt = i, e.at
			}
		}
		if best == -1 {
			break
		}
		cur += evs[best].delta
		evs[best].delta = 0
		if cur > maxConc {
			maxConc = cur
		}
	}
	if maxConc > 4 {
		t.Fatalf("max concurrency = %d, exceeds 4 thread slots", maxConc)
	}
	if maxConc < 3 {
		t.Fatalf("max concurrency = %d; scheduler failed to use the cluster", maxConc)
	}
}

func TestRootTaskWithholding(t *testing.T) {
	// Many more root tasks than slots: the scheduler must withhold the
	// excess rather than flooding worker queues (Dask's root-task queuing).
	cfg := smallCfg() // 4 workers x 2 threads
	g := NewGraph(1)
	for i := 0; i < 64; i++ {
		g.Add(&TaskSpec{Key: TaskKey(fmt.Sprintf("root-%03d", i)), EstDuration: sim.Seconds(1), OutputSize: 8})
	}
	env := newEnv(1, cfg)
	var maxAssigned int
	env.k.Go(func(p *sim.Proc) {
		for i := 0; i < 200; i++ {
			p.Sleep(sim.Milliseconds(100))
			for _, wh := range env.c.scheduler.workers {
				if n := len(wh.processing); n > maxAssigned {
					maxAssigned = n
				}
			}
		}
	})
	env.runWorkflow(func(p *sim.Proc, cl *Client) {
		cl.SubmitAndWait(p, g)
	})
	limit := env.c.scheduler.saturationLimit()
	if maxAssigned > limit {
		t.Fatalf("worker held %d assigned root tasks, limit %d", maxAssigned, limit)
	}
	// All of them still ran.
	if len(env.rec.execs) != 64 {
		t.Fatalf("executed %d/64", len(env.rec.execs))
	}
}

func TestFanOutSpillsUnderBacklog(t *testing.T) {
	// One producer with a huge fan-out: consumers must not all pile on the
	// producer's worker; some spill (and fetch the dependency remotely).
	cfg := smallCfg()
	g := NewGraph(1)
	g.Add(&TaskSpec{Key: "seed-00", EstDuration: sim.Milliseconds(10), OutputSize: 32 << 20})
	for i := 0; i < 64; i++ {
		g.Add(&TaskSpec{
			Key:  TaskKey(fmt.Sprintf("consume-%03d", i)),
			Deps: []TaskKey{"seed-00"}, EstDuration: sim.Milliseconds(400), OutputSize: 64,
		})
	}
	env := newEnv(2, cfg)
	env.runWorkflow(func(p *sim.Proc, cl *Client) {
		cl.SubmitAndWait(p, g)
	})
	workers := map[string]int{}
	for _, e := range env.rec.execs {
		workers[e.Worker]++
	}
	if len(workers) < 3 {
		t.Fatalf("fan-out ran on only %d workers: no spill/steal", len(workers))
	}
	if len(env.rec.transfers) == 0 {
		t.Fatal("spilled consumers fetched nothing")
	}
}

func TestStealBatchingKeepsAccounting(t *testing.T) {
	cfg := smallCfg()
	cfg.WorkStealing = true
	g := NewGraph(1)
	g.Add(&TaskSpec{Key: "seed-00", EstDuration: sim.Milliseconds(10), OutputSize: 128 << 20})
	for i := 0; i < 48; i++ {
		g.Add(&TaskSpec{
			Key:  TaskKey(fmt.Sprintf("heavy-%03d", i)),
			Deps: []TaskKey{"seed-00"}, EstDuration: sim.Milliseconds(600), OutputSize: 64,
		})
	}
	env := newEnv(5, cfg)
	env.runWorkflow(func(p *sim.Proc, cl *Client) {
		cl.SubmitAndWait(p, g)
	})
	s := env.c.scheduler
	// All in-flight steal accounting must have drained: no task is left
	// marked with a steal request.
	stealing := 0
	for _, slab := range s.slabs {
		for i := range slab {
			if slab[i].stealing {
				t.Errorf("task %s still marked with a steal request in flight", slab[i].spec.Key)
				stealing++
			}
		}
	}
	if stealing != 0 {
		t.Fatalf("%d steal requests not drained", stealing)
	}
	for _, wh := range s.workers {
		if wh.inbound != 0 || wh.outbound != 0 {
			t.Fatalf("worker %d steal accounting leaked: in=%d out=%d", wh.rank, wh.inbound, wh.outbound)
		}
	}
	seen := map[TaskKey]int{}
	for _, e := range env.rec.execs {
		seen[e.Key]++
	}
	for k, n := range seen {
		if n != 1 {
			t.Fatalf("task %s executed %d times", k, n)
		}
	}
	if len(seen) != 49 {
		t.Fatalf("distinct executed = %d", len(seen))
	}
}

// TestFreeKeysBroadcastAllocatesNothing: releasing a key sends one free-keys
// message to every connected worker — more than half of a run's control
// messages — and once the scheduler, the platform and the kernel have their
// recycled structs, the whole broadcast (send, latency hop, NIC, delivery,
// the worker dropping its replica) costs no malloc.
func TestFreeKeysBroadcastAllocatesNothing(t *testing.T) {
	k := sim.NewKernel(1)
	plat := platform.New(k, platform.Polaris())
	c := NewCluster(k, plat, nil, DefaultConfig(), nil)
	s := c.scheduler
	for _, wh := range s.workers {
		wh.connected = true // no Start: no heartbeat or steal loop to stop
	}
	const key, size = TaskKey("x-0"), 1 << 20
	ts := &schedTask{spec: &TaskSpec{Key: key}}
	s.tasks[key] = ts
	everyRank := make([]int, len(c.workers))
	for i, w := range c.workers {
		everyRank[i] = w.rank
	}
	broadcast := func() {
		ts.state = StateMemory
		ts.whoHas = everyRank
		for _, w := range c.workers {
			w.data[key] = size
		}
		s.release(ts)
		k.Run()
	}
	broadcast() // warm-up: free lists and scratch reach their steady size
	if n := testing.AllocsPerRun(200, broadcast); n != 0 {
		t.Errorf("free-keys broadcast to %d workers: %v allocs, budget 0", len(c.workers), n)
	}
	for _, w := range c.workers {
		if w.HasData(key) {
			t.Errorf("worker %d still holds the released key", w.rank)
		}
	}
	if ts.state != StateReleased || len(ts.whoHas) != 0 {
		t.Errorf("after release: state %q, %d holders", ts.state, len(ts.whoHas))
	}
}

// TestRegisterGraphAllocatesPerGraph: registering a graph allocates its task
// slab and the arenas its dependency lists, waiting marks, first holders and
// dependents lists are carved from — a handful of mallocs per graph — plus
// the growth of the key index, never a map or a list per task.
func TestRegisterGraphAllocatesPerGraph(t *testing.T) {
	register := func(n int) uint64 {
		k := sim.NewKernel(1)
		c := NewCluster(k, platform.New(k, platform.Polaris()), nil, DefaultConfig(), nil)
		// One root, a layer reading it, and a layer reading two neighbours of
		// that: waiting marks, in-graph dependents and graph outputs. No
		// worker is connected, so only the root is placed, and parked.
		g := NewGraph(1)
		g.Add(&TaskSpec{Key: "root"})
		half := (n - 1) / 2
		for i := 0; i < half; i++ {
			g.Add(&TaskSpec{Key: TaskKey(fmt.Sprintf("a-%05d", i)), Deps: []TaskKey{"root"}})
		}
		for i := 0; i < n-1-half; i++ {
			g.Add(&TaskSpec{Key: TaskKey(fmt.Sprintf("b-%05d", i)), Deps: []TaskKey{
				TaskKey(fmt.Sprintf("a-%05d", i%half)), TaskKey(fmt.Sprintf("a-%05d", (i+1)%half)),
			}})
		}
		if err := g.Finalize(); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c.scheduler.handleGraph(g)
		runtime.ReadMemStats(&after)
		if got := c.scheduler.TaskState("b-00000"); got != StateWaiting {
			t.Fatalf("b-00000 is %q after registration, want waiting", got)
		}
		return after.Mallocs - before.Mallocs
	}
	small, large := register(64), register(4096)
	t.Logf("registering 64 tasks: %d mallocs; 4096 tasks: %d mallocs", small, large)
	// The key index (a Go map) grows in a logarithmic number of steps; the
	// rest is per graph. One malloc per task would be 4032 more.
	if large-small > 64 {
		t.Errorf("registering 4096 tasks costs %d mallocs more than 64 tasks, budget 64", large-small)
	}
}
