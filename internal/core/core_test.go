package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"taskprov/internal/darshan"
	"taskprov/internal/dask"
	"taskprov/internal/live"
	"taskprov/internal/mofka"
	"taskprov/internal/pfs"
	"taskprov/internal/platform"
	"taskprov/internal/posixio"
	"taskprov/internal/provenance"
	"taskprov/internal/sim"
)

// toyWorkflow: stage a few input files, read them in tasks, reduce.
type toyWorkflow struct {
	files int
}

func (t *toyWorkflow) Name() string { return "toy" }

func (t *toyWorkflow) Stage(env *Env) {
	for i := 0; i < t.files; i++ {
		env.PFS.CreateNow(fmt.Sprintf("/lus/in/f%03d", i), 8<<20)
	}
}

func (t *toyWorkflow) Run(p *sim.Proc, cl *dask.Client, env *Env) {
	g := dask.NewGraph(1)
	var deps []dask.TaskKey
	for i := 0; i < t.files; i++ {
		i := i
		key := dask.TaskKey(fmt.Sprintf("load-%03d", i))
		deps = append(deps, key)
		g.Add(&dask.TaskSpec{
			Key:        key,
			OutputSize: 8 << 20,
			Run: func(ctx *dask.TaskContext) {
				f, err := ctx.Open(fmt.Sprintf("/lus/in/f%03d", i), posixio.RDONLY)
				if err != nil {
					panic(err)
				}
				f.Read(ctx.Proc(), 8<<20)
				f.Close(ctx.Proc())
				ctx.Compute(sim.Milliseconds(50))
			},
		})
	}
	g.Add(&dask.TaskSpec{Key: "reduce-000", Deps: deps, EstDuration: sim.Milliseconds(30), OutputSize: 64})
	cl.SubmitAndWait(p, g)
}

func testSession(seed uint64) SessionConfig {
	cfg := DefaultSessionConfig("job-test", seed)
	cfg.Platform.NodeSpeedCV = 0
	cfg.PFS.InterferenceLoad = 0
	cfg.Dask.WorkersPerNode = 2
	cfg.Dask.ThreadsPerWorker = 2
	return cfg
}

func TestRunProducesArtifacts(t *testing.T) {
	art, err := Run(testSession(1), &toyWorkflow{files: 12})
	if err != nil {
		t.Fatal(err)
	}
	if art.WallTime <= 0 {
		t.Fatal("no wall time")
	}
	tasks, err := art.DistinctTasks()
	if err != nil || tasks != 13 {
		t.Fatalf("tasks = %d, %v", tasks, err)
	}
	graphs, err := art.TaskGraphs()
	if err != nil || graphs != 1 {
		t.Fatalf("graphs = %d, %v", graphs, err)
	}
	if files := art.DistinctFiles(); files != 12 {
		t.Fatalf("files = %d", files)
	}
	if ops := art.TotalIOOps(); ops != 12 {
		t.Fatalf("io ops = %d, want 12 reads", ops)
	}
	if len(art.DarshanLogs) != 4 {
		t.Fatalf("darshan logs = %d (one per worker)", len(art.DarshanLogs))
	}
	// Provenance metadata layers are present.
	m := art.Meta
	if m.Platform.Nodes != 2 || m.Storage.OSTs == 0 || m.Software.OS == "" {
		t.Fatalf("metadata incomplete: %+v", m)
	}
	if m.Job.Script == "" || m.DaskConfig.HeartbeatIntervalSec <= 0 {
		t.Fatalf("job/dask layers incomplete: %+v", m)
	}
	if m.WallSeconds <= 0 {
		t.Fatal("wall seconds missing")
	}
}

func TestEventStreamsDecode(t *testing.T) {
	art, err := Run(testSession(2), &toyWorkflow{files: 8})
	if err != nil {
		t.Fatal(err)
	}
	trans, err := provenance.Drain(art.Broker, provenance.TopicTransitions, provenance.DecodeTransition)
	if err != nil || len(trans) == 0 {
		t.Fatalf("transitions = %d, %v", len(trans), err)
	}
	for _, tr := range trans {
		if tr.Key == "" || tr.To == "" || tr.Location == "" {
			t.Fatalf("bad transition: %+v", tr)
		}
	}
	execs, err := provenance.Drain(art.Broker, provenance.TopicExecutions, provenance.DecodeExecution)
	if err != nil || len(execs) != 9 {
		t.Fatalf("executions = %d, %v", len(execs), err)
	}
	for _, e := range execs {
		if e.ThreadID == 0 || e.Stop <= e.Start || e.Hostname == "" {
			t.Fatalf("bad execution: %+v", e)
		}
	}
	metas, err := provenance.Drain(art.Broker, provenance.TopicTaskMeta, provenance.DecodeTaskMeta)
	if err != nil || len(metas) != 9 {
		t.Fatalf("task metas = %d, %v", len(metas), err)
	}
	tm := metas[len(metas)-1]
	if tm.Key == "" || tm.Prefix == "" {
		t.Fatalf("bad task meta: %+v", tm)
	}
}

func TestDisableCollection(t *testing.T) {
	cfg := testSession(3)
	cfg.DisableCollection = true
	art, err := Run(cfg, &toyWorkflow{files: 4})
	if err != nil {
		t.Fatal(err)
	}
	if art.Collector != nil || len(art.DarshanLogs) != 0 {
		t.Fatal("collection artifacts present while disabled")
	}
	if len(art.Broker.Topics()) != 0 {
		t.Fatalf("topics = %v", art.Broker.Topics())
	}
	if art.WallTime <= 0 {
		t.Fatal("workflow did not run")
	}
}

func TestDeterministicArtifacts(t *testing.T) {
	runOnce := func() (int64, float64) {
		art, err := Run(testSession(7), &toyWorkflow{files: 10})
		if err != nil {
			t.Fatal(err)
		}
		comms, _ := art.TotalCommunications()
		return comms, art.Meta.WallSeconds
	}
	c1, w1 := runOnce()
	c2, w2 := runOnce()
	if c1 != c2 || w1 != w2 {
		t.Fatalf("same seed diverged: (%d, %v) vs (%d, %v)", c1, w1, c2, w2)
	}
}

func TestWriteLoadDirRoundTrip(t *testing.T) {
	art, err := Run(testSession(4), &toyWorkflow{files: 6})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "run-001")
	if err := art.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	// Files exist.
	if _, err := os.Stat(filepath.Join(dir, "metadata.json")); err != nil {
		t.Fatal(err)
	}
	if m, _ := filepath.Glob(filepath.Join(dir, "darshan", "*.darshan")); len(m) != 4 {
		t.Fatalf("darshan files = %v", m)
	}

	got, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta.Workflow != "toy" || got.Meta.Seed != 4 {
		t.Fatalf("meta = %+v", got.Meta)
	}
	if len(got.DarshanLogs) != len(art.DarshanLogs) {
		t.Fatalf("darshan logs = %d", len(got.DarshanLogs))
	}
	origTasks, _ := art.DistinctTasks()
	gotTasks, _ := got.DistinctTasks()
	if origTasks != gotTasks {
		t.Fatalf("tasks after reload: %d vs %d", gotTasks, origTasks)
	}
	origComms, _ := art.TotalCommunications()
	gotComms, _ := got.TotalCommunications()
	if origComms != gotComms {
		t.Fatalf("comms after reload: %d vs %d", gotComms, origComms)
	}
	if got.TotalIOOps() != art.TotalIOOps() {
		t.Fatalf("ops after reload: %d vs %d", got.TotalIOOps(), art.TotalIOOps())
	}
}

func TestLoadDirMissing(t *testing.T) {
	if _, err := LoadDir(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("missing dir loaded")
	}
}

func TestCollectorCounts(t *testing.T) {
	art, err := Run(testSession(5), &toyWorkflow{files: 5})
	if err != nil {
		t.Fatal(err)
	}
	if art.Collector.EventCount(provenance.TopicExecutions) != 6 {
		t.Fatalf("execution events = %d", art.Collector.EventCount(provenance.TopicExecutions))
	}
	if art.Collector.TotalEvents() < 20 {
		t.Fatalf("total events = %d", art.Collector.TotalEvents())
	}
}

// Guard against unused imports in refactors.
var _ = platform.Polaris
var _ = pfs.Lustre

// TestInSituMonitor is the paper's in situ consumption mode: a live.Monitor
// attached to an external broker BEFORE the run consumes events as the
// producer flushes them, and once finished has seen exactly what a
// post-mortem drain of the same broker sees.
func TestInSituMonitor(t *testing.T) {
	broker := mofka.NewStandaloneBroker()
	mon := live.NewMonitor(broker, live.MonitorOptions{DisableEmit: true})
	art, err := RunOnBroker(testSession(21), &toyWorkflow{files: 10}, broker)
	if err != nil {
		mon.Stop()
		t.Fatal(err)
	}
	sum := mon.Finish(art.DarshanLogs, art.WallTime.Seconds())
	if sum.Tasks != 11 {
		t.Fatalf("in-situ executions = %d, want 11", sum.Tasks)
	}
	post, err := provenance.Drain(art.Broker, provenance.TopicTransitions, provenance.DecodeTransition)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Transitions != int64(len(post)) {
		t.Fatalf("in-situ transitions = %d, post-mortem = %d", sum.Transitions, len(post))
	}
	var events int64
	for _, name := range provenance.AllTopics() {
		if tp, err := art.Broker.OpenTopic(name); err == nil {
			events += int64(tp.Events())
		}
	}
	if sum.Events != events {
		t.Fatalf("in-situ events = %d, the broker holds %d", sum.Events, events)
	}
}

func TestSynthesizedLogs(t *testing.T) {
	art, err := Run(testSession(41), &toyWorkflow{files: 6})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := RenderSchedulerLog(art)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sched, "Receive graph 1 (7 tasks)") || !strings.Contains(sched, "Graph 1 complete") {
		t.Fatalf("scheduler log:\n%s", sched)
	}
	workers, err := art.WorkerAddrs()
	if err != nil || len(workers) == 0 {
		t.Fatalf("workers = %v, %v", workers, err)
	}
	wls, err := RenderWorkerLogs(art, workers[:1])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(wls[0], "Start worker at "+workers[0]) {
		t.Fatalf("worker log:\n%s", wls[0])
	}
	// WriteDir persists them.
	dir := filepath.Join(t.TempDir(), "run")
	if err := art.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "logs", "scheduler.log")); err != nil {
		t.Fatal(err)
	}
	m, _ := filepath.Glob(filepath.Join(dir, "logs", "worker-*.log"))
	if len(m) != len(workers) {
		t.Fatalf("worker logs = %d, want %d", len(m), len(workers))
	}
}

func TestRenderChart(t *testing.T) {
	art, err := Run(testSession(51), &toyWorkflow{files: 4})
	if err != nil {
		t.Fatal(err)
	}
	out := art.Meta.RenderChart()
	for _, want := range []string{
		"hardware infrastructure", "system software & job configuration",
		"application layer", "polaris-sim", "/lus/grand",
		"distributed.yaml", "job script", "package: darshan",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("chart missing %q:\n%s", want, out)
		}
	}
}

func TestOnlineIOTracer(t *testing.T) {
	// The future-work mode: POSIX operations stream to Mofka live, while
	// the wrapped Darshan runtime still builds its log.
	broker := mofka.NewStandaloneBroker()
	inner := darshan.NewRuntime(darshan.Config{JobID: "j", Rank: 0, Hostname: "n0", DXTEnabled: true})
	tracer, err := NewOnlineIOTracer(broker, mofka.ProducerOptions{BatchSize: 4}, inner, 0, "n0")
	if err != nil {
		t.Fatal(err)
	}
	rec := func(path string, off, n int64, s, e float64) posixio.OpRecord {
		return posixio.OpRecord{Path: path, TID: 9, Offset: off, Bytes: n,
			Start: sim.Seconds(s), End: sim.Seconds(e)}
	}
	tracer.OpenEvent(rec("/f", 0, 0, 0, 0.01), true)
	tracer.ReadEvent(rec("/f", 0, 4096, 0.1, 0.2))
	tracer.WriteEvent(rec("/f", 4096, 512, 0.3, 0.4))
	tracer.CloseEvent(rec("/f", 0, 0, 0.5, 0.5))
	if err := tracer.Flush(); err != nil {
		t.Fatal(err)
	}
	metas, err := provenance.Drain(broker, provenance.TopicIOTrace, provenance.DecodeIOTrace)
	if err != nil || len(metas) != 4 {
		t.Fatalf("streamed events = %d, %v", len(metas), err)
	}
	// Ordering is per-partition only (round-robin partitioner), so check
	// the multiset of operations and the identity fields.
	got := map[string]int{}
	for i, m := range metas {
		got[m.Op]++
		if m.Hostname != "n0" || m.ThreadID != 9 {
			t.Fatalf("event %d identity wrong: %v", i, m)
		}
	}
	for _, op := range []string{"create", "read", "write", "close"} {
		if got[op] != 1 {
			t.Fatalf("ops = %v", got)
		}
	}
	// The wrapped Darshan runtime saw everything too.
	log := inner.Snapshot()
	if log.TotalOps() != 2 {
		t.Fatalf("inner darshan ops = %d", log.TotalOps())
	}
	if len(log.Records) != 1 || log.Records[0].Path != "/f" || len(log.Records[0].DXT) != 2 {
		t.Fatal("inner darshan DXT missing")
	}
}

func TestOnlineIOTracerEndToEnd(t *testing.T) {
	// A full instrumented run with the online tracer wrapping each worker's
	// Darshan runtime: the io-trace topic must match the Darshan logs.
	broker := mofka.NewStandaloneBroker()
	cfg := testSession(61)
	k := sim.NewKernel(cfg.Seed)
	plat := platform.New(k, cfg.Platform)
	fsys := pfs.New(k, cfg.PFS)
	px := posixio.NewFS(fsys)
	var runtimes []*darshan.Runtime
	tracers := func(rank int, hostname string) posixio.Tracer {
		rt := darshan.NewRuntime(darshan.Config{JobID: cfg.JobID, Rank: rank, Hostname: hostname, DXTEnabled: true})
		runtimes = append(runtimes, rt)
		online, err := NewOnlineIOTracer(broker, mofka.ProducerOptions{BatchSize: 8}, rt, rank, hostname)
		if err != nil {
			t.Fatal(err)
		}
		onlineTracers = append(onlineTracers, online)
		return online
	}
	onlineTracers = nil
	cluster := dask.NewCluster(k, plat, px, cfg.Dask, tracers)
	wf := &toyWorkflow{files: 8}
	wf.Stage(&Env{Kernel: k, Platform: plat, PFS: fsys, FS: px, Cluster: cluster})
	cluster.Start()
	k.Go(func(p *sim.Proc) {
		cl := cluster.Client()
		cl.WaitForWorkers(p, len(cluster.Workers()))
		wf.Run(p, cl, nil)
		k.Stop()
	})
	k.Run()
	for _, o := range onlineTracers {
		if err := o.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	metas, err := provenance.Drain(broker, provenance.TopicIOTrace, provenance.DecodeIOTrace)
	if err != nil {
		t.Fatal(err)
	}
	var streamedRW int
	for _, m := range metas {
		if m.Op == "read" || m.Op == "write" {
			streamedRW++
		}
	}
	var darshanRW int64
	for _, rt := range runtimes {
		darshanRW += rt.Snapshot().TotalOps()
	}
	if int64(streamedRW) != darshanRW {
		t.Fatalf("streamed %d read/write events, darshan has %d", streamedRW, darshanRW)
	}
}

var onlineTracers []*OnlineIOTracer

// TestCollectorAllocationBudget guards the event hot path: a scheduler
// transition through the plugin, the encoder, the producer and an in-memory
// broker's append costs at most two allocations, amortised over its batch.
// Before the typed codec it cost about thirty-six.
func TestCollectorAllocationBudget(t *testing.T) {
	broker := mofka.NewStandaloneBroker()
	c, err := NewCollector(broker.Bus(), mofka.ProducerOptions{BatchSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	plugin := c.SchedulerPlugin()
	tr := dask.Transition{Key: "('getitem-0af3c1', 12)", From: dask.StateWaiting, To: dask.StateProcessing,
		Stimulus: "dependencies-ready", Location: "scheduler", At: sim.Seconds(12.345678901)}
	for i := 0; i < 1024; i++ {
		plugin.SchedulerTransition(tr)
	}
	if perEvent := testing.AllocsPerRun(64*64, func() { plugin.SchedulerTransition(tr) }); perEvent > 2 {
		t.Fatalf("a collected transition costs %.2f allocations, budget 2", perEvent)
	} else {
		t.Logf("%.3f allocations per collected transition", perEvent)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := provenance.Drain(broker, provenance.TopicTransitions, provenance.DecodeTransition)
	if err != nil || len(got) != 1024+64*64+1 || got[len(got)-1] != tr {
		t.Fatalf("drained %d transitions (%v), last %+v", len(got), err, got[len(got)-1])
	}
}

// TestCollectorReportsDroppedEvents: provenance lost to the bounded backlog
// during a producer's degraded episode is counted on the warning that closes
// the episode; an episode that dropped nothing keeps the plain message.
func TestCollectorReportsDroppedEvents(t *testing.T) {
	broker := mofka.NewStandaloneBroker()
	c, err := NewCollector(broker.Bus(), mofka.ProducerOptions{
		BatchSize: 1, FlushRetries: 1, RetryBackoff: time.Microsecond, MaxPendingBatches: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	plugin := c.SchedulerPlugin()
	episode := func(events int) {
		broker.SetAppendFault(func(topic string, _ int) error {
			if topic == provenance.TopicTransitions {
				return errors.New("disk on fire")
			}
			return nil
		})
		for i := 0; i < events; i++ {
			plugin.SchedulerTransition(dask.Transition{Key: "k", From: dask.StateWaiting, To: dask.StateProcessing})
		}
		broker.SetAppendFault(nil)
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	episode(8) // 4 per partition: 2 stay queued, 2 are dropped
	episode(2) // 1 per partition: fits the backlog
	warns, err := provenance.Drain(broker, provenance.TopicWarnings, provenance.DecodeWarning)
	if err != nil {
		t.Fatal(err)
	}
	var recovered []string
	for _, w := range warns {
		if w.Kind == dask.WarnProducerDegraded && strings.Contains(w.Message, "recovered") {
			recovered = append(recovered, w.Message)
		}
	}
	want := []string{
		"producer for topic task-transitions recovered after 0.000000s; dropped=4",
		"producer for topic task-transitions recovered after 0.000000s",
	}
	if !slices.Equal(recovered, want) {
		t.Fatalf("recovery warnings = %q, want %q", recovered, want)
	}
}

// TestFlushShipsRecoveryWarning: a producer whose backlog drains during the
// final Flush reports its recovery — and how many events the gap cost — on the
// warnings topic, and that warning ships with the same Flush whatever order a
// map of producers would have been ranged in.
func TestFlushShipsRecoveryWarning(t *testing.T) {
	for trial := 0; trial < 64; trial++ {
		broker := mofka.NewStandaloneBroker()
		c, err := NewCollector(broker.Bus(), mofka.ProducerOptions{FlushRetries: 1, RetryBackoff: time.Microsecond})
		if err != nil {
			t.Fatal(err)
		}
		broker.SetAppendFault(func(topic string, _ int) error {
			if topic == provenance.TopicTransitions {
				return errors.New("disk on fire")
			}
			return nil
		})
		plugin := c.SchedulerPlugin()
		for i := 0; i < 300; i++ {
			plugin.SchedulerTransition(dask.Transition{Key: "k", From: dask.StateWaiting, To: dask.StateProcessing})
		}
		broker.SetAppendFault(nil)
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		warns, err := provenance.Drain(broker, provenance.TopicWarnings, provenance.DecodeWarning)
		if err != nil {
			t.Fatal(err)
		}
		degraded, recovered := 0, 0
		for _, w := range warns {
			switch {
			case w.Kind != dask.WarnProducerDegraded:
			case strings.Contains(w.Message, "degraded (buffering)"):
				degraded++
			case strings.Contains(w.Message, "recovered after"):
				recovered++
			}
		}
		if degraded != 1 || recovered != 1 {
			t.Fatalf("trial %d: %d degraded and %d recovered warnings shipped, want one of each: %+v", trial, degraded, recovered, warns)
		}
	}
}
