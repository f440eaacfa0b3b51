// Package live_test holds the cross-subsystem acceptance test for the
// live/post-mortem aggregate-equivalence invariant: a real core.Run with the
// live monitor attached must produce end-of-run aggregates identical to
// every post-mortem path over the same data — in-memory artifact replay,
// durable-WAL replay, and the WAL tailer.
package live_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"taskprov/internal/core"
	"taskprov/internal/dask"
	"taskprov/internal/live"
	"taskprov/internal/mochi/mercury"
	"taskprov/internal/mofka"
	mcluster "taskprov/internal/mofka/cluster"
	"taskprov/internal/perfrecup"
	"taskprov/internal/posixio"
	"taskprov/internal/sim"
	"taskprov/internal/workloads"
)

// miniWorkflow mirrors the perfrecup test workload: I/O-bound loads, one
// event-loop-blocking task, a reduce, and a second graph writing the result.
// With straggler set, the last load computes for seconds, not milliseconds.
type miniWorkflow struct {
	files     int
	straggler bool
}

func (m *miniWorkflow) Name() string { return "mini" }

func (m *miniWorkflow) Stage(env *core.Env) {
	for i := 0; i < m.files; i++ {
		env.PFS.CreateNow(fmt.Sprintf("/lus/in/f%03d", i), 4<<20)
	}
}

func (m *miniWorkflow) Run(p *sim.Proc, cl *dask.Client, env *core.Env) {
	g := dask.NewGraph(1)
	var deps []dask.TaskKey
	for i := 0; i < m.files; i++ {
		i := i
		key := dask.TaskKey(fmt.Sprintf("load-%04d", i))
		deps = append(deps, key)
		g.Add(&dask.TaskSpec{
			Key: key, OutputSize: 4 << 20,
			Run: func(ctx *dask.TaskContext) {
				f, err := ctx.Open(fmt.Sprintf("/lus/in/f%03d", i), posixio.RDONLY)
				if err != nil {
					panic(err)
				}
				f.Read(ctx.Proc(), 4<<20)
				f.Close(ctx.Proc())
				if m.straggler && i == m.files-1 {
					ctx.Compute(sim.Seconds(3))
				} else {
					ctx.Compute(sim.Milliseconds(80))
				}
			},
		})
	}
	g.Add(&dask.TaskSpec{
		Key: "slow-blocker-01", OutputSize: 1 << 20,
		EstDuration: sim.Seconds(8), BlocksEventLoop: true,
	})
	g.Add(&dask.TaskSpec{Key: "reduce-0000", Deps: deps, EstDuration: sim.Milliseconds(60), OutputSize: 128})
	cl.SubmitAndWait(p, g)

	g2 := dask.NewGraph(2)
	g2.AddExternal("reduce-0000")
	g2.Add(&dask.TaskSpec{
		Key: "writer-0001", Deps: []dask.TaskKey{"reduce-0000"}, OutputSize: 64,
		Run: func(ctx *dask.TaskContext) {
			f, err := ctx.Open("/lus/out/result", posixio.WRONLY|posixio.CREATE)
			if err != nil {
				panic(err)
			}
			f.Write(ctx.Proc(), 1<<20)
			f.Close(ctx.Proc())
			ctx.Compute(sim.Milliseconds(20))
		},
	})
	cl.SubmitAndWait(p, g2)
}

type liveRun struct {
	art     *core.RunArtifacts
	dataDir string
}

var cached *liveRun

// TestMain owns the cached run's data dir: t.TempDir() would be removed
// when the first test using the shared run finishes, breaking the
// post-mortem tests that read the same WAL afterwards.
func TestMain(m *testing.M) {
	code := m.Run()
	if cached != nil {
		os.RemoveAll(filepath.Dir(cached.dataDir))
	}
	os.Exit(code)
}

func monitoredRun(t *testing.T) *liveRun {
	t.Helper()
	if cached != nil {
		return cached
	}
	root, err := os.MkdirTemp("", "live-crosscheck-")
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, "wal")
	cfg := core.DefaultSessionConfig("job-mini", 11)
	cfg.Platform.NodeSpeedCV = 0
	cfg.PFS.InterferenceLoad = 0
	cfg.Dask.WorkersPerNode = 2
	cfg.Dask.ThreadsPerWorker = 2
	cfg.Dask.EventLoopMonitorThreshold = sim.Seconds(1)
	cfg.MofkaDataDir = dir
	cfg.LiveMonitor = true
	art, err := core.Run(cfg, &miniWorkflow{files: 24})
	if err != nil {
		t.Fatal(err)
	}
	if art.Live == nil {
		t.Fatal("LiveMonitor was enabled but art.Live is nil")
	}
	cached = &liveRun{art: art, dataDir: dir}
	return cached
}

// TestLiveEqualsArtifactReplay: the monitor's streaming result over a real
// run equals PERFRECUP's canonical replay of the in-memory artifacts.
func TestLiveEqualsArtifactReplay(t *testing.T) {
	r := monitoredRun(t)
	want, err := perfrecup.LiveReplay(r.art, live.AggregatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*r.art.Live, want) {
		t.Fatalf("live summary != artifact replay:\nlive:   %+v\nreplay: %+v", *r.art.Live, want)
	}
	// Sanity: the run actually exercised every aggregate surface.
	s := r.art.Live
	if s.Tasks != 27 || s.Submitted != 27 || s.GraphsDone != 2 {
		t.Fatalf("tasks=%d submitted=%d graphs=%d", s.Tasks, s.Submitted, s.GraphsDone)
	}
	if s.IOOps == 0 || s.IOBytes == 0 || len(s.HostIO) == 0 {
		t.Fatalf("darshan aggregates missing: io_ops=%d io_bytes=%d hosts=%d", s.IOOps, s.IOBytes, len(s.HostIO))
	}
	if s.Groups["load"].Count != 24 {
		t.Fatalf("groups = %+v", s.Groups)
	}
	if s.Warnings["unresponsive_event_loop"] == 0 {
		t.Fatalf("warnings = %v", s.Warnings)
	}
}

// TestLiveEqualsWALReplay: the same equality holds against the durable data
// dir, through both perfrecup.LoadEventLog and live.ReplayDataDir.
func TestLiveEqualsWALReplay(t *testing.T) {
	r := monitoredRun(t)

	post, err := perfrecup.LoadEventLog(r.dataDir)
	if err != nil {
		t.Fatal(err)
	}
	fromLog, err := perfrecup.LiveReplay(post, live.AggregatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*r.art.Live, fromLog) {
		t.Fatal("live summary != replay of perfrecup.LoadEventLog artifacts")
	}

	fromDir, err := live.ReplayDataDir(r.dataDir, live.AggregatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*r.art.Live, fromDir) {
		t.Fatalf("live summary != ReplayDataDir:\nlive: %+v\ndir:  %+v", *r.art.Live, fromDir)
	}
}

// TestReplayDataDirOpensClusterDirs: a 3-broker RF2 run's directory
// (cluster.json + node-NN/) replays to the aggregates of the same seed's
// standalone directory — it used to come back empty, without an error.
func TestReplayDataDirOpensClusterDirs(t *testing.T) {
	run := func(brokers int) live.Summary {
		dir := filepath.Join(t.TempDir(), "log")
		cfg := core.DefaultSessionConfig("job-mini", 11)
		cfg.Platform.NodeSpeedCV = 0
		cfg.PFS.InterferenceLoad = 0
		cfg.Dask.WorkersPerNode = 2
		cfg.Dask.ThreadsPerWorker = 2
		cfg.MofkaDataDir = dir
		if brokers > 0 {
			cfg.ClusterBrokers = brokers
			cfg.ClusterReplication = 2
		}
		if _, err := core.Run(cfg, &miniWorkflow{files: 24}); err != nil {
			t.Fatal(err)
		}
		s, err := live.ReplayDataDir(dir, live.AggregatorOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	standalone, clustered := run(0), run(3)
	if clustered.Tasks == 0 || clustered.Tasks != standalone.Tasks {
		t.Fatalf("cluster dir replays %d tasks, standalone dir %d", clustered.Tasks, standalone.Tasks)
	}
	if clustered.Submitted != standalone.Submitted || clustered.GraphsDone != standalone.GraphsDone ||
		clustered.ComputeSeconds != standalone.ComputeSeconds || clustered.IOOps != standalone.IOOps ||
		clustered.WallSeconds != standalone.WallSeconds || clustered.Workflow != "mini" {
		t.Fatalf("cluster dir summary differs from standalone:\ncluster:    %+v\nstandalone: %+v", clustered, standalone)
	}
}

// TestLiveEqualsPhases: the Fig. 3 phase decomposition PERFRECUP reports is
// bit-for-bit the one the live monitor streamed.
func TestLiveEqualsPhases(t *testing.T) {
	r := monitoredRun(t)
	ph, err := perfrecup.Phases(r.art)
	if err != nil {
		t.Fatal(err)
	}
	s := r.art.Live
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"io", ph.IOSeconds, s.IOSeconds},
		{"comm", ph.CommSeconds, s.CommSeconds},
		{"compute", ph.ComputeSeconds, s.ComputeSeconds},
		{"total", ph.TotalSeconds, s.WallSeconds},
	} {
		if c.got != c.want || math.IsNaN(c.got) {
			t.Errorf("phase %s: perfrecup=%v live=%v", c.name, c.got, c.want)
		}
	}
	if ph.ThreadSlots != s.ThreadSlots || ph.Tasks != s.Tasks || ph.IOOps != s.IOOps {
		t.Errorf("slots/tasks/ioops mismatch: %+v vs live %+v", ph, s)
	}
	if ph.IOSeconds <= 0 || ph.ComputeSeconds <= 0 {
		t.Errorf("degenerate phases: %+v", ph)
	}
}

// TestWatchServesCrashedRun: `taskprov watch -data-dir` on the WAL of a run
// that never shut down cleanly (the kill -9 scenario — the WAL is written
// crash-consistently, so a dir mid-run looks exactly like a crashed one)
// serves the same snapshot as direct post-mortem replay.
func TestWatchServesCrashedRun(t *testing.T) {
	r := monitoredRun(t)
	tail, err := live.TailWAL(r.dataDir, live.TailOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Stop()
	if !reflect.DeepEqual(tail.Snapshot(), *r.art.Live) {
		t.Fatal("WAL tailer snapshot != live summary")
	}
	if w := tail.Snapshot().Workflow; w != "mini" {
		t.Fatalf("workflow from metadata.json = %q", w)
	}
}

// TestReplayServiceEqualsReplayBroker: ReplayService over what mofkad serves
// of a finished run — its data dir opened by cluster.OpenLog, in process and
// over TCP — reads the log in the order the replay of the run's own broker
// does, so its snapshot is ReplayBroker's, anomalies included. That holds
// for a standalone run's dir and a `-cluster 3 -replication 2` run's, and
// serving either leaves every byte of it as it was.
func TestReplayServiceEqualsReplayBroker(t *testing.T) {
	for _, clustered := range []bool{false, true} {
		cfg := workloads.DefaultSession("imageprocessing", "job-imageprocessing", 3)
		cfg.MofkaDataDir = filepath.Join(t.TempDir(), "data")
		if clustered {
			cfg.ClusterBrokers, cfg.ClusterReplication = 3, 2
		}
		wf, err := workloads.New("imageprocessing")
		if err != nil {
			t.Fatal(err)
		}
		art, err := core.Run(cfg, wf)
		if err != nil {
			t.Fatal(err)
		}
		before := dirDigest(t, cfg.MofkaDataDir)
		served, err := mcluster.OpenLog(cfg.MofkaDataDir)
		if err != nil {
			t.Fatal(err)
		}
		ep := mercury.NewEndpoint("mofkad")
		mofka.Serve(ep, served.Service())
		srv, err := mercury.Serve(ep, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		cli, err := mercury.Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		servicesEqualReplay(t, art.Broker, served.Service(), mofka.NewRemote(cli))
		_ = cli.Close()
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		if after := dirDigest(t, cfg.MofkaDataDir); after != before {
			t.Fatalf("clustered=%v: serving the data dir changed it", clustered)
		}
	}
}

// dirDigest is the SHA-256 of every directory and file under root, paths and
// bytes, in path order.
func dirDigest(t *testing.T, root string) string {
	t.Helper()
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			fmt.Fprintf(h, "%s/\n", path)
			return err
		}
		b, err := os.ReadFile(path)
		fmt.Fprintf(h, "%s %d\n", path, len(b))
		h.Write(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// servicesEqualReplay fails unless ReplayService over each service takes
// ReplayBroker's snapshot of b, which must raise anomalies.
func servicesEqualReplay(t *testing.T, b *mofka.Broker, svcs ...mofka.Service) {
	t.Helper()
	replay := live.NewAggregator(live.AggregatorOptions{})
	if err := live.ReplayBroker(b, replay); err != nil {
		t.Fatal(err)
	}
	want := replay.Snapshot()
	if len(want.Anomalies) == 0 {
		t.Fatal("the replay raised no anomaly; the test wants some to compare")
	}
	for _, svc := range svcs {
		agg := live.NewAggregator(live.AggregatorOptions{})
		if err := live.ReplayService(svc, agg); err != nil {
			t.Fatal(err)
		}
		got := agg.Snapshot()
		if len(got.Anomalies) != len(want.Anomalies) {
			t.Errorf("%T: ReplayService raised %d anomalies, the replay %d", svc, len(got.Anomalies), len(want.Anomalies))
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%T: ReplayService's snapshot differs from the replay's", svc)
		}
	}
}

// liveRunBytes runs wf with the live monitor into a fresh data dir under the
// fsync policy, and returns the monitor's Summary and every file the run
// stored, keyed by its path below the dir, with the dir's own path
// (metadata.json records it) cut out.
func liveRunBytes(t *testing.T, cfg core.SessionConfig, wf core.Workflow, policy string) (live.Summary, map[string]string) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "data")
	cfg.MofkaDataDir, cfg.MofkaSyncPolicy, cfg.LiveMonitor = dir, policy, true
	art, err := core.Run(cfg, wf)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]string{}
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		b, err := os.ReadFile(path)
		files[rel] = strings.ReplaceAll(string(b), dir, "DIR")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return *art.Live, files
}

// sameLiveRun fails unless a second run stored the same bytes and ended at
// the same Summary as the first.
func sameLiveRun(t *testing.T, what string, gotSum, wantSum live.Summary, got, want map[string]string) {
	t.Helper()
	if !reflect.DeepEqual(gotSum, wantSum) {
		t.Errorf("%s: the live Summary differs:\n%+v\nvs\n%+v", what, gotSum, wantSum)
	}
	if len(got) != len(want) {
		t.Errorf("%s: %d stored files, want %d", what, len(got), len(want))
	}
	for path, b := range want {
		if got[path] != b {
			t.Errorf("%s: %s differs (%d bytes, want %d)", what, path, len(got[path]), len(b))
		}
	}
}

// checkLiveBytesFollowSeed runs wf four times — twice under -fsync batch,
// twice under never — and holds every run to the first one's stored bytes and
// Summary. It returns the first run's anomaly count per kind.
func checkLiveBytesFollowSeed(t *testing.T, cfg core.SessionConfig, wf func() core.Workflow) map[string]int {
	t.Helper()
	sum, files := liveRunBytes(t, cfg, wf(), "batch")
	anomalyFiles := 0
	for path := range files {
		if strings.Contains(path, "anomalies") {
			anomalyFiles++
		}
	}
	if anomalyFiles == 0 {
		t.Fatal("the run stored no anomalies topic to compare")
	}
	for _, run := range []struct{ what, policy string }{
		{"batch again", "batch"}, {"never", "never"}, {"never again", "never"},
	} {
		s, f := liveRunBytes(t, cfg, wf(), run.policy)
		sameLiveRun(t, run.what, s, sum, f, files)
	}
	kinds := map[string]int{}
	for _, a := range sum.Anomalies {
		kinds[a.Kind]++
	}
	return kinds
}

// TestLiveBytesFollowSeed: a -live run's data dir is a function of the seed —
// the anomalies topic included, which used to differ from run to run with the
// host's timing — and so is art.Live, whatever the fsync policy.
func TestLiveBytesFollowSeed(t *testing.T) {
	cfg := core.DefaultSessionConfig("job-mini", 11)
	cfg.Platform.NodeSpeedCV = 0
	cfg.PFS.InterferenceLoad = 0
	cfg.Dask.WorkersPerNode = 2
	cfg.Dask.ThreadsPerWorker = 2
	cfg.Dask.EventLoopMonitorThreshold = sim.Seconds(1)
	kinds := checkLiveBytesFollowSeed(t, cfg, func() core.Workflow { return &miniWorkflow{files: 200, straggler: true} })
	if kinds[live.AnomalyStraggler] == 0 || kinds[live.AnomalyEventLoopStreak] == 0 {
		t.Fatalf("anomalies by kind = %v; the test wants a straggler and a streak", kinds)
	}
}

var paperWorkflows = flag.Bool("paper-workflows", false, "run TestLiveBytesFollowSeedPaperWorkflows (minutes; make readpath sets it)")

// TestLiveBytesFollowSeedPaperWorkflows is TestLiveBytesFollowSeed over the
// three paper workflows at seed 3.
func TestLiveBytesFollowSeedPaperWorkflows(t *testing.T) {
	if !*paperWorkflows {
		t.Skip("needs -paper-workflows")
	}
	for _, name := range []string{"imageprocessing", "resnet152", "xgboost"} {
		t.Run(name, func(t *testing.T) {
			checkLiveBytesFollowSeed(t, workloads.DefaultSession(name, "job-"+name, 3), func() core.Workflow {
				wf, err := workloads.New(name)
				if err != nil {
					t.Fatal(err)
				}
				return wf
			})
		})
	}
}
