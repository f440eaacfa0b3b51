// Command taskprov runs the paper's workflows under the full
// characterization stack (Dask-model WMS + Darshan + Mofka) and writes the
// collected artifacts — Darshan binary logs, Mofka event topics as JSONL,
// and the provenance-chart metadata — to a run directory that cmd/perfrecup
// analyzes.
//
// Usage:
//
//	taskprov run -workflow xgboost -seed 1 -out runs/xgb-0001
//	taskprov run -workflow imageprocessing -runs 10 -out runs/ip
//	taskprov resume runs-wal/xgb-0001
//	taskprov watch -data-dir runs-wal/xgb-0001 -http 127.0.0.1:9090
//	taskprov watch -broker 127.0.0.1:7777 -once
//	taskprov whatif -run runs/xgb-0001 -scenario "workers=16 net=0.5"
//	taskprov list
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"taskprov/internal/core"
	"taskprov/internal/live"
	"taskprov/internal/mochi/mercury"
	"taskprov/internal/mofka"
	"taskprov/internal/mofka/cluster"
	"taskprov/internal/perfrecup"
	"taskprov/internal/whatif"
	"taskprov/internal/workloads"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = cmdRun(os.Args[2:])
	case "resume":
		err = cmdResume(os.Args[2:])
	case "watch":
		err = cmdWatch(os.Args[2:], nil)
	case "whatif":
		err = cmdWhatIf(os.Args[2:], os.Stdout)
	case "list":
		err = cmdList()
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "taskprov:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  taskprov run -workflow <name> [-seed N] [-runs N] [-out DIR] [-data-dir DIR] [-force] [-cluster N] [-replication N] [-quorum N] [-live] [-live-http ADDR] [-chaos SPEC] [-speculate] [-speculate-quantile Q] [-proxy-threshold BYTES] [-proxy-prefetch] [-no-dxt] [-no-collect] [-no-steal] [-cpuprofile FILE] [-memprofile FILE]
  taskprov resume [-out DIR] [-fsync POLICY] [-chaos SPEC] DATA_DIR
  taskprov watch (-data-dir DIR | -broker ADDR) [-http ADDR] [-interval DUR] [-once] [-json]
  taskprov whatif -run DIR [-scenario SPEC]... [-critpath] [-json]
  taskprov list`)
}

func cmdList() error {
	for _, name := range workloads.Names() {
		t := workloads.TableI[name]
		fmt.Printf("%-16s paper: %d graphs, %d tasks, %d files, io %d-%d, comms %d-%d, %d runs\n",
			name, t.TaskGraphs, t.DistinctTasks, t.DistinctFiles,
			t.IOOpsLow, t.IOOpsHigh, t.CommsLow, t.CommsHigh, workloads.Runs(name))
	}
	return nil
}

// startProfiles begins a CPU profile of this process into cpuFile and returns
// the function that ends it and writes the allocs profile (every allocation
// since process start, by site) to memFile. An empty name skips that profile.
func startProfiles(cpuFile, memFile string) (stop func() error, err error) {
	var cpu *os.File
	if cpuFile != "" {
		if cpu, err = os.Create(cpuFile); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() error {
		var cpuErr error
		if cpu != nil {
			pprof.StopCPUProfile()
			cpuErr = cpu.Close()
		}
		if memFile == "" {
			return cpuErr
		}
		mem, err := os.Create(memFile)
		if err != nil {
			return errors.Join(cpuErr, err)
		}
		runtime.GC() // the profile lags the heap by one collection
		return errors.Join(cpuErr, pprof.Lookup("allocs").WriteTo(mem, 0), mem.Close())
	}, nil
}

func cmdRun(args []string) (err error) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	workflow := fs.String("workflow", "", "workflow name (see `taskprov list`)")
	seed := fs.Uint64("seed", 1, "base run seed")
	runs := fs.Int("runs", 1, "number of runs (seeds seed..seed+runs-1)")
	out := fs.String("out", "runs", "output directory (one subdirectory per run)")
	dataDir := fs.String("data-dir", "", "root for durable Mofka event logs (one subdirectory per run; empty = in-memory)")
	fsync := fs.String("fsync", "batch", "durable log fsync policy: batch|interval|never")
	force := fs.Bool("force", false, "move an existing event log for the run aside (<dir>.old-<n>) instead of refusing")
	clusterN := fs.Int("cluster", 0, "back the provenance stream with a sharded Mofka cluster of N broker replicas (0 = single broker)")
	replication := fs.Int("replication", 0, "with -cluster, replicas per partition (0 = cluster default)")
	quorum := fs.Int("quorum", 0, "with -cluster, append acknowledgement quorum (0 = majority of replication)")
	liveMon := fs.Bool("live", false, "attach the live monitor (streaming aggregates + online anomaly detection)")
	liveHTTP := fs.String("live-http", "", "with -live, serve /snapshot /metrics /events on this address during the run")
	chaosSpec := fs.String("chaos", "", `fault-injection spec, e.g. "kill worker=3 at=20s restart=10s" or "slow worker=2 at=1m factor=8" (see internal/chaos)`)
	speculate := fs.Bool("speculate", false, "enable speculative (hedged) task execution: duplicate straggling tasks, first completion wins")
	specQuantile := fs.Float64("speculate-quantile", 0, "with -speculate, per-prefix completed-duration quantile for straggler candidacy (0 = default 0.75)")
	proxyThreshold := fs.Int64("proxy-threshold", 0, "pass outputs of at least BYTES by reference through the proxy store (0 = direct transfers)")
	proxyPrefetch := fs.Bool("proxy-prefetch", false, "with -proxy-threshold, resolve proxied dependencies eagerly at assignment instead of at first use")
	noDXT := fs.Bool("no-dxt", false, "disable Darshan DXT tracing")
	noCollect := fs.Bool("no-collect", false, "disable all instrumentation (overhead ablation)")
	noSteal := fs.Bool("no-steal", false, "disable work stealing (scheduling ablation)")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of the runs to FILE")
	memProfile := fs.String("memprofile", "", "write a pprof allocs profile of the runs to FILE")
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProfiles(); err == nil {
			err = perr
		}
	}()
	if *workflow == "" {
		return fmt.Errorf("missing -workflow")
	}
	// Validate flag inputs up front: absurd values fail with one clear
	// error here instead of a confusing failure mid-run (core.Run validates
	// the full SessionConfig again per run).
	if *runs < 1 {
		return fmt.Errorf("-runs %d: need at least 1", *runs)
	}
	if *runs > 10000 {
		return fmt.Errorf("-runs %d is absurd (max 10000)", *runs)
	}
	if *clusterN < 0 || *replication < 0 || *quorum < 0 {
		return fmt.Errorf("-cluster/-replication/-quorum must be >= 0")
	}
	if *clusterN == 0 && (*replication != 0 || *quorum != 0) {
		return fmt.Errorf("-replication/-quorum need -cluster N")
	}
	if *proxyThreshold < 0 {
		return fmt.Errorf("-proxy-threshold must be >= 0")
	}
	if *proxyPrefetch && *proxyThreshold == 0 {
		return fmt.Errorf("-proxy-prefetch needs -proxy-threshold BYTES")
	}
	if *specQuantile != 0 && !*speculate {
		return fmt.Errorf("-speculate-quantile needs -speculate")
	}
	if *specQuantile < 0 || *specQuantile >= 1 {
		return fmt.Errorf("-speculate-quantile %g: need 0 <= q < 1", *specQuantile)
	}
	for r := 0; r < *runs; r++ {
		s := *seed + uint64(r)
		wf, err := workloads.New(*workflow)
		if err != nil {
			return err
		}
		jobID := fmt.Sprintf("%s-%04d", *workflow, s)
		cfg := workloads.DefaultSession(*workflow, jobID, s)
		cfg.DarshanDXT = !*noDXT
		cfg.DisableCollection = *noCollect
		if *dataDir != "" {
			cfg.MofkaDataDir = filepath.Join(*dataDir, jobID)
			cfg.MofkaSyncPolicy = *fsync
			if *force {
				moved, err := moveAsideDataDir(cfg.MofkaDataDir)
				if err != nil {
					return err
				}
				if moved != "" {
					fmt.Printf("taskprov: moved stale event log %s -> %s\n", cfg.MofkaDataDir, moved)
				}
			}
		}
		if *noSteal {
			cfg.Dask.WorkStealing = false
		}
		cfg.Dask.ProxyThresholdBytes = *proxyThreshold
		cfg.Dask.ProxyPrefetch = *proxyPrefetch
		cfg.LiveMonitor = *liveMon
		cfg.LiveHTTPAddr = *liveHTTP
		cfg.ChaosSpec = *chaosSpec
		if *speculate {
			cfg.Speculation.Enabled = true
			cfg.Speculation.Quantile = *specQuantile
		}
		cfg.ClusterBrokers = *clusterN
		cfg.ClusterReplication = *replication
		cfg.ClusterQuorum = *quorum
		if err := cfg.Validate(); err != nil {
			return err
		}
		art, err := core.Run(cfg, wf)
		if err != nil {
			return fmt.Errorf("run %s: %w", jobID, err)
		}
		dir := filepath.Join(*out, jobID)
		if !*noCollect {
			if err := art.WriteDir(dir); err != nil {
				return fmt.Errorf("write %s: %w", dir, err)
			}
		}
		row := fmt.Sprintf("%s wall=%.1fs", jobID, art.Meta.WallSeconds)
		if !*noCollect {
			if r, err := perfrecup.RenderTableIRow(art); err == nil {
				row = fmt.Sprintf("%s wall=%.1fs -> %s", r, art.Meta.WallSeconds, dir)
			}
		}
		fmt.Println(row)
		if art.Live != nil {
			fmt.Printf("  live: %d events, %d tasks, %d transfers, %d anomalies\n",
				art.Live.Events, art.Live.Tasks, art.Live.Transfers, len(art.Live.Anomalies))
		}
		if *chaosSpec != "" && !*noCollect {
			if f, err := perfrecup.RecoveryTimelineView(art); err == nil {
				if tl := perfrecup.RenderRecoveryTimeline(f); tl != "" {
					fmt.Printf("  recovery timeline (%d events):\n%s", f.NRows(), tl)
				}
			}
		}
		if *clusterN > 0 && !*noCollect {
			if f, err := perfrecup.ClusterTimelineView(art); err == nil {
				if tl := perfrecup.RenderClusterTimeline(f); tl != "" {
					fmt.Printf("  cluster timeline (%d events):\n%s", f.NRows(), tl)
				}
			}
		}
		if *speculate && !*noCollect {
			if f, err := perfrecup.SpeculationTimelineView(art); err == nil {
				if tl := perfrecup.RenderSpeculationTimeline(f); tl != "" {
					fmt.Printf("  speculation timeline (%d events):\n%s", f.NRows(), tl)
				}
			}
		}
		if *proxyThreshold > 0 && !*noCollect {
			if f, err := perfrecup.ProxyView(art); err == nil && f.NRows() > 0 {
				ops := map[string]int{}
				for i := 0; i < f.NRows(); i++ {
					ops[f.Col("op").Str(i)]++
				}
				fmt.Printf("  proxy store: %d publishes, %d resolves, %d misses, %d frees, %d reclaims\n",
					ops["publish"], ops["resolve"], ops["miss"], ops["free"], ops["reclaim"])
			}
		}
	}
	return nil
}

// cmdResume continues a crashed run from its durable event log: the run's
// own metadata.json rebuilds the workflow and session configuration, the
// provenance stream is replayed to reconstruct the completion frontier, and
// a new session incarnation appends to the same data dir until the workflow
// finishes. The crashed attempt's chaos spec is deliberately NOT re-armed —
// the point of resuming is to get past the fault — but -chaos can inject
// fresh faults into the resumed attempt (which can itself be resumed).
func cmdResume(args []string) error {
	fs := flag.NewFlagSet("resume", flag.ExitOnError)
	out := fs.String("out", "runs", "output directory for the completed run's artifacts")
	fsync := fs.String("fsync", "batch", "durable log fsync policy: batch|interval|never")
	chaosSpec := fs.String("chaos", "", "fault-injection spec for the resumed attempt (default: none)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("resume: need exactly one durable data DIR (from `taskprov run -data-dir`)")
	}
	dir := fs.Arg(0)
	b, err := os.ReadFile(filepath.Join(dir, "metadata.json"))
	if err != nil {
		return fmt.Errorf("resume: %s is not a resumable data dir: %w", dir, err)
	}
	meta, err := core.DecodeMetadata(b)
	if err != nil {
		return fmt.Errorf("resume: %s/metadata.json: %w", dir, err)
	}
	wf, err := workloads.New(meta.Workflow)
	if err != nil {
		return fmt.Errorf("resume: %w", err)
	}

	// Rebuild the session the crashed run was started with, from its own
	// metadata — same workflow, seed, and data-plane knobs.
	cfg := workloads.DefaultSession(meta.Workflow, meta.JobID, meta.Seed)
	cfg.DarshanDXT = meta.Instrumentation.DXTEnabled
	cfg.Dask.WorkStealing = meta.DaskConfig.WorkStealing
	cfg.Dask.ProxyThresholdBytes = meta.DaskConfig.ProxyThresholdBytes
	cfg.Dask.ProxyPrefetch = meta.DaskConfig.ProxyPrefetch
	cfg.ClusterBrokers = meta.Instrumentation.ClusterBrokers
	cfg.ClusterReplication = meta.Instrumentation.ClusterReplication
	if meta.Instrumentation.SpeculationEnabled {
		cfg.Speculation.Enabled = true
		cfg.Speculation.MaxConcurrent = meta.Instrumentation.SpeculationMax
		cfg.Speculation.Quantile = meta.Instrumentation.SpeculationQuantile
		cfg.Speculation.Budget = meta.Instrumentation.SpeculationBudget
	}
	cfg.MofkaSyncPolicy = *fsync
	cfg.ResumeFrom = dir
	cfg.ChaosSpec = *chaosSpec
	if err := cfg.Validate(); err != nil {
		return err
	}
	if meta.Instrumentation.Chaos != "" {
		fmt.Printf("taskprov: crashed attempt ran under chaos %q — not re-armed\n", meta.Instrumentation.Chaos)
	}

	art, err := core.Run(cfg, wf)
	if err != nil {
		return fmt.Errorf("resume %s: %w", meta.JobID, err)
	}
	outDir := filepath.Join(*out, meta.JobID)
	if err := art.WriteDir(outDir); err != nil {
		return fmt.Errorf("write %s: %w", outDir, err)
	}
	row := fmt.Sprintf("%s wall=%.1fs", meta.JobID, art.Meta.WallSeconds)
	if r, err := perfrecup.RenderTableIRow(art); err == nil {
		row = fmt.Sprintf("%s wall=%.1fs -> %s", r, art.Meta.WallSeconds, outDir)
	}
	fmt.Println(row)
	fmt.Printf("  resumed: attempt %d (from attempt %d), merged event log in %s\n",
		art.Meta.Attempt, art.Meta.ResumedFrom, dir)
	return nil
}

// moveAsideDataDir renames an existing event log out of the way
// (<dir>.old-<n>, first free n) so the run can start fresh. Returns the new
// name, or "" when dir held no event log.
func moveAsideDataDir(dir string) (string, error) {
	if !cluster.IsLogDir(dir) {
		return "", nil
	}
	for n := 1; ; n++ {
		dst := fmt.Sprintf("%s.old-%d", dir, n)
		if _, err := os.Stat(dst); err == nil {
			continue
		} else if !os.IsNotExist(err) {
			return "", err
		}
		if err := os.Rename(dir, dst); err != nil {
			return "", fmt.Errorf("move stale event log aside: %w", err)
		}
		return dst, nil
	}
}

// cmdWatch attaches live monitoring to an existing run: either tailing a
// durable data dir as it grows (works on the log of a crashed run too) or
// attaching to a running mofkad broker over Mercury RPC. started, when
// non-nil, receives the bound HTTP address (used by tests).
func cmdWatch(args []string, started chan<- string) error {
	fs := flag.NewFlagSet("watch", flag.ExitOnError)
	dataDir := fs.String("data-dir", "", "durable Mofka data dir to tail")
	brokerAddr := fs.String("broker", "", "address of a running mofkad broker to attach to")
	httpAddr := fs.String("http", "", "serve /snapshot /metrics /events /healthz on this address")
	interval := fs.Duration("interval", time.Second, "refresh interval")
	once := fs.Bool("once", false, "print one snapshot and exit")
	asJSON := fs.Bool("json", false, "print snapshots as JSON instead of one-line status")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*dataDir == "") == (*brokerAddr == "") {
		return fmt.Errorf("watch: need exactly one of -data-dir or -broker")
	}
	logf := func(format string, a ...any) { fmt.Fprintf(os.Stderr, "taskprov watch: "+format+"\n", a...) }

	var src live.Source
	var stop func()
	if *dataDir != "" {
		t, err := live.TailWAL(*dataDir, live.TailOptions{Interval: *interval, Logf: logf})
		if err != nil {
			return err
		}
		src, stop = t, t.Stop
	} else {
		cli, err := mercury.Dial(*brokerAddr)
		if err != nil {
			return err
		}
		t, err := live.TailRemote(mofka.NewRemote(cli), live.TailOptions{Interval: *interval, Logf: logf})
		if err != nil {
			_ = cli.Close()
			return err
		}
		src, stop = t, func() { t.Stop(); _ = cli.Close() }
	}
	defer stop()

	if *once {
		return printSnapshot(src.Snapshot(), *asJSON)
	}
	if *httpAddr != "" {
		srv, err := live.Serve(*httpAddr, src)
		if err != nil {
			return err
		}
		defer func() { _ = srv.Close() }()
		fmt.Printf("taskprov watch: serving on http://%s (/snapshot /metrics /events)\n", srv.Addr())
		if started != nil {
			started <- srv.Addr()
		}
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		return nil
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	tick := time.NewTicker(*interval)
	defer tick.Stop()
	for {
		select {
		case <-sig:
			return nil
		case <-tick.C:
			if err := printSnapshot(src.Snapshot(), *asJSON); err != nil {
				return err
			}
		}
	}
}

// cmdWhatIf loads a finished run (run dir, durable data dir, or cluster
// dir), extracts the calibrated whatif model, and replays it under the
// requested scenarios — self-replay ("baseline") when none are given. out
// receives the report (tests pass a buffer).
func cmdWhatIf(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("whatif", flag.ContinueOnError)
	runDir := fs.String("run", "", "run directory, durable Mofka data dir, or cluster dir")
	var scenarios scenarioFlags
	fs.Var(&scenarios, "scenario", `scenario spec, repeatable: "workers=8 threads=4 net=0.5 pfs=2 proxy=1048576|off steal=on|off" (default baseline self-replay)`)
	critpath := fs.Bool("critpath", false, "also print the run's critical-path report")
	asJSON := fs.Bool("json", false, "print replay results as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *runDir == "" {
		return fmt.Errorf("whatif: missing -run DIR")
	}
	art, err := perfrecup.Load(*runDir)
	if err != nil {
		return err
	}
	model, err := art.ExtractModel()
	if err != nil {
		return err
	}
	if len(scenarios) == 0 {
		scenarios = scenarioFlags{whatif.Scenario{}}
	}
	var results []*whatif.Result
	for _, s := range scenarios {
		r, err := model.Replay(s)
		if err != nil {
			return err
		}
		results = append(results, r)
	}
	if *asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			return err
		}
	} else {
		if _, err := fmt.Fprint(out, perfrecup.RenderWhatIf(model, results)); err != nil {
			return err
		}
	}
	if *critpath {
		rep, err := perfrecup.RenderCritPath(art)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprint(out, rep); err != nil {
			return err
		}
	}
	return nil
}

// scenarioFlags collects repeated -scenario values.
type scenarioFlags []whatif.Scenario

func (f *scenarioFlags) String() string {
	parts := make([]string, len(*f))
	for i, s := range *f {
		parts[i] = s.String()
	}
	return strings.Join(parts, "; ")
}

func (f *scenarioFlags) Set(v string) error {
	s, err := whatif.ParseScenario(v)
	if err != nil {
		return err
	}
	*f = append(*f, s)
	return nil
}

func printSnapshot(s live.Summary, asJSON bool) error {
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(s)
	}
	warns := 0
	for _, n := range s.Warnings {
		warns += n
	}
	_, err := fmt.Printf("events=%d tasks=%d transfers=%d io_ops=%d warnings=%d anomalies=%d wall=%.1fs\n",
		s.Events, s.Tasks, s.Transfers, s.IOOps, warns, len(s.Anomalies), s.WallSeconds)
	return err
}
