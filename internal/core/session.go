package core

import (
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"taskprov/internal/chaos"
	"taskprov/internal/darshan"
	"taskprov/internal/dask"
	"taskprov/internal/live"
	"taskprov/internal/mofka"
	mcluster "taskprov/internal/mofka/cluster"
	"taskprov/internal/mofka/wal"
	"taskprov/internal/pfs"
	"taskprov/internal/platform"
	"taskprov/internal/posixio"
	"taskprov/internal/provenance"
	"taskprov/internal/proxystore"
	"taskprov/internal/resume"
	"taskprov/internal/sim"
	"taskprov/internal/whatif"
)

// Env exposes the run's substrate to workflow implementations (dataset
// staging, extra observers).
type Env struct {
	Kernel   *sim.Kernel
	Platform *platform.Cluster
	PFS      *pfs.FileSystem
	FS       *posixio.FS
	Cluster  *dask.Cluster
	RNG      *sim.RNG
}

// Workflow is implemented by workload generators: Stage pre-populates input
// datasets on the PFS (before timing starts), Run drives the client program.
type Workflow interface {
	Name() string
	Stage(env *Env)
	Run(p *sim.Proc, cl *dask.Client, env *Env)
}

// SessionConfig describes one instrumented run.
type SessionConfig struct {
	JobID    string
	Seed     uint64
	Platform platform.Config
	PFS      pfs.Config
	Dask     dask.Config

	// DarshanDXT enables extended tracing; DXTBufferSegments caps the
	// per-process trace buffer (0 = darshan.DefaultDXTBufferSegments).
	DarshanDXT        bool
	DXTBufferSegments int

	// DarshanMaxFileRecords caps the per-process file record table
	// (0 = darshan.DefaultMaxFileRecords).
	DarshanMaxFileRecords int

	// Mofka producer batching for the provenance stream.
	MofkaBatchSize int

	// ChaosSpec, when non-empty, arms the fault-injection plan parsed from
	// it (see internal/chaos) before the run starts: worker kills/restarts
	// and brownouts (the "slow" directive) at virtual times, link
	// degradations ("net"), broker append faults, and whole-coordinator
	// kills (the "scheduler" directive, which aborts the session with a
	// CrashError so the run can be continued with ResumeFrom). The same seed
	// and spec reproduce the identical failure and recovery event sequence.
	ChaosSpec string

	// Speculation enables and tunes speculative (hedged) execution of
	// straggling tasks: the scheduler subscribes to the live straggler
	// detector (internal/live MAD z-scores) and launches a bounded number of
	// duplicate attempts; first completion wins, the loser is cancelled with
	// attempt fencing. When Enabled it overrides Dask.Speculation; every
	// decision lands on the "speculation" provenance topic.
	Speculation dask.SpeculationConfig

	// MofkaDataDir, when set, backs the run's broker with the durable
	// segmented event log rooted there (internal/mofka/wal): every
	// provenance event is crash-safe on disk and the directory can be
	// analyzed post-mortem with perfrecup, without JSONL export. Ignored
	// when an external broker is passed to RunOnBroker.
	MofkaDataDir string
	// MofkaSyncPolicy selects the event log's fsync policy: "batch"
	// (default), "interval", or "never". See wal.ParseSyncPolicy.
	MofkaSyncPolicy string

	// ResumeFrom, when set, continues a crashed run from its data dir: the
	// provenance WAL (and frontier checkpoint) there is reconstructed into
	// scheduler state, completed tasks are memoized, outputs are revalidated
	// against surviving proxy-store blobs, and the session appends to the
	// same data dir as a new attempt (recorded in attempts.json). The
	// session must otherwise be configured identically to the crashed one
	// (same seed, platform, workflow — taskprov resume rebuilds this from
	// the dir's metadata.json). MofkaDataDir, if also set, must equal
	// ResumeFrom.
	ResumeFrom string

	// CheckpointInterval is the period of the lightweight frontier
	// checkpoint (completed-task high-water marks per graph plus live blob
	// residency) written next to the durable event log, so resume cost is
	// O(crash tail), not O(run). Zero means the 5s default; negative
	// disables periodic checkpointing (resume then replays the whole WAL).
	// Ignored without MofkaDataDir/ResumeFrom.
	CheckpointInterval time.Duration

	// ClusterBrokers, when > 0, backs the provenance stream with a sharded,
	// replicated Mofka cluster of that many broker replicas instead of a
	// single broker (internal/mofka/cluster): topic partitions spread over
	// the replicas by rendezvous hashing, appends are quorum-acknowledged,
	// and a broker crash (see the chaos "broker" directive) fails affected
	// partitions over to surviving replicas without losing acknowledged
	// events. RunArtifacts.Broker then holds the cluster's merged read view
	// and RunArtifacts.Cluster the live cluster handle. Incompatible with an
	// external broker passed to RunOnBroker.
	ClusterBrokers int
	// ClusterReplication is the replica count per partition (0 = the
	// cluster default, 2 capped at the broker count). Must be <=
	// ClusterBrokers.
	ClusterReplication int
	// ClusterQuorum is the acknowledgement quorum per append (0 = majority
	// of the replication factor). Must be <= ClusterReplication.
	ClusterQuorum int

	// DisableCollection turns off all instrumentation (for overhead
	// ablations): no plugins, no Darshan tracers.
	DisableCollection bool

	// LiveMonitor attaches an internal/live Monitor to the run's broker:
	// streaming aggregation and online anomaly detection while the
	// workflow executes, with the final Summary in RunArtifacts.Live. The
	// monitor's end-of-run aggregates are guaranteed equal to the
	// post-mortem PERFRECUP views over the same artifacts.
	LiveMonitor bool
	// LiveHTTPAddr, when set together with LiveMonitor, serves the live
	// snapshot/metrics/SSE endpoints on this address for the duration of
	// the run (e.g. "127.0.0.1:9090").
	LiveHTTPAddr string
	// LiveOptions tunes the monitor (zero value = defaults).
	LiveOptions live.MonitorOptions
}

// Validate rejects impossible session configurations with a clear error
// before any resource is built — negative or absurd knob values surface
// here instead of as confusing failures mid-run. Run/RunOnBroker call it
// first; commands should call it right after flag parsing.
func (cfg SessionConfig) Validate() error {
	if cfg.MofkaBatchSize < 0 {
		return fmt.Errorf("core: negative Mofka batch size %d", cfg.MofkaBatchSize)
	}
	if cfg.MofkaBatchSize > 1<<20 {
		return fmt.Errorf("core: Mofka batch size %d is absurd (max %d)", cfg.MofkaBatchSize, 1<<20)
	}
	if cfg.DXTBufferSegments < 0 {
		return fmt.Errorf("core: negative DXT buffer segments %d", cfg.DXTBufferSegments)
	}
	if cfg.DarshanMaxFileRecords < 0 {
		return fmt.Errorf("core: negative Darshan max file records %d", cfg.DarshanMaxFileRecords)
	}
	if cfg.ClusterBrokers < 0 {
		return fmt.Errorf("core: negative cluster broker count %d", cfg.ClusterBrokers)
	}
	if cfg.Dask.ProxyThresholdBytes < 0 {
		return fmt.Errorf("core: negative proxy threshold %d", cfg.Dask.ProxyThresholdBytes)
	}
	if cfg.Dask.ProxyThresholdBytes == 0 && cfg.Dask.ProxyPrefetch {
		return fmt.Errorf("core: ProxyPrefetch requires a positive ProxyThresholdBytes")
	}
	if cfg.ClusterBrokers == 0 && (cfg.ClusterReplication != 0 || cfg.ClusterQuorum != 0) {
		return fmt.Errorf("core: cluster replication/quorum set without ClusterBrokers")
	}
	if sp := cfg.Speculation; sp.Enabled {
		if sp.Quantile < 0 || sp.Quantile >= 1 {
			return fmt.Errorf("core: speculation quantile %v outside [0, 1)", sp.Quantile)
		}
		if sp.MaxConcurrent < 0 || sp.Budget < 0 {
			return fmt.Errorf("core: negative speculation bound (max_concurrent=%d budget=%d)", sp.MaxConcurrent, sp.Budget)
		}
		if sp.MinRuntime < 0 || sp.Interval < 0 {
			return fmt.Errorf("core: negative speculation duration (min_runtime=%v interval=%v)", sp.MinRuntime, sp.Interval)
		}
	}
	if _, err := chaos.Parse(cfg.ChaosSpec); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if cfg.ResumeFrom != "" {
		if cfg.DisableCollection {
			return fmt.Errorf("core: ResumeFrom requires collection (resume is reconstructed from the provenance stream)")
		}
		if cfg.MofkaDataDir != "" && cfg.MofkaDataDir != cfg.ResumeFrom {
			return fmt.Errorf("core: ResumeFrom %s conflicts with MofkaDataDir %s (a resumed session appends to the dir it resumes from)", cfg.ResumeFrom, cfg.MofkaDataDir)
		}
	}
	if cfg.ClusterBrokers > 0 {
		ccfg := mcluster.Config{
			Brokers:           cfg.ClusterBrokers,
			ReplicationFactor: cfg.ClusterReplication,
			Quorum:            cfg.ClusterQuorum,
		}
		if err := ccfg.Validate(); err != nil {
			return fmt.Errorf("core: %w", err)
		}
		if cfg.LiveHTTPAddr != "" {
			return fmt.Errorf("core: the live HTTP endpoint requires a standalone broker (cluster runs attach the monitor to the merged read view after the run)")
		}
	}
	return nil
}

// DefaultSessionConfig mirrors the paper's setup: Polaris-like platform with
// 2 worker nodes, Lustre-like storage, 4 workers/node x 8 threads, DXT on.
func DefaultSessionConfig(jobID string, seed uint64) SessionConfig {
	return SessionConfig{
		JobID:          jobID,
		Seed:           seed,
		Platform:       platform.Polaris(),
		PFS:            pfs.Lustre(),
		Dask:           dask.DefaultConfig(),
		DarshanDXT:     true,
		MofkaBatchSize: 64,
	}
}

// DefaultCheckpointInterval is the frontier-checkpoint period used when
// SessionConfig.CheckpointInterval is zero.
const DefaultCheckpointInterval = 5 * time.Second

// CrashError is returned by a session whose coordinator was killed by the
// chaos "scheduler" directive: the whole process is modeled as dying with
// kill -9 — unflushed producer batches are lost, no artifacts are produced,
// and only the durable data dir survives. Detect it with errors.As and
// continue the run with SessionConfig.ResumeFrom (or taskprov resume).
type CrashError struct {
	// At is the virtual time the coordinator died.
	At sim.Time
	// DataDir is the durable event log the run can be resumed from (empty
	// when the run was in-memory only, in which case nothing survives).
	DataDir string
	// Attempt is the incarnation that died.
	Attempt int
}

func (e *CrashError) Error() string {
	if e.DataDir == "" {
		return fmt.Sprintf("core: scheduler killed at %v (attempt %d); no durable log, run not resumable", e.At, e.Attempt)
	}
	return fmt.Sprintf("core: scheduler killed at %v (attempt %d); resume from %s", e.At, e.Attempt, e.DataDir)
}

// RunArtifacts is everything one instrumented run leaves behind: the Mofka
// event topics, per-worker Darshan logs, and the metadata chart.
type RunArtifacts struct {
	Meta        RunMetadata
	Broker      *mofka.Broker
	DarshanLogs []*darshan.Log
	Collector   *Collector

	// Cluster is the sharded Mofka cluster the run published through, set
	// when SessionConfig.ClusterBrokers > 0. Broker then holds the
	// cluster's merged read view (every partition's acknowledged prefix
	// plus max-merged cursors), so every analysis path works unchanged.
	Cluster *mcluster.Cluster

	// Live is the live monitor's final Summary, set when
	// SessionConfig.LiveMonitor was enabled.
	Live *live.Summary

	// CritPath is the whole-run critical-path digest (internal/whatif),
	// computed at the end of every instrumented run: the makespan's
	// attribution to compute, transfer, I/O, scheduler, and proxy time.
	// Nil when collection was disabled.
	CritPath *whatif.Summary

	// Proxy is the final proxy-store counter snapshot (zero when the
	// pass-by-reference plane is disabled): resume-equivalence checks
	// compare residency against an uninterrupted baseline with it.
	Proxy proxystore.Stats

	// Files is the final parallel-filesystem manifest (path → size). A
	// resumed run must leave exactly the manifest an uninterrupted run
	// would — the file-side half of the resume-equivalence check, since
	// the crashed attempt's Darshan logs die with its processes.
	Files map[string]int64

	WallTime sim.Time
}

// Session is one instrumented run's lifecycle, split so callers can hold it:
// NewSession builds every component (kernel, platform, cluster, broker,
// collector, chaos, checkpointer), Execute stages and runs the workflow, and
// Close releases what the session owns. Run/RunOnBroker wrap the three for
// the common case.
type Session struct {
	cfg SessionConfig
	wf  Workflow

	k       *sim.Kernel
	plat    *platform.Cluster
	fsys    *pfs.FileSystem
	px      *posixio.FS
	cluster *dask.Cluster

	// bus is the event log the run publishes through, whichever deployment
	// it is; clu is the same cluster again, non-nil only for a sharded run,
	// for the steps no standalone broker has. ownBus says Close closes it.
	bus       mofka.Bus
	ownBus    bool
	clu       *mcluster.Cluster
	collector *Collector
	runtimes  []*darshan.Runtime

	monitor *live.Monitor
	liveSrv *live.Server

	frontier       *frontierPlugin
	stopCheckpoint func()

	attempt     int
	resumedFrom int
	resumeState *resume.State

	crashed bool
	crashAt sim.Time

	closed bool
}

// NewSession validates the configuration and constructs every component of
// the run without starting it. On error the partially-constructed session is
// closed before returning. The optional external broker shares the event
// stream with in-situ consumers; nil creates a private one.
func NewSession(cfg SessionConfig, wf Workflow, broker *mofka.Broker) (*Session, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if broker != nil && cfg.ClusterBrokers > 0 {
		return nil, fmt.Errorf("core: ClusterBrokers is incompatible with an external broker")
	}
	if broker != nil && cfg.ResumeFrom != "" {
		return nil, fmt.Errorf("core: ResumeFrom is incompatible with an external broker")
	}

	s := &Session{cfg: cfg, wf: wf, attempt: 1}
	if cfg.Speculation.Enabled {
		// The session-level policy is authoritative: project it onto the
		// scheduler's config before the cluster is built.
		s.cfg.Dask.Speculation = cfg.Speculation
	}
	if cfg.ResumeFrom != "" {
		st, err := resume.Reconstruct(cfg.ResumeFrom)
		if err != nil {
			return nil, err
		}
		s.resumeState = st
		s.attempt = st.Attempt
		s.resumedFrom = st.ResumedFrom
		s.cfg.MofkaDataDir = cfg.ResumeFrom
	}
	cfg = s.cfg

	s.k = sim.NewKernel(cfg.Seed)
	if s.resumeState != nil {
		// Fast-forward the virtual clock past every surviving event of the
		// crashed attempts before anything is scheduled, so the merged
		// provenance timeline stays monotonic across the attempt boundary.
		s.k.RunUntil(s.resumeState.ResumeBase)
	}
	s.plat = platform.New(s.k, cfg.Platform)
	s.fsys = pfs.New(s.k, cfg.PFS)
	s.px = posixio.NewFS(s.fsys)

	// Darshan runtime per worker process.
	tracers := dask.TracerFactory(nil)
	if !cfg.DisableCollection {
		tracers = func(rank int, hostname string) posixio.Tracer {
			rt := darshan.NewRuntime(darshan.Config{
				JobID: cfg.JobID, Rank: rank, Hostname: hostname,
				Exe:        wf.Name(),
				DXTEnabled: cfg.DarshanDXT, DXTBufferSegments: cfg.DXTBufferSegments,
				MaxFileRecords: cfg.DarshanMaxFileRecords,
			})
			s.runtimes = append(s.runtimes, rt)
			return rt
		}
	}

	s.cluster = dask.NewCluster(s.k, s.plat, s.px, cfg.Dask, tracers)

	// Speculation closes the detect→act loop: the scheduler's speculation
	// tick consults the live straggler detector (the same MAD robust-z model
	// the monitor's anomaly lane runs) in addition to its built-in quantile
	// policy.
	if cfg.Dask.Speculation.Enabled {
		s.cluster.SetSpeculationAdvisor(live.NewStragglerDetector(cfg.LiveOptions.Aggregator.Anomaly))
	}

	if err := s.openBus(broker); err != nil {
		_ = s.Close()
		return nil, err
	}

	if !cfg.DisableCollection {
		var err error
		// Resilience: a broker hiccup degrades the producers (bounded
		// buffering + quick in-line retries) instead of failing the run.
		popts := mofka.ProducerOptions{
			BatchSize:    cfg.MofkaBatchSize,
			FlushRetries: 2,
			RetryBackoff: time.Millisecond,
		}
		s.collector, err = NewCollector(s.bus, popts)
		if err != nil {
			_ = s.Close()
			return nil, err
		}
		s.collector.SetClock(s.k.Now)
		s.cluster.AddSchedulerPlugin(s.collector.SchedulerPlugin())
		s.cluster.AddWorkerPlugin(s.collector.WorkerPlugin())
	}

	// The frontier checkpointer rides along whenever the run is durable: it
	// observes completions and blob residency and periodically snapshots
	// them next to the event log, bounding a future resume's WAL replay.
	if cfg.MofkaDataDir != "" && !cfg.DisableCollection {
		var seed *resume.Checkpoint
		if s.resumeState != nil {
			seed = s.resumeState.Frontier
		}
		s.frontier = newFrontierPlugin(s.attempt, seed)
		s.cluster.AddSchedulerPlugin(s.frontier)
		s.cluster.AddWorkerPlugin(s.frontier)
	}

	// Arm fault injection before anything starts so kills scheduled at early
	// virtual times land deterministically.
	if cfg.ChaosSpec != "" {
		plan, err := chaos.Parse(cfg.ChaosSpec)
		if err != nil {
			_ = s.Close()
			return nil, fmt.Errorf("core: %w", err)
		}
		ctl := chaos.NewController(plan)
		if err := ctl.ArmWorkerFaults(s.k, s.cluster, len(s.cluster.Workers())); err != nil {
			_ = s.Close()
			return nil, fmt.Errorf("core: %w", err)
		}
		if err := ctl.ArmSlowdowns(s.k, s.cluster, len(s.cluster.Workers())); err != nil {
			_ = s.Close()
			return nil, fmt.Errorf("core: %w", err)
		}
		if err := ctl.ArmLinkFaults(s.k, s.plat, cfg.Platform.Nodes); err != nil {
			_ = s.Close()
			return nil, fmt.Errorf("core: %w", err)
		}
		if s.clu != nil {
			if err := ctl.ArmClusterFaults(s.k, s.clu); err != nil {
				_ = s.Close()
				return nil, fmt.Errorf("core: %w", err)
			}
		} else if len(plan.Brokers) > 0 {
			_ = s.Close()
			return nil, fmt.Errorf("core: chaos broker directive requires ClusterBrokers > 0")
		}
		ctl.ArmBroker(s.bus)
		ctl.ArmSchedulerFaults(s.k, s.crash)
		if kills := ctl.TaskTriggeredSchedulerKills(); len(kills) > 0 {
			byKey := make(map[string]chaos.SchedulerKill, len(kills))
			for _, kk := range kills {
				byKey[kk.AtTask] = kk
			}
			s.cluster.AddWorkerPlugin(&taskKillPlugin{kills: byKey, crash: s.crash})
		}
	}

	// Live monitoring: attach the streaming aggregator to the broker before
	// the run starts, so it consumes the provenance topics while the
	// workflow executes. Its final aggregates equal the post-mortem
	// PERFRECUP views (the equivalence invariant, see internal/live). Only a
	// standalone broker's read view is live (it is the broker); a cluster run
	// attaches in Execute, to the merged view of the finished run.
	if cfg.LiveMonitor && s.clu == nil {
		view, err := s.bus.ReadView()
		if err != nil {
			_ = s.Close()
			return nil, err
		}
		s.attachMonitor(view)
		if cfg.LiveHTTPAddr != "" {
			s.liveSrv, err = live.Serve(cfg.LiveHTTPAddr, s.monitor)
			if err != nil {
				_ = s.Close()
				return nil, err
			}
		}
	}
	return s, nil
}

// openBus is the build stage for the event log the provenance stream
// publishes through: the caller's broker when one was supplied (shared with
// in-situ consumers, and not the session's to close), otherwise a sharded,
// replicated cluster (ClusterBrokers > 0) or a single broker, either one
// durable when MofkaDataDir is set.
func (s *Session) openBus(external *mofka.Broker) error {
	cfg := s.cfg
	if external != nil {
		s.bus = external.Bus()
		return nil
	}
	var opts mofka.Options
	if cfg.MofkaDataDir != "" {
		// Each run gets a fresh event log: appending a second run to an
		// existing log would silently merge both runs' provenance. A resumed
		// session is the sanctioned exception — it continues the same run,
		// and the durable brokers recover the log appendable.
		if s.resumeState == nil && mcluster.IsLogDir(cfg.MofkaDataDir) {
			return fmt.Errorf("core: data dir %s already holds an event log (one directory per run; use ResumeFrom to continue it)", cfg.MofkaDataDir)
		}
		pol, err := wal.ParseSyncPolicy(cfg.MofkaSyncPolicy)
		if err != nil {
			return fmt.Errorf("core: %w", err)
		}
		opts = mofka.Options{DataDir: cfg.MofkaDataDir, WAL: wal.Options{Sync: pol}}
	}
	if cfg.ClusterBrokers > 0 {
		// Health events are timestamped with virtual time so the failover
		// timeline lines up with the rest of the provenance stream.
		clu, err := mcluster.New(mcluster.Config{
			Brokers:           cfg.ClusterBrokers,
			ReplicationFactor: cfg.ClusterReplication,
			Quorum:            cfg.ClusterQuorum,
			NowSeconds:        func() float64 { return s.k.Now().Seconds() },
			DataDir:           opts.DataDir,
			WAL:               opts.WAL,
		})
		if err != nil {
			return err
		}
		s.clu, s.bus, s.ownBus = clu, clu.Bus(), true
		return nil
	}
	broker := mofka.NewStandaloneBroker()
	if opts.DataDir != "" {
		var err error
		if broker, err = mofka.NewDurableBroker(opts); err != nil {
			return err
		}
	}
	s.bus, s.ownBus = broker.Bus(), true
	return nil
}

// attachMonitor starts the live monitor on the broker.
func (s *Session) attachMonitor(b *mofka.Broker) {
	cfg := s.cfg
	s.monitor = live.NewMonitor(b, cfg.LiveOptions)
	slots := cfg.Platform.Nodes * cfg.Dask.WorkersPerNode * cfg.Dask.ThreadsPerWorker
	s.monitor.Aggregator().SetMeta(s.wf.Name(), cfg.Seed, slots)
}

// crash is the coordinator-kill hook: the chaos "scheduler" directive calls
// it (possibly more than once — the first kill wins) to model kill -9 of the
// whole session. It freezes the virtual clock and stops the kernel; Execute
// then surfaces a CrashError without flushing producers, so events buffered
// in unflushed batches are lost exactly as a real SIGKILL would lose them.
func (s *Session) crash(chaos.SchedulerKill) {
	if s.crashed {
		return
	}
	s.crashed = true
	s.crashAt = s.k.Now()
	s.k.Stop()
}

// taskKillPlugin fires a coordinator kill when a named task's execution
// record is observed (the chaos "scheduler at-task=KEY" directive).
type taskKillPlugin struct {
	dask.NopWorkerPlugin
	kills map[string]chaos.SchedulerKill
	crash func(chaos.SchedulerKill)
}

func (p *taskKillPlugin) TaskExecuted(e dask.TaskExecution) {
	if kill, ok := p.kills[string(e.Key)]; ok {
		p.crash(kill)
	}
}

// Execute stages and runs the workflow and assembles the run's artifacts.
// A chaos-killed coordinator returns a *CrashError; the broker and data dir
// are left exactly as the crash found them (resume with SessionConfig.
// ResumeFrom). Execute does not close the session — on success the returned
// artifacts keep the broker readable, and Close remains the caller's.
func (s *Session) Execute() (*RunArtifacts, error) {
	cfg, wf, k := s.cfg, s.wf, s.k

	// The attempt lineage is the fencing record between incarnations:
	// appended (uncompleted) before anything runs, completed only at clean
	// end. A crash leaves the open entry behind as evidence. The partial
	// metadata written alongside makes a crashed dir self-describing, so
	// taskprov resume can rebuild this configuration from it.
	if cfg.MofkaDataDir != "" {
		_, err := resume.AppendAttempt(cfg.MofkaDataDir, resume.Attempt{
			Attempt:      s.attempt,
			ResumedFrom:  s.resumedFrom,
			StartSeconds: k.Now().Seconds(),
		})
		if err != nil {
			return nil, err
		}
		meta := s.buildMeta(0, 0)
		p := filepath.Join(cfg.MofkaDataDir, "metadata.json")
		if err := wal.WriteFileAtomic(p, EncodeMetadata(meta)); err != nil {
			return nil, fmt.Errorf("core: persist metadata: %w", err)
		}
	}

	env := &Env{Kernel: k, Platform: s.plat, PFS: s.fsys, FS: s.px, Cluster: s.cluster, RNG: k.RNG("workflow")}
	wf.Stage(env)

	if st := s.resumeState; st != nil {
		// Rebuild what the crashed attempts left behind. The PFS is staged
		// fresh, then the completed tasks' recorded file effects are replayed
		// in completion order (last writer wins — creates truncate), so
		// memoized tasks' outputs exist without re-running them. Tasks whose
		// records were lost re-run and redo their I/O themselves.
		for _, fe := range st.FileEffects {
			s.fsys.CreateNow(fe.Path, fe.SizeAfter)
		}
		s.cluster.SeedResume(st.Memos, st.DoneGraphs)
		if s.collector != nil {
			s.collector.pushWarning(dask.Warning{
				Kind:   dask.WarnSessionResumed,
				Worker: "scheduler",
				At:     k.Now(),
				Message: fmt.Sprintf("attempt %d resumed from attempt %d: %d tasks memoized, %d graphs already done",
					s.attempt, s.resumedFrom, len(st.Memos), len(st.DoneGraphs)),
			})
		}
	}

	if s.frontier != nil && cfg.CheckpointInterval >= 0 {
		interval := cfg.CheckpointInterval
		if interval == 0 {
			interval = DefaultCheckpointInterval
		}
		s.stopCheckpoint = k.Every(sim.Time(interval), func() {
			if err := resume.WriteCheckpoint(cfg.MofkaDataDir, s.frontier.snapshot(k.Now())); err != nil && s.collector != nil {
				s.collector.pushWarning(dask.Warning{
					Kind: dask.WarnCheckpointFailed, Worker: "scheduler",
					At: k.Now(), Message: err.Error(),
				})
			}
		})
	}

	s.cluster.Start()
	var start, end sim.Time
	finished := false
	k.Go(func(p *sim.Proc) {
		cl := s.cluster.Client()
		start = p.Now()
		cl.WaitForWorkers(p, len(s.cluster.Workers()))
		wf.Run(p, cl, env)
		end = p.Now()
		finished = true
		k.Stop()
	})
	k.Run()
	if s.stopCheckpoint != nil {
		s.stopCheckpoint()
		s.stopCheckpoint = nil
	}
	if s.crashed {
		// kill -9: no flush, no final checkpoint, no lineage completion.
		// Whatever the producers had batched but not appended is gone.
		return nil, &CrashError{At: s.crashAt, DataDir: cfg.MofkaDataDir, Attempt: s.attempt}
	}
	if !finished {
		return nil, fmt.Errorf("core: workflow %q deadlocked at %v (%d events pending)", wf.Name(), k.Now(), k.Pending())
	}

	if s.resumeState != nil {
		// Blobs revived for the resumed frontier but never demanded by the
		// remaining work are swept now, emitting their frees into the stream,
		// so merged residency drains to the uninterrupted baseline.
		s.cluster.ReleaseResumeOrphans()
	}

	art := &RunArtifacts{Collector: s.collector, Cluster: s.clu, WallTime: end - start}
	if s.collector != nil {
		if err := s.collector.Flush(); err != nil {
			return nil, err
		}
		if s.clu != nil {
			// The cluster-health lane: every replication/failover event
			// (broker dead, leader elected, catch-up, under-replication,
			// rebalance) is recorded on the warnings topic so perfrecup and
			// live render the failover timeline from the provenance stream
			// itself. Drained after the final flush so the append-time events
			// are all present.
			for _, ev := range s.clu.Events() {
				s.collector.pushWarning(clusterWarning(ev))
			}
			if err := s.collector.Flush(); err != nil {
				return nil, err
			}
		}
	}
	// All analyses read the bus's view: the broker itself, or for a cluster
	// the acknowledged prefixes of every partition plus max-merged consumer
	// cursors, materialized as a standalone in-memory broker.
	var err error
	if art.Broker, err = s.bus.ReadView(); err != nil {
		return nil, fmt.Errorf("core: read view: %w", err)
	}
	for _, rt := range s.runtimes {
		art.DarshanLogs = append(art.DarshanLogs, rt.Snapshot())
	}
	if cfg.LiveMonitor && s.monitor == nil {
		// Not attached before the run — a cluster: attach to the merged read
		// view now that the acknowledged prefixes are final; the Summary
		// still satisfies the live/post-mortem equivalence invariant.
		s.attachMonitor(art.Broker)
	}
	if s.monitor != nil {
		sum := s.monitor.Finish(art.DarshanLogs, (end - start).Seconds())
		art.Live = &sum
		if s.liveSrv != nil {
			if err := s.liveSrv.Close(); err != nil {
				return nil, err
			}
			s.liveSrv = nil
		}
		s.monitor = nil
	}
	art.Meta = s.buildMeta(start, end)
	art.Proxy = s.cluster.ProxyStats()
	art.Files = make(map[string]int64)
	for _, p := range s.fsys.List("/") {
		art.Files[p] = s.fsys.Lookup(p).Size
	}
	if !cfg.DisableCollection {
		// The critical-path digest rides on every instrumented run; an
		// extraction failure (e.g. a chaos run that lost its stream) just
		// leaves it nil.
		if model, err := whatif.Extract(art.WhatIfInput()); err == nil {
			art.CritPath = model.CriticalPath().Summarize()
		}
	}
	if cfg.MofkaDataDir != "" {
		// Make the data directory self-describing: with metadata.json next
		// to topics/ (or cluster.json), perfrecup can analyze the event log
		// post-mortem without the JSONL run directory.
		if err := s.bus.Sync(); err != nil {
			return nil, err
		}
		if s.frontier != nil {
			if err := resume.WriteCheckpoint(cfg.MofkaDataDir, s.frontier.snapshot(k.Now())); err != nil {
				return nil, err
			}
		}
		if err := resume.CompleteAttempt(cfg.MofkaDataDir, s.attempt, end.Seconds()); err != nil {
			return nil, err
		}
		p := filepath.Join(cfg.MofkaDataDir, "metadata.json")
		if err := wal.WriteFileAtomic(p, EncodeMetadata(art.Meta)); err != nil {
			return nil, fmt.Errorf("core: persist metadata: %w", err)
		}
		if err := art.WriteDarshanLogs(cfg.MofkaDataDir); err != nil {
			return nil, fmt.Errorf("core: persist darshan logs: %w", err)
		}
	}
	return art, nil
}

// buildMeta assembles the run's metadata chart; zero start/end produce the
// partial record written at session start (WallSeconds 0 marks it
// in-progress for post-mortem readers).
func (s *Session) buildMeta(start, end sim.Time) RunMetadata {
	cfg := s.cfg
	dxtBuf := cfg.DXTBufferSegments
	if dxtBuf <= 0 {
		dxtBuf = darshan.DefaultDXTBufferSegments
	}
	m := RunMetadata{
		JobID:    cfg.JobID,
		Workflow: s.wf.Name(),
		Seed:     cfg.Seed,
		Platform: s.plat.Describe(),
		Storage:  s.fsys.Describe(),
		Software: DefaultSoftwareStack(),
		Job: JobConfig{
			Nodes:            cfg.Platform.Nodes,
			WorkersPerNode:   cfg.Dask.WorkersPerNode,
			ThreadsPerWorker: cfg.Dask.ThreadsPerWorker,
			Queue:            "prod",
			Script:           jobScript(cfg, s.wf.Name()),
		},
		DaskConfig: DescribeDaskConfig(s.cluster.Config()),
		Instrumentation: InstrumentationConfig{
			DXTEnabled:         cfg.DarshanDXT,
			DXTBufferSegments:  dxtBuf,
			MofkaBatchSize:     cfg.MofkaBatchSize,
			MofkaDataDir:       cfg.MofkaDataDir,
			ClusterBrokers:     cfg.ClusterBrokers,
			ClusterReplication: cfg.ClusterReplication,
			Chaos:              cfg.ChaosSpec,
		},
		StartSeconds: start.Seconds(),
		EndSeconds:   end.Seconds(),
		WallSeconds:  (end - start).Seconds(),
	}
	if sp := s.cluster.Config().Speculation; sp.Enabled {
		m.Instrumentation.SpeculationEnabled = true
		m.Instrumentation.SpeculationMax = sp.MaxConcurrent
		m.Instrumentation.SpeculationQuantile = sp.Quantile
		m.Instrumentation.SpeculationBudget = sp.Budget
	}
	if s.attempt > 1 {
		m.Attempt = s.attempt
		m.ResumedFrom = s.resumedFrom
	}
	return m
}

// Close releases everything the session owns: the simulated processes a
// crashed or deadlocked run left parked, the live endpoint and monitor, the
// checkpoint ticker, and — when the session created them — the broker or
// broker cluster (closing a durable broker fsyncs acknowledged events;
// already-published events remain readable, see mofka.Broker.Close). It is
// idempotent, safe on a partially-constructed session, and joins every
// close error.
func (s *Session) Close() error {
	if s == nil || s.closed {
		return nil
	}
	s.closed = true
	if s.k != nil {
		s.k.Close()
	}
	var errs []error
	if s.liveSrv != nil {
		if err := s.liveSrv.Close(); err != nil {
			errs = append(errs, err)
		}
		s.liveSrv = nil
	}
	if s.monitor != nil {
		s.monitor.Stop()
		s.monitor = nil
	}
	if s.stopCheckpoint != nil {
		s.stopCheckpoint()
		s.stopCheckpoint = nil
	}
	if s.ownBus {
		if err := s.bus.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Run executes the workflow under full instrumentation and returns the run's
// artifacts.
func Run(cfg SessionConfig, wf Workflow) (*RunArtifacts, error) {
	return RunOnBroker(cfg, wf, nil)
}

// RunOnBroker is Run with an externally supplied Mofka broker, so in-situ
// consumers (started before the run, possibly in other goroutines or behind
// a TCP endpoint) share the event stream. A nil broker creates a private
// in-memory one.
//
// On error — including a chaos coordinator kill — the session is closed
// (releasing durable WAL handles so a resume can reopen the data dir in the
// same process); on success it is left open so the returned artifacts'
// broker remains fully usable.
func RunOnBroker(cfg SessionConfig, wf Workflow, broker *mofka.Broker) (*RunArtifacts, error) {
	s, err := NewSession(cfg, wf, broker)
	if err != nil {
		return nil, err
	}
	art, err := s.Execute()
	if err != nil {
		if cerr := s.Close(); cerr != nil {
			err = errors.Join(err, cerr)
		}
		return nil, err
	}
	return art, nil
}

// clusterWarning maps one cluster health event onto the warnings topic: the
// kind is carried verbatim (all "cluster_"-prefixed; see
// perfrecup.ClusterTimelineView and the live cluster-health lane), the
// source broker becomes the worker label, and the virtual timestamp keeps
// the failover timeline aligned with the rest of the provenance stream.
func clusterWarning(ev mcluster.Event) dask.Warning {
	msg := ev.Detail
	if ev.Topic != "" {
		msg = fmt.Sprintf("%s[%d] epoch=%d: %s", ev.Topic, ev.Partition, ev.Epoch, ev.Detail)
	}
	return dask.Warning{
		Kind:    dask.WarningKind(ev.Kind),
		Worker:  fmt.Sprintf("broker-%d", ev.Node),
		At:      sim.Time(ev.At * float64(time.Second)),
		Message: msg,
	}
}

// jobScript synthesizes the submitted job script, part of the job-layer
// provenance ("we collect job-level data, including job scripts and logs").
func jobScript(cfg SessionConfig, workflow string) string {
	return fmt.Sprintf(`#!/bin/bash
#PBS -l select=%d:system=polaris
#PBS -q prod
#PBS -l walltime=01:00:00
mpiexec -n %d --ppn %d dask-worker --nthreads %d ...
python %s.py --seed %d
`, cfg.Platform.Nodes, cfg.Platform.Nodes*cfg.Dask.WorkersPerNode,
		cfg.Dask.WorkersPerNode, cfg.Dask.ThreadsPerWorker, workflow, cfg.Seed)
}

// TotalIOOps counts I/O operations the way the paper's analysis pipeline
// does — from DXT trace segments — so it reproduces Table I's "I/O
// operation" row, including the ResNet152 under-count when DXT buffers
// overflow. TotalPosixOps gives the untruncated counter-based figure.
func (a *RunArtifacts) TotalIOOps() int64 {
	var n int64
	for _, l := range a.DarshanLogs {
		n += l.TotalDXTSegments()
	}
	return n
}

// TotalPosixOps sums reads+writes from the POSIX counter module.
func (a *RunArtifacts) TotalPosixOps() int64 {
	var n int64
	for _, l := range a.DarshanLogs {
		n += l.TotalOps()
	}
	return n
}

// TotalCommunications counts incoming inter-worker transfers — Table I's
// "Communications".
func (a *RunArtifacts) TotalCommunications() (int64, error) {
	t, err := a.Broker.OpenTopic(provenance.TopicTransfers)
	if err != nil {
		return 0, err
	}
	return int64(t.Events()), nil
}

// DistinctFiles counts the distinct file paths across Darshan logs —
// Table I's "Distinct files".
func (a *RunArtifacts) DistinctFiles() int {
	set := map[string]struct{}{}
	for _, l := range a.DarshanLogs {
		for _, r := range l.Records {
			set[r.Path] = struct{}{}
		}
	}
	return len(set)
}

// DistinctTasks counts tasks registered at the scheduler — Table I's
// "Distinct tasks".
func (a *RunArtifacts) DistinctTasks() (int, error) {
	metas, err := provenance.Drain(a.Broker, provenance.TopicTaskMeta, provenance.DecodeTaskMeta)
	if err != nil {
		return 0, err
	}
	set := map[dask.TaskKey]struct{}{}
	for _, m := range metas {
		set[m.Key] = struct{}{}
	}
	return len(set), nil
}

// TaskGraphs counts distinct completed task graphs — Table I's "Task
// graphs". Distinct by graph ID: a resumed run's merged stream can carry a
// graph's done event from more than one attempt.
func (a *RunArtifacts) TaskGraphs() (int, error) {
	graphs, err := provenance.Drain(a.Broker, provenance.TopicGraphs, provenance.DecodeGraphEvent)
	if err != nil {
		return 0, err
	}
	set := map[int]struct{}{}
	for _, g := range graphs {
		set[g.GraphID] = struct{}{}
	}
	return len(set), nil
}
