package core

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
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

	// MofkaDataDir, when set, backs the run's broker with the durable
	// segmented event log rooted there (internal/mofka/wal): every
	// provenance event is crash-safe on disk and the directory can be
	// analyzed post-mortem with perfrecup, without JSONL export. Ignored
	// when an external broker is passed to NewSession.
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
	// (same seed, platform, workflow — ConfigFromMetadata rebuilds this from
	// the dir's metadata.json). MofkaDataDir, if also set, must equal
	// ResumeFrom.
	ResumeFrom string

	// ClusterBrokers, when > 0, backs the provenance stream with a sharded,
	// replicated Mofka cluster of that many broker replicas instead of a
	// single broker (internal/mofka/cluster): topic partitions spread over
	// the replicas by rendezvous hashing, appends are quorum-acknowledged,
	// and a broker crash (see the chaos "broker" directive) fails affected
	// partitions over to surviving replicas without losing acknowledged
	// events. RunArtifacts.Broker then holds the cluster's merged read view
	// and RunArtifacts.Cluster the live cluster handle. Incompatible with an
	// external broker passed to NewSession.
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
}

// Validate rejects impossible session configurations with a clear error
// before any resource is built — negative or absurd knob values surface
// here instead of as confusing failures mid-run, and before a data dir is
// touched. NewSession calls it first; commands should call it right after
// flag parsing.
func (cfg SessionConfig) Validate() error {
	_, err := cfg.check()
	return err
}

// check is Validate returning the parsed chaos plan, checked against the
// run's shape so that arming it cannot fail.
func (cfg SessionConfig) check() (*chaos.Plan, error) {
	if cfg.MofkaBatchSize < 0 {
		return nil, fmt.Errorf("core: negative Mofka batch size %d", cfg.MofkaBatchSize)
	}
	if cfg.MofkaBatchSize > 1<<20 {
		return nil, fmt.Errorf("core: Mofka batch size %d is absurd (max %d)", cfg.MofkaBatchSize, 1<<20)
	}
	if cfg.DXTBufferSegments < 0 {
		return nil, fmt.Errorf("core: negative DXT buffer segments %d", cfg.DXTBufferSegments)
	}
	if cfg.DarshanMaxFileRecords < 0 {
		return nil, fmt.Errorf("core: negative Darshan max file records %d", cfg.DarshanMaxFileRecords)
	}
	if cfg.ClusterBrokers < 0 {
		return nil, fmt.Errorf("core: negative cluster broker count %d", cfg.ClusterBrokers)
	}
	if cfg.Dask.ProxyThresholdBytes < 0 {
		return nil, fmt.Errorf("core: negative proxy threshold %d", cfg.Dask.ProxyThresholdBytes)
	}
	if cfg.Dask.ProxyThresholdBytes == 0 && cfg.Dask.ProxyPrefetch {
		return nil, fmt.Errorf("core: ProxyPrefetch requires a positive ProxyThresholdBytes")
	}
	if cfg.ClusterBrokers == 0 && (cfg.ClusterReplication != 0 || cfg.ClusterQuorum != 0) {
		return nil, fmt.Errorf("core: cluster replication/quorum set without ClusterBrokers")
	}
	if sp := cfg.Dask.Speculation; sp.Enabled {
		if sp.Quantile < 0 || sp.Quantile >= 1 {
			return nil, fmt.Errorf("core: speculation quantile %v outside [0, 1)", sp.Quantile)
		}
		if sp.MaxConcurrent < 0 || sp.Budget < 0 {
			return nil, fmt.Errorf("core: negative speculation bound (max_concurrent=%d budget=%d)", sp.MaxConcurrent, sp.Budget)
		}
		if sp.MinRuntime < 0 || sp.Interval < 0 {
			return nil, fmt.Errorf("core: negative speculation duration (min_runtime=%v interval=%v)", sp.MinRuntime, sp.Interval)
		}
	}
	if _, err := wal.ParseSyncPolicy(cfg.MofkaSyncPolicy); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	plan, err := chaos.Parse(cfg.ChaosSpec)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if err := plan.Check(cfg.Platform.Nodes*cfg.Dask.WorkersPerNode, cfg.Platform.Nodes, cfg.ClusterBrokers); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if cfg.ResumeFrom != "" {
		if cfg.DisableCollection {
			return nil, fmt.Errorf("core: ResumeFrom requires collection (resume is reconstructed from the provenance stream)")
		}
		if cfg.MofkaDataDir != "" && cfg.MofkaDataDir != cfg.ResumeFrom {
			return nil, fmt.Errorf("core: ResumeFrom %s conflicts with MofkaDataDir %s (a resumed session appends to the dir it resumes from)", cfg.ResumeFrom, cfg.MofkaDataDir)
		}
	}
	if cfg.ClusterBrokers > 0 {
		ccfg := mcluster.Config{
			Brokers:           cfg.ClusterBrokers,
			ReplicationFactor: cfg.ClusterReplication,
			Quorum:            cfg.ClusterQuorum,
		}
		if err := ccfg.Validate(); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		if cfg.LiveHTTPAddr != "" {
			return nil, fmt.Errorf("core: the live HTTP endpoint requires a standalone broker (cluster runs attach the monitor to the merged read view after the run)")
		}
	}
	return plan, nil
}

// DefaultSessionConfig mirrors the paper's setup: Polaris-like platform with
// 2 worker nodes, Lustre-like storage, 4 workers/node x 8 threads, DXT on
// with Darshan's default buffers.
func DefaultSessionConfig(jobID string, seed uint64) SessionConfig {
	return SessionConfig{
		JobID:                 jobID,
		Seed:                  seed,
		Platform:              platform.Polaris(),
		PFS:                   pfs.Lustre(),
		Dask:                  dask.DefaultConfig(),
		DarshanDXT:            true,
		DXTBufferSegments:     darshan.DefaultDXTBufferSegments,
		DarshanMaxFileRecords: darshan.DefaultMaxFileRecords,
		MofkaBatchSize:        64,
	}
}

// checkpointInterval is the virtual-time period of the lightweight frontier
// checkpoint (completed tasks, per-graph counts and done marks, live blob
// residency) a durable run writes next to its event log. It bypasses
// producer batching, so a resume learns from it the completions, done marks
// and blob residency whose events died in unflushed batches.
const checkpointInterval = 5 * sim.Second

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

	recordsMu sync.Mutex
	records   *provenance.Records // Broker's, bound by Records
	recordsOf *mofka.Broker
}

// Records is the run's provenance as typed records, decoded once per topic
// and shared by every analysis of these artifacts while one of them holds
// it (provenance.Records). It is bound to Broker on first use and rebound
// when Broker is replaced.
func (a *RunArtifacts) Records() *provenance.Records {
	a.recordsMu.Lock()
	defer a.recordsMu.Unlock()
	if a.records == nil || a.recordsOf != a.Broker {
		a.records, a.recordsOf = provenance.NewRecords(a.Broker), a.Broker
	}
	return a.records
}

// Session is one instrumented run's lifecycle, split so callers can hold it.
// NewSession builds the run in stages (substrate, openBus, instrument,
// armChaos, attachLive) and Execute runs it in stages (beginAttempt, run,
// collect, persist). A stage that acquires something registers its undo
// with onClose; Close runs them, so a failed build, a crashed run and a
// finished one unwind the same way. Run wraps the three for the common case.
type Session struct {
	cfg SessionConfig
	wf  Workflow

	env *Env // the substrate: kernel, platform, PFS, POSIX layer, cluster

	// bus is the event log the run publishes through, whichever deployment
	// it is; clu is the same cluster again, non-nil only for a sharded run,
	// for the steps no standalone broker has.
	bus       mofka.Bus
	clu       *mcluster.Cluster
	collector *Collector
	runtimes  []*darshan.Runtime
	frontier  *frontierPlugin

	monitor   *live.Monitor
	closeLive func() error // the live HTTP endpoint's undo, run early by collect

	attempt     int // the incarnation this session runs as
	resumeState *resume.State
	killed      *CrashError // set by crash

	undos []func() error
}

// NewSession validates the configuration and constructs every component of
// the run without starting it. On error the partially-constructed session is
// closed before returning. The optional external broker shares the event
// stream with in-situ consumers; nil creates a private one.
func NewSession(cfg SessionConfig, wf Workflow, broker *mofka.Broker) (_ *Session, err error) {
	plan, err := cfg.check()
	if err != nil {
		return nil, err
	}
	if broker != nil && (cfg.ClusterBrokers > 0 || cfg.ResumeFrom != "") {
		return nil, fmt.Errorf("core: ClusterBrokers and ResumeFrom are incompatible with an external broker")
	}
	s := &Session{cfg: cfg, wf: wf}
	defer func() {
		if err != nil {
			err = errors.Join(err, s.Close())
		}
	}()
	if err = s.substrate(); err != nil {
		return nil, err
	}
	if err = s.openBus(broker); err != nil {
		return nil, err
	}
	if err = s.instrument(); err != nil {
		return nil, err
	}
	s.armChaos(plan)
	if err = s.attachLive(); err != nil {
		return nil, err
	}
	return s, nil
}

// onClose registers undo for Close, which runs the undos in reverse order.
func (s *Session) onClose(undo func() error) { s.undos = append(s.undos, undo) }

// substrate is the build stage for the simulated machine and its WMS: a
// resumed run's reconstructed frontier, the kernel, platform, PFS, a Darshan
// runtime per worker process, and the Dask cluster.
func (s *Session) substrate() error {
	cfg := s.cfg
	k := sim.NewKernel(cfg.Seed)
	s.env, s.attempt = &Env{Kernel: k, RNG: k.RNG("workflow")}, 1
	if cfg.ResumeFrom != "" {
		st, err := resume.Reconstruct(cfg.ResumeFrom)
		if err != nil {
			return err
		}
		s.resumeState, s.attempt = st, st.Attempt
		s.cfg.MofkaDataDir = cfg.ResumeFrom
		// Fast-forward the virtual clock past every surviving event of the
		// crashed attempts before anything is scheduled, so the merged
		// provenance timeline stays monotonic across the attempt boundary.
		k.RunUntil(st.ResumeBase)
	}
	s.env.Platform = platform.New(k, cfg.Platform)
	s.env.PFS = pfs.New(k, cfg.PFS)
	s.env.FS = posixio.NewFS(s.env.PFS)

	tracers := dask.TracerFactory(nil)
	if !cfg.DisableCollection {
		tracers = func(rank int, hostname string) posixio.Tracer {
			rt := darshan.NewRuntime(darshan.Config{
				JobID: cfg.JobID, Rank: rank, Hostname: hostname,
				Exe:        s.wf.Name(),
				DXTEnabled: cfg.DarshanDXT, DXTBufferSegments: cfg.DXTBufferSegments,
				MaxFileRecords: cfg.DarshanMaxFileRecords,
			})
			s.runtimes = append(s.runtimes, rt)
			return rt
		}
	}
	s.env.Cluster = dask.NewCluster(k, s.env.Platform, s.env.FS, cfg.Dask, tracers)

	// Speculation closes the detect→act loop: the scheduler's speculation
	// tick consults the live straggler detector (the same MAD robust-z model
	// the monitor's anomaly lane runs) in addition to its built-in quantile
	// policy.
	if cfg.Dask.Speculation.Enabled {
		s.env.Cluster.SetSpeculationAdvisor(live.NewStragglerDetector())
	}
	return nil
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
		pol, _ := wal.ParseSyncPolicy(cfg.MofkaSyncPolicy) // check refused a bad one
		opts = mofka.Options{DataDir: cfg.MofkaDataDir, WAL: wal.Options{Sync: pol}}
	}
	switch {
	case cfg.ClusterBrokers > 0:
		// Health events are timestamped with virtual time so the failover
		// timeline lines up with the rest of the provenance stream.
		clu, err := mcluster.New(mcluster.Config{
			Brokers:           cfg.ClusterBrokers,
			ReplicationFactor: cfg.ClusterReplication,
			Quorum:            cfg.ClusterQuorum,
			NowSeconds:        func() float64 { return s.env.Kernel.Now().Seconds() },
			DataDir:           opts.DataDir,
			WAL:               opts.WAL,
		})
		if err != nil {
			return err
		}
		s.clu, s.bus = clu, clu.Bus()
	case opts.DataDir != "":
		broker, err := mofka.NewDurableBroker(opts)
		if err != nil {
			return err
		}
		s.bus = broker.Bus()
	default:
		s.bus = mofka.NewStandaloneBroker().Bus()
	}
	s.onClose(s.bus.Close)
	return nil
}

// instrument is the build stage for collection: the collector's provenance
// plugins and, on a durable run, the frontier checkpointer, which bounds a
// future resume's WAL replay.
func (s *Session) instrument() error {
	cfg := s.cfg
	if cfg.DisableCollection {
		return nil
	}
	// Resilience: a broker hiccup degrades the producers (bounded buffering +
	// quick in-line retries) instead of failing the run.
	popts := mofka.ProducerOptions{
		BatchSize:    cfg.MofkaBatchSize,
		FlushRetries: 2,
		RetryBackoff: time.Millisecond,
	}
	var err error
	if s.collector, err = NewCollector(s.bus, popts); err != nil {
		return err
	}
	s.collector.SetClock(s.env.Kernel.Now)
	s.env.Cluster.AddSchedulerPlugin(s.collector.SchedulerPlugin())
	s.env.Cluster.AddWorkerPlugin(s.collector.WorkerPlugin())
	if cfg.MofkaDataDir != "" {
		s.frontier = newFrontierPlugin(s.attempt, s.resumeState)
		s.env.Cluster.AddSchedulerPlugin(s.frontier)
		s.env.Cluster.AddWorkerPlugin(s.frontier)
	}
	return nil
}

// armChaos is the build stage for fault injection, armed before anything
// starts so kills scheduled at early virtual times land deterministically.
// Validate checked the plan against the run's shape: arming cannot fail.
func (s *Session) armChaos(plan *chaos.Plan) {
	if s.cfg.ChaosSpec == "" {
		return
	}
	ctl := chaos.NewController(plan)
	ctl.ArmWorkerFaults(s.env.Kernel, s.env.Cluster)
	ctl.ArmSlowdowns(s.env.Kernel, s.env.Cluster)
	ctl.ArmLinkFaults(s.env.Kernel, s.env.Platform)
	if s.clu != nil {
		ctl.ArmClusterFaults(s.env.Kernel, s.clu)
	}
	ctl.ArmBroker(s.bus)
	ctl.ArmSchedulerFaults(s.env.Kernel, s.crash)
	if kills := ctl.TaskTriggeredSchedulerKills(); len(kills) > 0 {
		s.env.Cluster.AddWorkerPlugin(&taskKillPlugin{kills: kills, crash: s.crash})
	}
}

// attachLive is the build stage for the live monitor, attached before the
// run so it consumes the provenance topics while the workflow executes, and
// its HTTP endpoint. Only a standalone broker's read view is live (it is the
// broker); a cluster run attaches in collect, to the merged view of the
// finished run.
func (s *Session) attachLive() error {
	if !s.cfg.LiveMonitor || s.clu != nil {
		return nil
	}
	view, err := s.bus.ReadView()
	if err != nil {
		return err
	}
	s.attachMonitor(view)
	if s.cfg.LiveHTTPAddr == "" {
		return nil
	}
	srv, err := live.Serve(s.cfg.LiveHTTPAddr, s.monitor)
	if err != nil {
		return err
	}
	// The endpoint serves for the run; collect closes it, and closing it
	// again at Close is harmless.
	s.closeLive = srv.Close
	s.onClose(srv.Close)
	return nil
}

// attachMonitor attaches the live monitor to the broker; run sweeps it.
func (s *Session) attachMonitor(b *mofka.Broker) {
	s.monitor = live.NewMonitor(b, live.MonitorOptions{})
	s.monitor.Aggregator().SetMeta(s.wf.Name(), s.cfg.Seed, s.buildMeta(0, 0).ThreadSlots())
}

// crash is the coordinator-kill hook: the chaos "scheduler" directive calls
// it (possibly more than once — the first kill wins) to model kill -9 of the
// whole session. It records the CrashError and stops the kernel; Execute
// returns it without flushing producers, so events buffered in unflushed
// batches are lost exactly as a real SIGKILL would lose them.
func (s *Session) crash(chaos.SchedulerKill) {
	if s.killed == nil {
		s.killed = &CrashError{At: s.env.Kernel.Now(), DataDir: s.cfg.MofkaDataDir, Attempt: s.attempt}
		s.env.Kernel.Stop()
	}
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
	if err := s.beginAttempt(); err != nil {
		return nil, err
	}
	start, end, err := s.run()
	if err != nil {
		return nil, err
	}
	art, err := s.collect(start, end)
	if err != nil {
		return nil, err
	}
	if err := s.persist(art); err != nil {
		return nil, err
	}
	return art, nil
}

// beginAttempt is the execute stage that appends this attempt to the
// lineage, the fencing record between incarnations (completed only at clean
// end, so a crash leaves it open), and writes the partial metadata from
// which taskprov resume rebuilds this configuration.
func (s *Session) beginAttempt() error {
	if s.cfg.MofkaDataDir == "" {
		return nil
	}
	a := resume.Attempt{Attempt: s.attempt, StartSeconds: s.env.Kernel.Now().Seconds()}
	if s.resumeState != nil {
		a.ResumedFrom = s.resumeState.ResumedFrom
	}
	if _, err := resume.AppendAttempt(s.cfg.MofkaDataDir, a); err != nil {
		return err
	}
	return s.writeMeta(s.buildMeta(0, 0))
}

// run is the execute stage that stages the inputs, seeds a resumed frontier,
// and runs the kernel, with the checkpoint ticker and the live monitor's
// sweeps, until the workflow's client returns. A coordinator kill returns its
// *CrashError — kill -9: no flush, no final checkpoint, no lineage
// completion.
func (s *Session) run() (start, end sim.Time, err error) {
	k, wf, env := s.env.Kernel, s.wf, s.env
	wf.Stage(env)

	if st := s.resumeState; st != nil {
		// Rebuild what the crashed attempts left behind. The PFS is staged
		// fresh, then the completed tasks' recorded file effects are replayed
		// in completion order (last writer wins — creates truncate), so
		// memoized tasks' outputs exist without re-running them. Tasks whose
		// records were lost re-run and redo their I/O themselves.
		for _, fe := range st.FileEffects {
			s.env.PFS.CreateNow(fe.Path, fe.SizeAfter)
		}
		s.env.Cluster.SeedResume(st.Memos, st.DoneGraphs)
		s.collector.pushWarning(dask.Warning{ // a resumed run always collects (Validate)
			Kind:   dask.WarnSessionResumed,
			Worker: "scheduler",
			At:     k.Now(),
			Message: fmt.Sprintf("attempt %d resumed from attempt %d: %d tasks memoized, %d graphs already done",
				st.Attempt, st.ResumedFrom, len(st.Memos), len(st.DoneGraphs)),
		})
	}

	var tickers []func()
	if s.frontier != nil {
		tickers = append(tickers, k.Every(checkpointInterval, func() {
			if err := s.frontier.write(s.cfg.MofkaDataDir, k.Now()); err != nil && s.collector != nil {
				s.collector.pushWarning(dask.Warning{
					Kind: dask.WarnCheckpointFailed, Worker: "scheduler",
					At: k.Now(), Message: err.Error(),
				})
			}
		}))
	}
	if s.monitor != nil && s.collector != nil {
		// At every window boundary the monitor takes what has shipped.
		tickers = append(tickers, k.Every(sim.Seconds(live.WindowSeconds), func() {
			s.collector.waitShipped()
			s.monitor.Sweep()
		}))
	}

	s.env.Cluster.Start()
	finished := false
	k.Go(func(p *sim.Proc) {
		cl := s.env.Cluster.Client()
		start = p.Now()
		cl.WaitForWorkers(p, len(s.env.Cluster.Workers()))
		wf.Run(p, cl, env)
		end = p.Now()
		finished = true
		k.Stop()
	})
	k.Run()
	for _, stop := range tickers {
		stop()
	}
	if s.killed != nil {
		return 0, 0, s.killed
	}
	if !finished {
		return 0, 0, fmt.Errorf("core: workflow %q deadlocked at %v (%d events pending)", wf.Name(), k.Now(), k.Pending())
	}
	return start, end, nil
}

// collect is the execute stage that flushes the provenance and assembles
// the finished run's artifacts.
func (s *Session) collect(start, end sim.Time) (*RunArtifacts, error) {
	if s.resumeState != nil {
		// Blobs revived for the resumed frontier but never demanded by the
		// remaining work are swept now, emitting their frees into the stream,
		// so merged residency drains to the uninterrupted baseline.
		s.env.Cluster.ReleaseResumeOrphans()
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
	if s.cfg.LiveMonitor && s.monitor == nil {
		// Not attached before the run — a cluster: attach to the merged read
		// view now that the acknowledged prefixes are final; the Summary
		// still satisfies the live/post-mortem equivalence invariant.
		s.attachMonitor(art.Broker)
	}
	if s.monitor != nil {
		sum := s.monitor.Finish(art.DarshanLogs, (end - start).Seconds())
		art.Live = &sum
		if s.closeLive != nil {
			if err := s.closeLive(); err != nil {
				return nil, err
			}
		}
	}
	art.Meta = s.buildMeta(start, end)
	art.Proxy = s.env.Cluster.ProxyStats()
	art.Files = make(map[string]int64)
	for _, p := range s.env.PFS.List("/") {
		art.Files[p] = s.env.PFS.Lookup(p).Size
	}
	return art, nil
}

// persist is the execute stage that completes a durable run's data dir and
// makes it self-describing, so perfrecup can analyze it post-mortem without
// the JSONL run directory.
func (s *Session) persist(art *RunArtifacts) error {
	dir := s.cfg.MofkaDataDir
	if dir == "" {
		return nil
	}
	if err := s.bus.Sync(); err != nil {
		return err
	}
	if s.frontier != nil {
		if err := s.frontier.write(dir, s.env.Kernel.Now()); err != nil {
			return err
		}
	}
	if err := resume.CompleteAttempt(dir, s.attempt, art.Meta.EndSeconds); err != nil {
		return err
	}
	if err := s.writeMeta(art.Meta); err != nil {
		return err
	}
	if err := art.WriteDarshanLogs(dir); err != nil {
		return fmt.Errorf("core: persist darshan logs: %w", err)
	}
	return nil
}

// writeMeta writes the data dir's metadata.json.
func (s *Session) writeMeta(m RunMetadata) error {
	if err := wal.WriteFileAtomic(filepath.Join(s.cfg.MofkaDataDir, "metadata.json"), EncodeMetadata(m)); err != nil {
		return fmt.Errorf("core: persist metadata: %w", err)
	}
	return nil
}

// buildMeta assembles the run's metadata chart: its configuration record,
// with the platform, storage and Dask models as built — where the nodes
// landed, and what each model defaulted, the speculation policy included —
// and the outcome. Zero start/end produce the partial record written at
// session start (WallSeconds 0 marks it in-progress for post-mortem readers).
func (s *Session) buildMeta(start, end sim.Time) RunMetadata {
	m := s.cfg.Metadata(s.wf.Name())
	m.Platform, m.Storage = s.env.Platform.Describe(), s.env.PFS.Describe()
	m.DaskConfig = s.env.Cluster.Config()
	m.StartSeconds, m.EndSeconds, m.WallSeconds = start.Seconds(), end.Seconds(), (end - start).Seconds()
	if st := s.resumeState; st != nil {
		m.Attempt, m.ResumedFrom = st.Attempt, st.ResumedFrom
	}
	return m
}

// Close releases everything the session acquired: the simulated processes a
// crashed or deadlocked run left parked, then each stage's undo in reverse
// order — the live endpoint, and, when the session created it,
// the broker or broker cluster (closing a durable broker fsyncs acknowledged
// events; already-published events remain readable, see mofka.Broker.Close).
// It is idempotent (an undo runs once), safe on a partially-constructed
// session, and joins every undo's error.
func (s *Session) Close() error {
	if s == nil {
		return nil
	}
	if s.env != nil {
		s.env.Kernel.Close()
	}
	var errs []error
	for ; len(s.undos) > 0; s.undos = s.undos[:len(s.undos)-1] {
		errs = append(errs, s.undos[len(s.undos)-1]())
	}
	return errors.Join(errs...)
}

// Run executes the workflow under full instrumentation and returns the run's
// artifacts. On error — including a chaos coordinator kill — the session is
// closed (releasing durable WAL handles so a resume can reopen the data dir
// in the same process); on success only its kernel is, unwinding the
// simulated processes still parked on it, so a caller that drops the
// artifacts drops the whole run (taskprov run -runs N holds one at a time).
// The rest is left open, so the returned artifacts' broker remains fully
// usable.
func Run(cfg SessionConfig, wf Workflow) (*RunArtifacts, error) {
	s, err := NewSession(cfg, wf, nil)
	if err != nil {
		return nil, err
	}
	art, err := s.Execute()
	if err != nil {
		return nil, errors.Join(err, s.Close())
	}
	s.env.Kernel.Close()
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
	metas, err := a.Records().TaskMeta()
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
	graphs, err := a.Records().Graphs()
	if err != nil {
		return 0, err
	}
	set := map[int]struct{}{}
	for _, g := range graphs {
		set[g.GraphID] = struct{}{}
	}
	return len(set), nil
}
