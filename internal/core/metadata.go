package core

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"taskprov/internal/dask"
	"taskprov/internal/pfs"
	"taskprov/internal/platform"
)

// RunMetadata is the serialized provenance chart of one run (Fig. 1): the
// hardware-infrastructure layer, the system-software/job-configuration
// layer, and the application layer's static configuration. Everything a
// reproducibility study needs to re-create or explain the run's context.
//
// It is also the run's configuration record: SessionConfig.Metadata writes
// every knob that shapes what the run stores into it, and ConfigFromMetadata
// reads them back, so a run is resumed or rerun from its metadata.json alone.
type RunMetadata struct {
	// Identity.
	JobID    string `json:"job_id"`
	Workflow string `json:"workflow"`
	Seed     uint64 `json:"seed"`

	// Hardware infrastructure layer: the platform model and where its nodes
	// landed, and the storage model.
	Platform platform.Description `json:"platform"`
	Storage  pfs.Config           `json:"storage"`

	// System software and job configuration layer.
	Software SoftwareStack `json:"software"`
	Job      JobConfig     `json:"job"`

	// Application layer: WMS configuration (distributed.yaml, the speculation
	// policy included) and the instrumentation configuration.
	DaskConfig      dask.Config           `json:"dask_config"`
	Instrumentation InstrumentationConfig `json:"instrumentation"`

	// Outcome.
	StartSeconds float64 `json:"start_seconds"`
	EndSeconds   float64 `json:"end_seconds"`
	WallSeconds  float64 `json:"wall_seconds"`

	// Attempt/ResumedFrom record the session incarnation for resumed runs
	// (see internal/resume): set from attempt 2 on, absent for runs that
	// never crashed.
	Attempt     int `json:"attempt,omitempty"`
	ResumedFrom int `json:"resumed_from,omitempty"`
}

// SoftwareStack is the system-software layer: OS, loaded modules, and
// installed packages with versions.
type SoftwareStack struct {
	OS       string            `json:"os"`
	Modules  []string          `json:"modules"`
	Packages map[string]string `json:"packages"`
}

// DefaultSoftwareStack describes this reproduction's synthetic stack,
// mirroring what the paper records on Polaris.
func DefaultSoftwareStack() SoftwareStack {
	return SoftwareStack{
		OS:      "sles15-sp5-sim",
		Modules: []string{"PrgEnv-gnu", "cray-mpich/8.1", "cudatoolkit/12.2"},
		Packages: map[string]string{
			"dask":        "2024.5-sim",
			"distributed": "2024.5-sim",
			"darshan":     "3.4-sim+pthread-dxt",
			"mofka":       "0.3-sim",
			"mochi":       "0.14-sim",
		},
	}
}

// JobConfig is the job-scheduler layer: the queue and the batch script. The
// resources it requests are the platform's nodes and the Dask config's
// workers and threads, recorded once, in those models.
type JobConfig struct {
	Queue  string `json:"queue"`
	Script string `json:"script"`
}

// InstrumentationConfig records how collection itself was configured —
// needed to explain gaps like DXT truncation (the paper's footnote 9 and
// §V "identify gaps in the metadata collection").
type InstrumentationConfig struct {
	DXTEnabled        bool `json:"dxt_enabled"`
	DXTBufferSegments int  `json:"dxt_buffer_segments"`
	MofkaBatchSize    int  `json:"mofka_batch_size"`
	// MofkaDataDir is the durable event-log directory, empty when the run's
	// provenance stream was in-memory only.
	MofkaDataDir string `json:"mofka_data_dir,omitempty"`
	// ClusterBrokers/Replication/Quorum record the sharded Mofka deployment
	// (internal/mofka/cluster) as configured; zero for a single broker or a default.
	ClusterBrokers     int `json:"cluster_brokers,omitempty"`
	ClusterReplication int `json:"cluster_replication,omitempty"`
	ClusterQuorum      int `json:"cluster_quorum,omitempty"`
	// Chaos is the fault-injection spec the run was executed under (see
	// internal/chaos), empty for fault-free runs. Recording it makes
	// degraded runs self-describing post-mortem.
	Chaos string `json:"chaos,omitempty"`
	// DarshanMaxFileRecords caps each process's Darshan file record table.
	DarshanMaxFileRecords int `json:"darshan_max_file_records"`
	// CollectionDisabled marks an overhead-ablation run that collected
	// nothing; LiveMonitor a run whose live monitor published the
	// anomalies topic.
	CollectionDisabled bool `json:"collection_disabled,omitempty"`
	LiveMonitor        bool `json:"live_monitor,omitempty"`
}

// Metadata is the record a run of the named workflow under cfg writes to
// metadata.json, less what only the run itself adds: where the platform
// placed its nodes, the outcome and the resume attempt. ConfigFromMetadata
// is its inverse; the two are the one mapping between a configuration and
// its record, and TestEveryKnobIsRecorded holds every SessionConfig field to
// it.
func (cfg SessionConfig) Metadata(workflow string) RunMetadata {
	return RunMetadata{
		JobID:    cfg.JobID,
		Workflow: workflow,
		Seed:     cfg.Seed,
		Platform: platform.Description{Config: cfg.Platform},
		Storage:  cfg.PFS,
		Software: DefaultSoftwareStack(),
		Job: JobConfig{
			Queue:  "prod",
			Script: jobScript(cfg, workflow),
		},
		DaskConfig: cfg.Dask,
		Instrumentation: InstrumentationConfig{
			DXTEnabled:            cfg.DarshanDXT,
			DXTBufferSegments:     cfg.DXTBufferSegments,
			MofkaBatchSize:        cfg.MofkaBatchSize,
			MofkaDataDir:          cfg.MofkaDataDir,
			ClusterBrokers:        cfg.ClusterBrokers,
			ClusterReplication:    cfg.ClusterReplication,
			ClusterQuorum:         cfg.ClusterQuorum,
			Chaos:                 cfg.ChaosSpec,
			DarshanMaxFileRecords: cfg.DarshanMaxFileRecords,
			CollectionDisabled:    cfg.DisableCollection,
			LiveMonitor:           cfg.LiveMonitor,
		},
	}
}

// ConfigFromMetadata rebuilds the configuration a run recorded with
// SessionConfig.Metadata, from the record alone. What the record leaves to
// whoever reruns it comes back zero: where the run writes (MofkaDataDir,
// ResumeFrom), how often its log is fsynced (MofkaSyncPolicy, which stores
// the same bytes under every policy) and where it serves (LiveHTTPAddr). A
// record that names no platform or storage model to rebuild the run on is
// refused.
func ConfigFromMetadata(m RunMetadata) (SessionConfig, error) {
	if m.Platform.Nodes <= 0 || m.Platform.NICBandwidth <= 0 || m.Storage.OSTs <= 0 {
		return SessionConfig{}, fmt.Errorf("core: the metadata of run %q records no platform and storage model to rebuild it on", m.JobID)
	}
	in := m.Instrumentation
	return SessionConfig{
		JobID:                 m.JobID,
		Seed:                  m.Seed,
		Platform:              m.Platform.Config,
		PFS:                   m.Storage,
		Dask:                  m.DaskConfig,
		DarshanDXT:            in.DXTEnabled,
		DXTBufferSegments:     in.DXTBufferSegments,
		DarshanMaxFileRecords: in.DarshanMaxFileRecords,
		MofkaBatchSize:        in.MofkaBatchSize,
		ChaosSpec:             in.Chaos,
		ClusterBrokers:        in.ClusterBrokers,
		ClusterReplication:    in.ClusterReplication,
		ClusterQuorum:         in.ClusterQuorum,
		DisableCollection:     in.CollectionDisabled,
		LiveMonitor:           in.LiveMonitor,
	}, nil
}

// ThreadSlots is the run's thread-slot count, nodes × workers/node ×
// threads/worker: the divisor of the live aggregates' per-slot averages.
func (m RunMetadata) ThreadSlots() int {
	return m.Platform.Nodes * m.DaskConfig.WorkersPerNode * m.DaskConfig.ThreadsPerWorker
}

// EncodeMetadata serializes run metadata as pretty JSON.
func EncodeMetadata(m RunMetadata) []byte {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(fmt.Sprintf("core: metadata encode: %v", err))
	}
	return b
}

// DecodeMetadata parses run metadata JSON.
func DecodeMetadata(b []byte) (RunMetadata, error) {
	var m RunMetadata
	if err := json.Unmarshal(b, &m); err != nil {
		return RunMetadata{}, fmt.Errorf("core: metadata decode: %w", err)
	}
	return m, nil
}

// RenderChart formats the run metadata as the paper's Fig. 1 layered
// provenance chart: hardware infrastructure, system software & job
// configuration, and the application layer.
func (m RunMetadata) RenderChart() string {
	var b strings.Builder
	fmt.Fprintf(&b, "provenance chart — %s (workflow %s, seed %d)\n", m.JobID, m.Workflow, m.Seed)
	fmt.Fprintf(&b, "├─ hardware infrastructure\n")
	fmt.Fprintf(&b, "│   ├─ platform: %s (%d nodes × %d cores, %d GPUs/node, %d switches)\n",
		m.Platform.Name, m.Platform.Nodes, m.Platform.CoresPerNode,
		m.Platform.GPUsPerNode, m.Platform.Switches)
	for _, n := range m.Platform.NodeList {
		fmt.Fprintf(&b, "│   │   ├─ %s on switch %d (speed %.3f)\n", n.Hostname, n.Switch, n.Speed)
	}
	fmt.Fprintf(&b, "│   └─ storage: %s (%d OSTs, stripe %d×%dB, %.1f GB/s/OST)\n",
		m.Storage.Name, m.Storage.OSTs, m.Storage.StripeCount, m.Storage.StripeSize,
		m.Storage.OSTBandwidth/1e9)
	fmt.Fprintf(&b, "├─ system software & job configuration\n")
	fmt.Fprintf(&b, "│   ├─ os: %s\n", m.Software.OS)
	fmt.Fprintf(&b, "│   ├─ modules: %s\n", strings.Join(m.Software.Modules, ", "))
	pkgs := make([]string, 0, len(m.Software.Packages))
	for k := range m.Software.Packages {
		pkgs = append(pkgs, k)
	}
	sort.Strings(pkgs)
	for _, k := range pkgs {
		fmt.Fprintf(&b, "│   ├─ package: %s %s\n", k, m.Software.Packages[k])
	}
	fmt.Fprintf(&b, "│   ├─ job: %d nodes × %d workers × %d threads, queue %s\n",
		m.Platform.Nodes, m.DaskConfig.WorkersPerNode, m.DaskConfig.ThreadsPerWorker, m.Job.Queue)
	fmt.Fprintf(&b, "│   └─ job script:\n")
	for _, line := range strings.Split(strings.TrimRight(m.Job.Script, "\n"), "\n") {
		fmt.Fprintf(&b, "│       %s\n", line)
	}
	fmt.Fprintf(&b, "└─ application layer\n")
	fmt.Fprintf(&b, "    ├─ distributed.yaml: heartbeat %.3fs, stealing %v (%.3fs), loop-monitor %.1fs\n",
		m.DaskConfig.HeartbeatInterval.Seconds(), m.DaskConfig.WorkStealing,
		m.DaskConfig.StealInterval.Seconds(), m.DaskConfig.EventLoopMonitorThreshold.Seconds())
	durable := ""
	if m.Instrumentation.MofkaDataDir != "" {
		durable = fmt.Sprintf(", durable log %s", m.Instrumentation.MofkaDataDir)
	}
	fmt.Fprintf(&b, "    ├─ instrumentation: DXT=%v (buffer %d segments), mofka batch %d%s\n",
		m.Instrumentation.DXTEnabled, m.Instrumentation.DXTBufferSegments,
		m.Instrumentation.MofkaBatchSize, durable)
	if m.Attempt > 1 {
		fmt.Fprintf(&b, "    ├─ attempt: %d (resumed from attempt %d)\n", m.Attempt, m.ResumedFrom)
	}
	fmt.Fprintf(&b, "    └─ outcome: [%.3fs, %.3fs], wall %.3fs\n",
		m.StartSeconds, m.EndSeconds, m.WallSeconds)
	return b.String()
}
