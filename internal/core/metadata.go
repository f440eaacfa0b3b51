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
type RunMetadata struct {
	// Identity.
	JobID    string `json:"job_id"`
	Workflow string `json:"workflow"`
	Seed     uint64 `json:"seed"`

	// Hardware infrastructure layer.
	Platform platform.Description `json:"platform"`
	Storage  pfs.Description      `json:"storage"`

	// System software and job configuration layer.
	Software SoftwareStack `json:"software"`
	Job      JobConfig     `json:"job"`

	// Application layer: WMS configuration (distributed.yaml) and the
	// instrumentation configuration.
	DaskConfig      DaskConfigDescription `json:"dask_config"`
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

// JobConfig is the job-scheduler layer: requested/allocated resources.
type JobConfig struct {
	Nodes            int    `json:"nodes"`
	WorkersPerNode   int    `json:"workers_per_node"`
	ThreadsPerWorker int    `json:"threads_per_worker"`
	Queue            string `json:"queue"`
	Script           string `json:"script"`
}

// DaskConfigDescription is the serializable subset of the WMS config (the
// distributed.yaml values the paper lists: timeouts, heartbeat interval,
// communication settings).
type DaskConfigDescription struct {
	HeartbeatIntervalSec   float64 `json:"heartbeat_interval_sec"`
	WorkStealing           bool    `json:"work_stealing"`
	StealIntervalSec       float64 `json:"steal_interval_sec"`
	EventLoopThresholdSec  float64 `json:"event_loop_threshold_sec"`
	DefaultTaskDurationSec float64 `json:"default_task_duration_sec"`
	// ProxyThresholdBytes/ProxyPrefetch record the pass-by-reference data
	// plane configuration; zero threshold means direct transfers only.
	ProxyThresholdBytes int64 `json:"proxy_threshold_bytes,omitempty"`
	ProxyPrefetch       bool  `json:"proxy_prefetch,omitempty"`
}

// DescribeDaskConfig extracts the serializable view of a dask.Config.
func DescribeDaskConfig(c dask.Config) DaskConfigDescription {
	return DaskConfigDescription{
		HeartbeatIntervalSec:   c.HeartbeatInterval.Seconds(),
		WorkStealing:           c.WorkStealing,
		StealIntervalSec:       c.StealInterval.Seconds(),
		EventLoopThresholdSec:  c.EventLoopMonitorThreshold.Seconds(),
		DefaultTaskDurationSec: c.DefaultTaskDuration.Seconds(),
		ProxyThresholdBytes:    c.ProxyThresholdBytes,
		ProxyPrefetch:          c.ProxyPrefetch,
	}
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
	// ClusterBrokers/ClusterReplication record the sharded Mofka deployment
	// shape (internal/mofka/cluster); zero for single-broker runs.
	ClusterBrokers     int `json:"cluster_brokers,omitempty"`
	ClusterReplication int `json:"cluster_replication,omitempty"`
	// Chaos is the fault-injection spec the run was executed under (see
	// internal/chaos), empty for fault-free runs. Recording it makes
	// degraded runs self-describing post-mortem.
	Chaos string `json:"chaos,omitempty"`
	// Speculation records the hedged-execution policy the run was executed
	// under (zero when speculation was off), so a speculation timeline is
	// interpretable post-mortem without the session config.
	SpeculationEnabled  bool    `json:"speculation_enabled,omitempty"`
	SpeculationMax      int     `json:"speculation_max,omitempty"`
	SpeculationQuantile float64 `json:"speculation_quantile,omitempty"`
	SpeculationBudget   int     `json:"speculation_budget,omitempty"`
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
		m.Platform.Platform, m.Platform.Nodes, m.Platform.CoresPerNode,
		m.Platform.GPUsPerNode, m.Platform.Switches)
	for _, n := range m.Platform.NodeList {
		fmt.Fprintf(&b, "│   │   ├─ %s on switch %d (speed %.3f)\n", n.Hostname, n.Switch, n.Speed)
	}
	fmt.Fprintf(&b, "│   └─ storage: %s (%d OSTs, stripe %d×%dB, %.1f GB/s/OST)\n",
		m.Storage.Mount, m.Storage.OSTs, m.Storage.StripeCount, m.Storage.StripeSize,
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
		m.Job.Nodes, m.Job.WorkersPerNode, m.Job.ThreadsPerWorker, m.Job.Queue)
	fmt.Fprintf(&b, "│   └─ job script:\n")
	for _, line := range strings.Split(strings.TrimRight(m.Job.Script, "\n"), "\n") {
		fmt.Fprintf(&b, "│       %s\n", line)
	}
	fmt.Fprintf(&b, "└─ application layer\n")
	fmt.Fprintf(&b, "    ├─ distributed.yaml: heartbeat %.3fs, stealing %v (%.3fs), loop-monitor %.1fs\n",
		m.DaskConfig.HeartbeatIntervalSec, m.DaskConfig.WorkStealing,
		m.DaskConfig.StealIntervalSec, m.DaskConfig.EventLoopThresholdSec)
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
