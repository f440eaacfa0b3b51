package dask

import "taskprov/internal/sim"

// Config is the runtime configuration, mirroring the knobs of
// distributed.yaml that the paper's provenance chart captures at the
// system-software layer (timeouts, heartbeat intervals, communication
// settings). Its JSON form is the dask_config block of a run's
// metadata.json, durations in nanoseconds.
type Config struct {
	WorkersPerNode   int `json:"workers_per_node"`
	ThreadsPerWorker int `json:"threads_per_worker"`

	// SchedulerNode is the platform node index hosting the scheduler (the
	// client runs alongside it).
	SchedulerNode int `json:"scheduler_node"`

	// HeartbeatInterval is the worker -> scheduler heartbeat period
	// (distributed.yaml: worker.heartbeat-interval).
	HeartbeatInterval sim.Time `json:"heartbeat_interval_ns"`

	// WorkerTTL: a worker silent for this long is declared dead and evicted
	// (distributed.yaml: scheduler.worker-ttl). Its processing tasks are
	// requeued and its lost in-memory keys recomputed. Default
	// 6x HeartbeatInterval; negative disables liveness tracking.
	WorkerTTL sim.Time `json:"worker_ttl_ns"`

	// AllowedFailures: a task whose worker dies more than this many times
	// while it was processing is marked erred instead of being rescheduled
	// forever (distributed.yaml: scheduler.allowed-failures).
	AllowedFailures int `json:"allowed_failures"`

	// WorkStealing enables the scheduler's stealing loop
	// (distributed.yaml: scheduler.work-stealing).
	WorkStealing bool `json:"work_stealing"`
	// StealInterval is the stealing loop period
	// (scheduler.work-stealing-interval).
	StealInterval sim.Time `json:"steal_interval_ns"`

	// EventLoopMonitorThreshold: a blocked worker event loop longer than
	// this emits "unresponsive event loop" warnings, one per threshold
	// interval while blocked (tornado's PeriodicCallback monitor).
	EventLoopMonitorThreshold sim.Time `json:"event_loop_threshold_ns"`

	// GCThresholdBytes triggers a garbage-collection pause each time a
	// worker accumulates this many new bytes in memory; GCPausePerGiB
	// scales the pause with the managed heap.
	GCThresholdBytes int64    `json:"gc_threshold_bytes"`
	GCPausePerGiB    sim.Time `json:"gc_pause_per_gib_ns"`
	GCPauseBase      sim.Time `json:"gc_pause_base_ns"`

	// DefaultTaskDuration seeds occupancy estimates for prefixes that have
	// never completed (distributed.yaml: scheduler.default-task-durations).
	DefaultTaskDuration sim.Time `json:"default_task_duration_ns"`

	// ComputeJitterCV is the coefficient of variation applied to every
	// compute segment, modeling OS noise on top of per-node speed factors.
	ComputeJitterCV float64 `json:"compute_jitter_cv"`

	// ControlMessageBytes is the nominal size of scheduler/worker control
	// messages (task assignment, completion reports).
	ControlMessageBytes int64 `json:"control_message_bytes"`

	// ConnectionSetup is the one-time cost of the first transfer between a
	// pair of workers (TCP connect + comm handshake). It is why small
	// transfers near the start of a workflow are disproportionately slow
	// (the paper's Fig. 5 observation).
	ConnectionSetup sim.Time `json:"connection_setup_ns"`

	// ProxyThresholdBytes enables the pass-by-reference data plane: task
	// outputs at or above this size are published to the pass-by-reference proxy
	// store and dependencies ship as small references resolved peer-to-peer
	// at first use. Zero (the default) disables the proxy store entirely —
	// behavior is identical to the direct data plane.
	ProxyThresholdBytes int64 `json:"proxy_threshold_bytes,omitempty"`
	// ProxyPrefetch resolves proxied dependencies eagerly at assignment time
	// instead of lazily at first use.
	ProxyPrefetch bool `json:"proxy_prefetch,omitempty"`
	// ProxyRefBytes is the wire size of one proxy reference riding a control
	// message (default 128 when the proxy store is enabled).
	ProxyRefBytes int64 `json:"proxy_ref_bytes,omitempty"`

	// HeartbeatJitterCV spreads each worker's heartbeat period (and the
	// scheduler's TTL sweep) with deterministic lognormal jitter, so a batch
	// of simultaneously restarted workers does not deliver heartbeats — or
	// get evicted — in one synchronized storm. Default 0.1; negative
	// disables jitter.
	HeartbeatJitterCV float64 `json:"heartbeat_jitter_cv"`

	// Speculation tunes speculative (hedged) execution of stragglers. A
	// session whose policy is Enabled also consults the live straggler
	// detector (internal/live MAD z-scores) and puts every decision on the
	// "speculation" provenance topic.
	Speculation SpeculationConfig `json:"speculation"`
}

// SpeculationConfig is the scheduler's hedged-execution policy: when a
// running task is flagged as a straggler (its elapsed runtime is far beyond
// its prefix's completed-duration distribution), the scheduler launches a
// duplicate attempt on a different worker; the first completion wins and the
// loser is cancelled with attempt fencing so its output never becomes
// visible.
type SpeculationConfig struct {
	// Enabled turns the speculation tick on.
	Enabled bool `json:"enabled,omitempty"`
	// MaxConcurrent bounds in-flight duplicate attempts (default 2).
	MaxConcurrent int `json:"max_concurrent,omitempty"`
	// Quantile is the per-prefix completed-duration quantile a running
	// task's elapsed time must exceed before it is a candidate (default
	// 0.75). The multiplied threshold is quantile-value × SlowFactor.
	Quantile float64 `json:"quantile,omitempty"`
	// MinRuntime is the minimum elapsed runtime before any task may be
	// speculated, so short tasks are never hedged (default 2s).
	MinRuntime sim.Time `json:"min_runtime_ns,omitempty"`
	// Budget caps total speculative launches per run, so a melting cluster
	// degrades to normal (slow) execution instead of duplicating everything
	// (default 32).
	Budget int `json:"budget,omitempty"`
	// Interval is the speculation tick period (default HeartbeatInterval).
	Interval sim.Time `json:"interval_ns,omitempty"`
	// SlowFactor is how many times beyond the quantile duration a task must
	// have run to count as straggling (default 2).
	SlowFactor float64 `json:"slow_factor,omitempty"`
}

// DefaultConfig returns the paper's job configuration: 4 workers per node
// with 8 threads per worker, work stealing on (Dask's default).
func DefaultConfig() Config {
	return Config{
		WorkersPerNode:            4,
		ThreadsPerWorker:          8,
		SchedulerNode:             0,
		HeartbeatInterval:         sim.Milliseconds(500),
		WorkerTTL:                 sim.Seconds(3),
		AllowedFailures:           3,
		WorkStealing:              true,
		StealInterval:             sim.Milliseconds(100),
		EventLoopMonitorThreshold: sim.Seconds(3),
		GCThresholdBytes:          4 << 30,
		GCPausePerGiB:             sim.Milliseconds(60),
		GCPauseBase:               sim.Milliseconds(20),
		DefaultTaskDuration:       sim.Milliseconds(500),
		ComputeJitterCV:           0.08,
		ControlMessageBytes:       1024,
		ConnectionSetup:           sim.Milliseconds(9),
		HeartbeatJitterCV:         0.1,
	}
}

// withDefaults normalizes zero fields to defaults. Applied twice it gives
// what it gave once, so the config a cluster runs under (Cluster.Config) is
// also the config that rebuilds it.
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.WorkersPerNode <= 0 {
		c.WorkersPerNode = d.WorkersPerNode
	}
	if c.ThreadsPerWorker <= 0 {
		c.ThreadsPerWorker = d.ThreadsPerWorker
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = d.HeartbeatInterval
	}
	if c.WorkerTTL == 0 {
		c.WorkerTTL = 6 * c.HeartbeatInterval
	}
	if c.AllowedFailures <= 0 {
		c.AllowedFailures = d.AllowedFailures
	}
	if c.StealInterval <= 0 {
		c.StealInterval = d.StealInterval
	}
	if c.EventLoopMonitorThreshold <= 0 {
		c.EventLoopMonitorThreshold = d.EventLoopMonitorThreshold
	}
	if c.GCThresholdBytes <= 0 {
		c.GCThresholdBytes = d.GCThresholdBytes
	}
	if c.GCPausePerGiB <= 0 {
		c.GCPausePerGiB = d.GCPausePerGiB
	}
	if c.GCPauseBase <= 0 {
		c.GCPauseBase = d.GCPauseBase
	}
	if c.DefaultTaskDuration <= 0 {
		c.DefaultTaskDuration = d.DefaultTaskDuration
	}
	if c.ControlMessageBytes <= 0 {
		c.ControlMessageBytes = d.ControlMessageBytes
	}
	if c.ConnectionSetup <= 0 {
		c.ConnectionSetup = d.ConnectionSetup
	}
	if c.ProxyThresholdBytes < 0 {
		c.ProxyThresholdBytes = 0
	}
	if c.ProxyThresholdBytes > 0 && c.ProxyRefBytes <= 0 {
		c.ProxyRefBytes = 128
	}
	if c.HeartbeatJitterCV == 0 {
		c.HeartbeatJitterCV = d.HeartbeatJitterCV
	}
	if c.Speculation.Enabled {
		if c.Speculation.MaxConcurrent <= 0 {
			c.Speculation.MaxConcurrent = 2
		}
		if c.Speculation.Quantile <= 0 || c.Speculation.Quantile >= 1 {
			c.Speculation.Quantile = 0.75
		}
		if c.Speculation.MinRuntime <= 0 {
			c.Speculation.MinRuntime = sim.Seconds(2)
		}
		if c.Speculation.Budget <= 0 {
			c.Speculation.Budget = 32
		}
		if c.Speculation.Interval <= 0 {
			c.Speculation.Interval = c.HeartbeatInterval
		}
		if c.Speculation.SlowFactor <= 1 {
			c.Speculation.SlowFactor = 2
		}
	}
	return c
}
