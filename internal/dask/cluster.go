package dask

import (
	"fmt"

	"taskprov/internal/platform"
	"taskprov/internal/posixio"
	"taskprov/internal/sim"
)

// TracerFactory builds the per-worker-process I/O tracer (the Darshan
// runtime in an instrumented run; nil tracers disable I/O instrumentation).
type TracerFactory func(rank int, hostname string) posixio.Tracer

// Cluster is a Dask-style deployment bound to a simulation kernel: one
// scheduler, one client, and WorkersPerNode workers on every platform node.
type Cluster struct {
	cfg    Config
	kernel *sim.Kernel
	plat   *platform.Cluster
	fs     *posixio.FS

	scheduler *Scheduler
	client    *Client
	workers   []*Worker

	schedPlugins  []SchedulerPlugin
	workerPlugins []WorkerPlugin

	// proxy is the pass-by-reference data plane; nil when
	// cfg.ProxyThresholdBytes == 0 (direct transfers only).
	proxy *proxyPlane

	// resumeSeeded tracks blobs SeedResume published whose keys no
	// resubmitted graph has (yet) claimed; whatever remains at run end is an
	// orphan ReleaseResumeOrphans frees.
	resumeSeeded map[TaskKey]bool

	// controlBytes accumulates every byte that crosses the scheduler's
	// control path — control messages, proxy references, and (in direct mode)
	// gathered payloads relayed through the scheduler. The proxy benchmark
	// compares this between data planes.
	controlBytes int64
}

// NewCluster builds the deployment. fs may be nil for workloads that never
// touch storage. tracers may be nil.
func NewCluster(k *sim.Kernel, plat *platform.Cluster, fs *posixio.FS, cfg Config, tracers TracerFactory) *Cluster {
	cfg = cfg.withDefaults()
	c := &Cluster{cfg: cfg, kernel: k, plat: plat, fs: fs}
	if cfg.ProxyThresholdBytes > 0 {
		c.proxy = newProxyPlane(c)
	}
	schedNode := plat.Node(cfg.SchedulerNode % len(plat.Nodes()))
	c.scheduler = newScheduler(c, schedNode)
	c.client = newClient(c, schedNode)
	rank := 0
	for _, node := range plat.Nodes() {
		for i := 0; i < cfg.WorkersPerNode; i++ {
			var tracer posixio.Tracer
			if tracers != nil {
				tracer = tracers(rank, node.Hostname)
			}
			w := newWorker(c, rank, node, tracer)
			c.workers = append(c.workers, w)
			rank++
		}
	}
	c.scheduler.registerWorkers(c.workers)
	return c
}

// Config returns the normalized configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Client returns the cluster's client handle.
func (c *Cluster) Client() *Client { return c.client }

// Workers returns the workers in rank order.
func (c *Cluster) Workers() []*Worker { return c.workers }

// AddSchedulerPlugin attaches a scheduler observer. Must be called before
// Start.
func (c *Cluster) AddSchedulerPlugin(p SchedulerPlugin) {
	c.schedPlugins = append(c.schedPlugins, p)
}

// AddWorkerPlugin attaches a worker observer (shared by all workers). Must
// be called before Start.
func (c *Cluster) AddWorkerPlugin(p WorkerPlugin) {
	c.workerPlugins = append(c.workerPlugins, p)
}

// Start connects workers to the scheduler (staggered, as real workers race
// through job startup) and begins heartbeats and the stealing loop. The
// returned time is when the last worker finished connecting — the moment a
// client blocking on "wait for workers" unblocks.
func (c *Cluster) Start() {
	connect := c.kernel.RNG("dask/connect")
	for _, w := range c.workers {
		w := w
		delay := sim.Seconds(connect.Uniform(0.5, 3.0))
		c.kernel.After(delay, w.start)
	}
	c.scheduler.start()
}

// KillWorker crashes worker rank's process immediately: all its state is
// lost and the scheduler discovers the death through missed heartbeats. The
// entry point used by fault injection.
func (c *Cluster) KillWorker(rank int) {
	c.workers[rank].kill()
}

// RestartWorker boots a fresh process for a previously killed worker; it
// reconnects to the scheduler holding no data.
func (c *Cluster) RestartWorker(rank int) {
	c.workers[rank].restart()
}

// SlowWorker dilates worker rank's compute and I/O service times by factor —
// a brownout: the worker stays alive and keeps heartbeating, it is just
// slow. The entry point used by chaos "slow" directives. The degradation
// models the host, so it survives kill/restart of the worker process.
func (c *Cluster) SlowWorker(rank int, factor float64) {
	if factor < 1 {
		factor = 1
	}
	c.workers[rank].slowFactor = factor
}

// ClearSlowdown restores worker rank to full speed.
func (c *Cluster) ClearSlowdown(rank int) {
	c.workers[rank].slowFactor = 1
}

// SetSpeculationAdvisor installs the straggler advisor the scheduler's
// speculation tick consults (nil keeps the built-in per-prefix quantile
// policy). Must be called before Start.
func (c *Cluster) SetSpeculationAdvisor(adv SpeculationAdvisor) {
	c.scheduler.specAdvisor = adv
}

// control models a small control-plane message between two nodes, invoking
// handle on arrival.
func (c *Cluster) control(from, to *platform.Node, handle func()) {
	c.addControlBytes(c.cfg.ControlMessageBytes)
	c.plat.Transfer(from, to, c.cfg.ControlMessageBytes, handle)
}

// addControlBytes charges n bytes to the scheduler control path.
func (c *Cluster) addControlBytes(n int64) { c.controlBytes += n }

// ControlPathBytes reports the cumulative bytes moved over the scheduler
// control path so far.
func (c *Cluster) ControlPathBytes() int64 { return c.controlBytes }

// workerAddr formats the Dask-style address of a worker.
func workerAddr(hostname string, rank int) string {
	return fmt.Sprintf("tcp://%s:%d", hostname, 40000+rank)
}

// emitSchedTransition fans a scheduler-side transition out to plugins.
func (c *Cluster) emitSchedTransition(t Transition) {
	for _, p := range c.schedPlugins {
		p.SchedulerTransition(t)
	}
}

// emitWorkerTransition fans a worker-side transition out to plugins.
func (c *Cluster) emitWorkerTransition(t Transition) {
	for _, p := range c.workerPlugins {
		p.WorkerTransition(t)
	}
}
