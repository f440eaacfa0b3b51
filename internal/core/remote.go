package core

import (
	"fmt"
	"sync"

	"taskprov/internal/dask"
	"taskprov/internal/mofka"
	"taskprov/internal/provenance"
	"taskprov/internal/sim"
)

// RemoteCollector streams provenance events to a Mofka broker reached over
// Mercury RPC (typically a cmd/mofkad daemon on another node) instead of an
// in-process broker — the deployment where analysis consumers run remotely
// while the workflow executes. It batches client-side like the in-process
// producer.
type RemoteCollector struct {
	remote *mofka.Remote

	mu      sync.Mutex
	batch   map[string][][]byte // topic -> pending metadata
	size    int
	rr      map[string]int
	nparts  map[string]int
	pushed  int64
	flushes int64
}

// NewRemoteCollector creates the provenance topics on the remote broker and
// returns a collector batching up to batchSize events per topic.
func NewRemoteCollector(remote *mofka.Remote, batchSize int) (*RemoteCollector, error) {
	if batchSize <= 0 {
		batchSize = 64
	}
	c := &RemoteCollector{
		remote: remote,
		batch:  make(map[string][][]byte),
		size:   batchSize,
		rr:     make(map[string]int),
		nparts: make(map[string]int),
	}
	for _, name := range AllTopics() {
		if err := remote.CreateTopic(mofka.TopicConfig{Name: name, Partitions: 2}); err != nil {
			return nil, fmt.Errorf("core: remote topic %s: %w", name, err)
		}
		parts, _, err := remote.TopicInfo(name)
		if err != nil {
			return nil, err
		}
		c.nparts[name] = parts
	}
	return c, nil
}

// push queues one event's encoded metadata; the batch keeps the slice.
func (c *RemoteCollector) push(topic string, metadata []byte) {
	c.mu.Lock()
	c.batch[topic] = append(c.batch[topic], metadata)
	c.pushed++
	full := len(c.batch[topic]) >= c.size
	var metas [][]byte
	if full {
		metas = c.batch[topic]
		c.batch[topic] = nil
	}
	c.mu.Unlock()
	if full {
		c.ship(topic, metas)
	}
}

func (c *RemoteCollector) ship(topic string, metas [][]byte) {
	if len(metas) == 0 {
		return
	}
	c.mu.Lock()
	part := c.rr[topic] % c.nparts[topic]
	c.rr[topic]++
	c.flushes++
	c.mu.Unlock()
	datas := make([][]byte, len(metas))
	if err := c.remote.PushBatch(topic, part, metas, datas); err != nil {
		// The remote broker vanished mid-run; provenance loss is reported
		// loudly but must not kill the workflow.
		fmt.Printf("core: remote collector: push to %s failed: %v\n", topic, err)
	}
}

// Flush ships every pending batch.
func (c *RemoteCollector) Flush() {
	c.mu.Lock()
	pending := make(map[string][][]byte, len(c.batch))
	for t, m := range c.batch {
		if len(m) > 0 {
			pending[t] = m
			c.batch[t] = nil
		}
	}
	c.mu.Unlock()
	for t, m := range pending {
		c.ship(t, m)
	}
}

// Stats reports events pushed and batches shipped.
func (c *RemoteCollector) Stats() (pushed, flushes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pushed, c.flushes
}

// SchedulerPlugin returns the dask.SchedulerPlugin streaming to the remote.
func (c *RemoteCollector) SchedulerPlugin() dask.SchedulerPlugin { return &remoteSchedPlugin{c} }

// WorkerPlugin returns the dask.WorkerPlugin streaming to the remote.
func (c *RemoteCollector) WorkerPlugin() dask.WorkerPlugin { return &remoteWorkerPlugin{c} }

type remoteSchedPlugin struct{ c *RemoteCollector }

func (p *remoteSchedPlugin) TaskAdded(m dask.TaskMeta) {
	p.c.push(TopicTaskMeta, provenance.AppendTaskMeta(nil, m))
}
func (p *remoteSchedPlugin) SchedulerTransition(t dask.Transition) {
	p.c.push(TopicTransitions, provenance.AppendTransition(nil, t))
}
func (p *remoteSchedPlugin) GraphDone(id int, at sim.Time) {
	p.c.push(TopicGraphs, provenance.AppendGraphEvent(nil, graphDone(id, at)))
}
func (p *remoteSchedPlugin) Stolen(ev dask.StealEvent) {
	p.c.push(TopicSteals, provenance.AppendSteal(nil, ev))
}
func (p *remoteSchedPlugin) Speculation(ev dask.SpeculationEvent) {
	p.c.push(TopicSpeculation, provenance.AppendSpeculation(nil, ev))
}

type remoteWorkerPlugin struct{ c *RemoteCollector }

func (p *remoteWorkerPlugin) WorkerTransition(t dask.Transition) {
	p.c.push(TopicTransitions, provenance.AppendTransition(nil, t))
}
func (p *remoteWorkerPlugin) TaskExecuted(rec dask.TaskExecution) {
	p.c.push(TopicExecutions, provenance.AppendExecution(nil, rec))
}
func (p *remoteWorkerPlugin) TransferReceived(rec dask.Transfer) {
	p.c.push(TopicTransfers, provenance.AppendTransfer(nil, rec))
}
func (p *remoteWorkerPlugin) WorkerWarning(w dask.Warning) {
	p.c.push(TopicWarnings, provenance.AppendWarning(nil, w))
}
func (p *remoteWorkerPlugin) Heartbeat(m dask.WorkerMetrics) {
	p.c.push(TopicHeartbeats, provenance.AppendHeartbeat(nil, m))
}
func (p *remoteWorkerPlugin) ProxyEvent(ev dask.ProxyEvent) {
	p.c.push(TopicProxy, provenance.AppendProxyEvent(nil, ev))
}
