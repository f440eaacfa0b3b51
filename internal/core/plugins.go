package core

import (
	"errors"
	"fmt"

	"taskprov/internal/dask"
	"taskprov/internal/mofka"
	"taskprov/internal/provenance"
	"taskprov/internal/sim"
)

// Collector owns the Mofka producers the provenance plugins publish
// through. One Collector instruments one run; its plugins attach to the
// dask.Cluster before Start.
//
// The paper's design goal — "track the detailed lineage and execution
// history of individual tasks without perturbing the workflow system" — maps
// to plugins that only serialize and enqueue; batching and persistence
// happen inside Mofka.
type Collector struct {
	producers map[string]*mofka.Producer

	// Counters for quick sanity checks and overhead ablations.
	events map[string]int64

	// buf is the one buffer every event is encoded into: the plugins run on
	// the simulation goroutine only, and the producer copies what it is
	// handed before push returns.
	buf []byte

	// clock timestamps degraded-mode warnings with virtual time; nil means
	// zero timestamps (standalone collectors outside a simulation).
	clock func() sim.Time
	// degradedSince tracks, per topic, when its producer entered degraded
	// mode. The collector runs on the simulation goroutine, so no lock.
	degradedSince map[string]sim.Time
	// droppedReported is, per topic, how many of its producer's dropped
	// events earlier recovery warnings already accounted for.
	droppedReported map[string]uint64
}

// NewCollector creates the topics (2 partitions each, as a small Mofka
// deployment would) and producers on the given log — a session's own bus,
// a standalone broker or a sharded, replicated cluster. Producers
// report degraded episodes (log unreachable, events buffering) back through
// the collector, which records them on the warnings topic as
// producer_degraded events.
func NewCollector(log mofka.TopicOpener, opts mofka.ProducerOptions) (*Collector, error) {
	c := &Collector{
		producers:       make(map[string]*mofka.Producer),
		events:          make(map[string]int64),
		degradedSince:   make(map[string]sim.Time),
		droppedReported: make(map[string]uint64),
	}
	for _, name := range provenance.AllTopics() {
		t, err := log.EnsureTopic(mofka.TopicConfig{Name: name, Partitions: 2})
		if err != nil {
			return nil, fmt.Errorf("core: create topic %s: %w", name, err)
		}
		topicOpts := opts
		topic := name
		topicOpts.OnDegraded = func(err error) { c.producerDegraded(topic, err) }
		topicOpts.OnRecovered = func() { c.producerRecovered(topic) }
		c.producers[name] = t.NewProducer(topicOpts)
	}
	return c, nil
}

// SetClock injects the virtual-time source used to timestamp degraded-mode
// warnings.
func (c *Collector) SetClock(clock func() sim.Time) { c.clock = clock }

func (c *Collector) now() sim.Time {
	if c.clock == nil {
		return 0
	}
	return c.clock()
}

// producerDegraded and producerRecovered are the producer resilience hooks:
// both episodes land on the warnings topic, so a degraded provenance
// pipeline documents its own gap — including how many events the bounded
// backlog had to drop during it. The warnings producer buffers too, so
// these events survive even when the broker is the thing that failed.
func (c *Collector) producerDegraded(topic string, err error) {
	at := c.now()
	c.degradedSince[topic] = at
	c.pushWarning(dask.Warning{
		Kind: dask.WarnProducerDegraded, Worker: "collector/" + topic, At: at,
		Message: fmt.Sprintf("producer for topic %s degraded (buffering): %v", topic, err),
	})
}

func (c *Collector) producerRecovered(topic string) {
	at := c.now()
	since, ok := c.degradedSince[topic]
	if !ok {
		since = at
	}
	delete(c.degradedSince, topic)
	msg := fmt.Sprintf("producer for topic %s recovered after %v", topic, at-since)
	total := c.producers[topic].Dropped()
	if n := total - c.droppedReported[topic]; n > 0 {
		msg += fmt.Sprintf("; dropped=%d", n)
		c.droppedReported[topic] = total
	}
	c.pushWarning(dask.Warning{
		Kind: dask.WarnProducerDegraded, Worker: "collector/" + topic, At: at,
		Duration: at - since, Message: msg,
	})
}

func (c *Collector) pushWarning(w dask.Warning) {
	c.push(provenance.TopicWarnings, provenance.AppendWarning(c.buf[:0], w))
}

func (c *Collector) pushSpeculation(ev dask.SpeculationEvent) {
	c.push(provenance.TopicSpeculation, provenance.AppendSpeculation(c.buf[:0], ev))
}

// push publishes one event, encoded into c.buf by its caller. Structural
// failures (invalid event, missing partition, closed broker) panic — they
// indicate a broken in-process pipeline. Transient append failures do not:
// the producer keeps the batch buffered and retries, and the degraded-mode
// hooks document the episode.
func (c *Collector) push(topic string, metadata []byte) {
	c.buf = metadata // keep what the encoder grew
	c.events[topic]++
	err := c.producers[topic].PushRaw(metadata, nil)
	if err == nil {
		return
	}
	if errors.Is(err, mofka.ErrInvalidEvent) || errors.Is(err, mofka.ErrNoPartition) || errors.Is(err, mofka.ErrClosed) {
		panic(fmt.Sprintf("core: push to %s: %v", topic, err))
	}
}

// Flush ships all pending producer batches (call at end of run), topic by
// topic in AllTopics order and the warnings topic once more at the end: a
// producer whose backlog drains here reports its recovery there, and what a
// session stores must not depend on the order a map is ranged in.
func (c *Collector) Flush() error {
	for _, name := range append(provenance.AllTopics(), provenance.TopicWarnings) {
		if err := c.producers[name].Flush(); err != nil {
			return fmt.Errorf("core: flush %s: %w", name, err)
		}
	}
	return nil
}

// EventCount reports how many events were pushed to a topic.
func (c *Collector) EventCount(topic string) int64 { return c.events[topic] }

// TotalEvents reports the number of events pushed across all topics.
func (c *Collector) TotalEvents() int64 {
	var n int64
	for _, v := range c.events {
		n += v
	}
	return n
}

// SchedulerPlugin returns the dask.SchedulerPlugin that streams scheduler
// events into Mofka.
func (c *Collector) SchedulerPlugin() dask.SchedulerPlugin { return &schedPlugin{c} }

// WorkerPlugin returns the dask.WorkerPlugin that streams worker events
// into Mofka.
func (c *Collector) WorkerPlugin() dask.WorkerPlugin { return &workerPlugin{c} }

// graphDone is the graph-events record of a graph completion.
func graphDone(id int, at sim.Time) provenance.GraphEvent {
	return provenance.GraphEvent{GraphID: id, Event: provenance.GraphDone, At: at.Seconds()}
}

type schedPlugin struct{ c *Collector }

func (p *schedPlugin) TaskAdded(m dask.TaskMeta) {
	p.c.push(provenance.TopicTaskMeta, provenance.AppendTaskMeta(p.c.buf[:0], m))
}
func (p *schedPlugin) SchedulerTransition(t dask.Transition) {
	p.c.push(provenance.TopicTransitions, provenance.AppendTransition(p.c.buf[:0], t))
}
func (p *schedPlugin) GraphDone(id int, at sim.Time) {
	p.c.push(provenance.TopicGraphs, provenance.AppendGraphEvent(p.c.buf[:0], graphDone(id, at)))
}
func (p *schedPlugin) Stolen(ev dask.StealEvent) {
	p.c.push(provenance.TopicSteals, provenance.AppendSteal(p.c.buf[:0], ev))
}
func (p *schedPlugin) Speculation(ev dask.SpeculationEvent) { p.c.pushSpeculation(ev) }

type workerPlugin struct{ c *Collector }

func (p *workerPlugin) WorkerTransition(t dask.Transition) {
	p.c.push(provenance.TopicTransitions, provenance.AppendTransition(p.c.buf[:0], t))
}
func (p *workerPlugin) TaskExecuted(rec dask.TaskExecution) {
	p.c.push(provenance.TopicExecutions, provenance.AppendExecution(p.c.buf[:0], rec))
}
func (p *workerPlugin) TransferReceived(rec dask.Transfer) {
	p.c.push(provenance.TopicTransfers, provenance.AppendTransfer(p.c.buf[:0], rec))
}
func (p *workerPlugin) WorkerWarning(w dask.Warning) { p.c.pushWarning(w) }
func (p *workerPlugin) Heartbeat(m dask.WorkerMetrics) {
	p.c.push(provenance.TopicHeartbeats, provenance.AppendHeartbeat(p.c.buf[:0], m))
}
func (p *workerPlugin) ProxyEvent(ev dask.ProxyEvent) {
	p.c.push(provenance.TopicProxy, provenance.AppendProxyEvent(p.c.buf[:0], ev))
}
