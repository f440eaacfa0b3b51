package live

import (
	"fmt"
	"sync"
	"time"

	"taskprov/internal/darshan"
	"taskprov/internal/mofka"
	"taskprov/internal/provenance"
)

// MonitorOptions configures a Monitor.
type MonitorOptions struct {
	// Logf, when set, receives one-line operational notices (emission
	// disabled, commit failures).
	Logf func(format string, args ...any)
}

const (
	// consumerName names the monitor's consumer group for cursor commits; on
	// a durable broker a restarted monitor resumes where it left off.
	consumerName = "live-monitor"
	// pollInterval is the idle sleep between pull sweeps.
	pollInterval = 10 * time.Millisecond
	// pullBatch is the per-topic pull granularity. Cursors are committed once
	// per topic per sweep (Consumer.CommitBatch), however many batches the
	// sweep pulled.
	pullBatch = 256
)

// Monitor attaches a consumer group to a broker's provenance topics and
// streams them through an Aggregator while the run is in flight. One
// background goroutine sweeps all topics; topics are attached lazily as they
// appear on the broker, so the monitor may be started before the collector
// creates them. Every anomaly the detectors raise is also emitted into the
// provenance.TopicAnomalies topic, until the broker refuses an append (a
// post-mortem read-only broker does); every sweep commits the monitor's
// cursors, until a commit fails.
type Monitor struct {
	broker *mofka.Broker
	opts   MonitorOptions
	agg    *Aggregator

	mu        sync.Mutex
	consumers map[string]*mofka.Consumer
	lags      map[string]uint64 // "topic/partition" -> events not yet ingested
	emitter   *mofka.Producer
	emitDead  bool
	commitOff bool
	// badTopics holds the topics a skipped malformed event was already
	// logged for. Only the sweeping goroutine touches it.
	badTopics map[string]bool

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewMonitor starts monitoring the broker. The returned monitor is already
// running; call Finish (complete runs) or Stop (abandon) exactly once.
func NewMonitor(b *mofka.Broker, opts MonitorOptions) *Monitor {
	m := &Monitor{
		broker:    b,
		opts:      opts,
		agg:       NewAggregator(AggregatorOptions{}),
		consumers: make(map[string]*mofka.Consumer),
		lags:      make(map[string]uint64),
		badTopics: make(map[string]bool),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	m.agg.OnAnomaly(m.publish)
	go m.loop()
	return m
}

// Aggregator exposes the underlying aggregator (for SetMeta and direct
// ingestion of side-channel sources like streamed I/O segments).
func (m *Monitor) Aggregator() *Aggregator { return m.agg }

// Snapshot returns the current aggregates plus the monitor's own consumer
// lag; safe to call concurrently with the pull loop.
func (m *Monitor) Snapshot() Summary {
	s := m.agg.Snapshot()
	s.ConsumerLag = m.ConsumerLag()
	return s
}

// ConsumerLag reports, per "topic/partition", how many events the broker
// holds that the monitor has not ingested yet (mofka.Consumer.Lag sampled
// at the end of each sweep). Zero-lag entries are omitted — so a completed
// run's fully-drained Finish Summary carries no lag map at all and stays
// byte-identical to a post-mortem replay's.
func (m *Monitor) ConsumerLag() map[string]uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.lags) == 0 {
		return nil
	}
	out := make(map[string]uint64, len(m.lags))
	for k, v := range m.lags {
		out[k] = v
	}
	return out
}

// recordLag samples one consumer's lag. Called from the sweep goroutine
// (the consumer handle is single-goroutine); only the map is shared.
func (m *Monitor) recordLag(topic string, c *mofka.Consumer) {
	lag := c.Lag()
	m.mu.Lock()
	for part, n := range lag {
		key := fmt.Sprintf("%s/%d", topic, part)
		if n == 0 {
			delete(m.lags, key)
		} else {
			m.lags[key] = n
		}
	}
	m.mu.Unlock()
}

// SubscribeAnomalies returns a channel carrying every anomaly raised from
// now on. The channel is buffered; slow receivers lose anomalies rather
// than stalling ingestion.
func (m *Monitor) SubscribeAnomalies() <-chan Anomaly { return m.agg.SubscribeAnomalies() }

func (m *Monitor) logf(format string, args ...any) {
	if m.opts.Logf != nil {
		m.opts.Logf(format, args...)
	}
}

// publish is the aggregator's anomaly callback: emit into the anomalies
// topic (snapshot/SSE delivery happens via the aggregator itself).
func (m *Monitor) publish(a Anomaly) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.emitDead {
		return
	}
	if m.emitter == nil {
		t, err := m.broker.OpenOrCreateTopic(mofka.TopicConfig{Name: provenance.TopicAnomalies, Partitions: 1})
		if err != nil {
			m.emitDead = true
			m.logf("live: anomaly emission disabled: %v", err)
			return
		}
		m.emitter = t.NewProducer(mofka.ProducerOptions{BatchSize: 1})
	}
	if err := m.emitter.PushRaw(a.appendEvent(nil), nil); err != nil {
		m.emitDead = true
		m.logf("live: anomaly emission disabled: %v", err)
	}
}

// consumer returns (creating lazily) the consumer for one provenance topic,
// or nil while the topic does not exist yet.
func (m *Monitor) consumer(topic string) *mofka.Consumer {
	m.mu.Lock()
	defer m.mu.Unlock()
	if c, ok := m.consumers[topic]; ok {
		return c
	}
	t, err := m.broker.OpenTopic(topic)
	if err != nil {
		return nil // not created yet
	}
	c, err := t.NewConsumer(mofka.ConsumerOptions{
		Name:          consumerName,
		NoData:        true,
		FromCommitted: true,
		Prefetch:      pullBatch,
	})
	if err != nil {
		m.logf("live: subscribe %s: %v", topic, err)
		return nil
	}
	m.consumers[topic] = c
	return c
}

// sweep pulls everything unread from every attached topic, batch by batch,
// and commits each topic's cursors once, after its events were ingested: a
// commit on a durable broker is an fsynced rewrite of the cursor store, which
// queues on the same journal as the log's own fsyncs. It returns the number
// of events ingested.
func (m *Monitor) sweep() int {
	total := 0
	var newest []mofka.Event // per partition of the topic, the last event ingested
	for _, topic := range provenance.AllTopics() {
		c := m.consumer(topic)
		if c == nil {
			continue
		}
		newest = newest[:0]
		for {
			// Private copies, not Consumer.Scan's lent bytes: decoding under
			// the collection's read lock held the run's appender up four to
			// five times longer (EXPERIMENTS.md, "Read-path host cost").
			evs, err := c.PullBatch(pullBatch)
			if err != nil {
				m.logf("live: pull %s: %v", topic, err)
				break
			}
			if len(evs) == 0 {
				break
			}
			total += len(evs)
			for _, ev := range evs {
				// An event that does not decode is skipped, not fatal: the
				// cursor still moves past it with the rest of the batch.
				if err := ingest(m.agg, topic, ev.Partition, ev.ID, ev.Metadata); err != nil && !m.badTopics[topic] {
					m.badTopics[topic] = true
					m.logf("%v (skipped, with any later one on this topic)", err)
				}
				i := 0
				for i < len(newest) && newest[i].Partition != ev.Partition {
					i++
				}
				if i == len(newest) {
					newest = append(newest, ev)
				} else {
					newest[i] = ev
				}
			}
			if len(evs) < pullBatch {
				break
			}
		}
		if !m.commitOff {
			if err := c.CommitBatch(newest); err != nil {
				m.commitOff = true
				m.logf("live: cursor commits disabled: %v", err)
			}
		}
		m.recordLag(topic, c)
	}
	return total
}

func (m *Monitor) loop() {
	defer close(m.done)
	for {
		n := m.sweep()
		select {
		case <-m.stop:
			return
		default:
		}
		if m.broker.IsClosed() && n == 0 {
			// Broker closed and everything published before the close has
			// been consumed: nothing more can arrive.
			return
		}
		if n == 0 {
			select {
			case <-m.stop:
				return
			case <-time.After(pollInterval):
			}
		}
	}
}

// Stop halts the pull loop without draining. Idempotent.
func (m *Monitor) Stop() {
	m.stopOnce.Do(func() { close(m.stop) })
	<-m.done
}

// Finish completes monitoring for a finished run: the pull loop is stopped,
// every remaining event is drained, the run's Darshan logs are folded in,
// the wall time is set, and the final Summary — the one the equivalence
// invariant holds for — is returned.
func (m *Monitor) Finish(logs []*darshan.Log, wallSeconds float64) Summary {
	m.Stop()
	for m.sweep() > 0 {
	}
	m.mu.Lock()
	emitter := m.emitter
	m.mu.Unlock()
	if emitter != nil {
		// The last anomalies raised are in the topic when Finish returns.
		if err := emitter.Flush(); err != nil {
			m.logf("live: anomaly emission: %v", err)
		}
	}
	for _, l := range logs {
		m.agg.IngestDarshanLog(l)
	}
	m.agg.SetWall(wallSeconds)
	return m.agg.Snapshot()
}

// String identifies the monitor in logs.
func (m *Monitor) String() string {
	return fmt.Sprintf("live.Monitor(%s)", consumerName)
}
