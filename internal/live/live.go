package live

import (
	"fmt"
	"maps"
	"sync"

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
	// chunk is the unit of a topic's ingestion order: chunk events of one
	// partition, then chunk of the next, round-robin — what one Consumer over
	// all partitions with Prefetch chunk hands to Scan, so ReplayBroker
	// produces the same order.
	chunk = 256
)

// Monitor feeds a broker's provenance topics through an Aggregator while the
// run is in flight. It starts nothing: its owner drives it from the owner's
// own clock — a session from virtual time, at every window boundary; mofkad
// from a host ticker. Sweep, Commit and Finish belong to that one goroutine;
// Snapshot and SubscribeAnomalies are safe from any.
//
// Each topic is ingested in one order, chunk by chunk round-robin across its
// partitions, whatever moment a sweep happens at: a sweep takes a chunk only
// once it is whole, and Finish, when nothing more can arrive, takes the
// partial tails in the same rotation. Every order-dependent piece of the
// aggregates is fed by a single topic, so the final Summary is the one
// ReplayBroker's replay of the same broker gives. Topics are attached as they
// appear on the broker. Every anomaly the detectors raise is also emitted
// into the provenance.TopicAnomalies topic, until the broker refuses an
// append (a post-mortem read-only broker does).
type Monitor struct {
	broker *mofka.Broker
	opts   MonitorOptions
	agg    *Aggregator

	feeds     []*feed // per provenance.AllTopics() entry; nil until the topic exists
	emitter   *mofka.Producer
	emitDead  bool
	commitOff bool

	mu   sync.Mutex
	lags map[string]uint64 // "topic/partition" -> events not yet ingested
}

// feed is the monitor's consumer of one topic and its place in the rotation.
type feed struct {
	topic string
	c     *mofka.Consumer
	turn  int      // the partition whose chunk comes next
	next  []uint64 // per partition, one past the last event ingested (0: none)
	bad   bool     // a malformed event was logged for the topic
}

// NewMonitor attaches a monitor to the broker. Drive it with Sweep, and end
// it with Finish once the run is complete.
func NewMonitor(b *mofka.Broker, opts MonitorOptions) *Monitor {
	m := &Monitor{
		broker: b,
		opts:   opts,
		agg:    NewAggregator(AggregatorOptions{}),
		feeds:  make([]*feed, len(provenance.AllTopics())),
		lags:   make(map[string]uint64),
	}
	m.agg.OnAnomaly(m.publish)
	return m
}

// Aggregator exposes the underlying aggregator (for SetMeta).
func (m *Monitor) Aggregator() *Aggregator { return m.agg }

// Snapshot returns the current aggregates plus the monitor's own consumer
// lag: per "topic/partition", the events the broker held at the end of the
// last sweep that the monitor has not ingested (mofka.Consumer.Lag). Zero-lag
// entries are omitted, so a drained monitor reports no lag map at all. Safe
// to call concurrently with a sweep.
func (m *Monitor) Snapshot() Summary {
	s := m.agg.Snapshot()
	m.mu.Lock()
	if len(m.lags) > 0 {
		s.ConsumerLag = maps.Clone(m.lags)
	}
	m.mu.Unlock()
	return s
}

// recordLag samples one consumer's lag; only the map is shared.
func (m *Monitor) recordLag(f *feed) {
	lag := f.c.Lag()
	m.mu.Lock()
	for part, n := range lag {
		key := fmt.Sprintf("%s/%d", f.topic, part)
		if n == 0 {
			delete(m.lags, key)
		} else {
			m.lags[key] = n
		}
	}
	m.mu.Unlock()
}

// SubscribeAnomalies returns a channel carrying every anomaly raised from
// now on, and the function that ends the subscription. The channel is
// buffered; slow receivers lose anomalies rather than stalling ingestion.
func (m *Monitor) SubscribeAnomalies() (<-chan Anomaly, func()) { return m.agg.SubscribeAnomalies() }

func (m *Monitor) logf(format string, args ...any) {
	if m.opts.Logf != nil {
		m.opts.Logf(format, args...)
	}
}

// publish is the aggregator's anomaly callback, run by the ingesting owner:
// emit into the anomalies topic (snapshot/SSE delivery happens via the
// aggregator itself).
func (m *Monitor) publish(a Anomaly) {
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

// feed returns (attaching lazily) the feed of the i-th provenance topic, or
// nil while the topic does not exist yet.
func (m *Monitor) feed(i int, topic string) *feed {
	if f := m.feeds[i]; f != nil {
		return f
	}
	t, err := m.broker.OpenTopic(topic)
	if err != nil {
		return nil // not created yet
	}
	c, err := t.NewConsumer(mofka.ConsumerOptions{
		Name:          consumerName,
		NoData:        true,
		FromCommitted: true,
		Prefetch:      chunk,
	})
	if err != nil {
		m.logf("live: subscribe %s: %v", topic, err)
		return nil
	}
	m.feeds[i] = &feed{topic: topic, c: c, next: make([]uint64, t.Partitions())}
	return m.feeds[i]
}

// ingest feeds one event. One that does not decode is skipped, not fatal: it
// is logged once per topic, and the cursor still moves past it.
func (m *Monitor) ingest(f *feed, part int, id uint64, metadata []byte) {
	if err := ingest(m.agg, f.topic, part, id, metadata); err != nil && !f.bad {
		f.bad = true
		m.logf("%v (skipped, with any later one on this topic)", err)
	}
	f.next[part] = id + 1
}

// Sweep ingests what each topic's rotation can take now: the next chunk, as
// long as it is whole. It returns the number of events ingested. Whatever a
// partition's visible length depends on must be settled by the caller; a
// session waits for its producers' shipped batches to commit first.
func (m *Monitor) Sweep() int {
	total := 0
	for i, topic := range provenance.AllTopics() {
		f := m.feed(i, topic)
		if f == nil {
			continue
		}
		lag := f.c.Lag()
		for lag[f.turn] >= chunk {
			// A whole chunk is next, so the consumer's own round-robin reads
			// exactly it. Private copies: a broker that other processes
			// append to keeps appending while these decode.
			evs, err := f.c.PullBatch(chunk)
			if err != nil {
				m.logf("live: pull %s: %v", topic, err)
				break
			}
			for _, ev := range evs {
				m.ingest(f, ev.Partition, ev.ID, ev.Metadata)
			}
			total += len(evs)
			lag[f.turn] -= chunk
			f.turn = (f.turn + 1) % len(f.next)
		}
		m.recordLag(f)
	}
	return total
}

// drain ingests everything left, partial chunks included, in the rotation
// Sweep follows: the end of the run's order, once nothing more can arrive.
func (m *Monitor) drain() {
	for i, topic := range provenance.AllTopics() {
		f := m.feed(i, topic)
		if f == nil {
			continue
		}
		err := f.c.Scan(func(part int, id uint64, metadata []byte) error {
			m.ingest(f, part, id, metadata)
			return nil
		})
		if err != nil {
			m.logf("live: pull %s: %v", topic, err)
		}
		m.recordLag(f)
	}
}

// Commit records the monitor's cursors — every event ingested so far — with
// one cursor-store write per topic, until a commit fails.
func (m *Monitor) Commit() {
	for _, f := range m.feeds {
		if f == nil || m.commitOff {
			continue
		}
		var last []mofka.Event
		for part, next := range f.next {
			if next > 0 {
				last = append(last, mofka.Event{Partition: part, ID: next - 1})
			}
		}
		if err := f.c.CommitBatch(last); err != nil {
			m.commitOff = true
			m.logf("live: cursor commits disabled: %v", err)
		}
	}
}

// Finish completes monitoring for a finished run: every remaining event is
// ingested, the cursors are committed, the run's Darshan logs are folded in,
// the anomalies raised are flushed to their topic, the wall time is set, and
// the final Summary — the one the equivalence invariant holds for — is
// returned.
func (m *Monitor) Finish(logs []*darshan.Log, wallSeconds float64) Summary {
	m.drain()
	m.Commit()
	for _, l := range logs {
		m.agg.IngestDarshanLog(l)
	}
	if m.emitter != nil {
		if err := m.emitter.Flush(); err != nil {
			m.logf("live: anomaly emission: %v", err)
		}
	}
	m.agg.SetWall(wallSeconds)
	return m.agg.Snapshot()
}
