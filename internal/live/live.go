package live

import (
	"fmt"
	"maps"
	"sync"

	"taskprov/internal/darshan"
	"taskprov/internal/mofka"
	"taskprov/internal/provenance"
)

// chunk is the unit of a topic's ingestion order: chunk events of one
// partition, then chunk of the next, round-robin (mofka.Topic.ChunksFrom),
// which ReplayTopics reads too.
const chunk = 256

// Monitor feeds a broker's provenance topics through an Aggregator while the
// run is in flight. It starts nothing: its owner drives it from the owner's
// own clock — a session from virtual time, at every window boundary. Sweep
// and Finish belong to that one goroutine; Snapshot and SubscribeAnomalies
// are safe from any.
//
// Each topic is ingested in one order from its first event,
// mofka.Topic.ChunksFrom's with chunk events per turn, whatever moment a
// sweep happens at: a sweep takes the order's leading chunks that are whole,
// and Finish, when nothing more can arrive, takes the rest, partial tails
// included. Both hand them to the chunk path ReplayTopics feeds, so the
// final Summary is the one ReplayBroker's replay of the same broker gives.
// Topics are attached as they appear on the broker. Every anomaly the detectors raise is also emitted
// into the provenance.TopicAnomalies topic, until the broker refuses an
// append (a post-mortem read-only broker does).
type Monitor struct {
	broker *mofka.Broker
	agg    *Aggregator

	feeds    []*feed // per provenance.AllTopics() entry; nil until the topic exists
	emitter  *mofka.Producer
	emitDead bool
	// took, when set, sees every chunk the monitor hands to the aggregator,
	// in order.
	took func(topic string, c mofka.Chunk)

	mu   sync.Mutex
	lags map[string]uint64 // "topic/partition" -> events not yet ingested
}

// feed is the monitor's place in one topic's order.
type feed struct {
	t    *mofka.Topic
	r    chunkReader
	next []uint64 // per partition, the next offset to ingest
	turn int      // the partition whose chunk comes next
	keys []string // per partition, its "topic/partition" lag key
}

// NewMonitor attaches a monitor to the broker. Drive it with Sweep, and end
// it with Finish once the run is complete.
func NewMonitor(b *mofka.Broker) *Monitor {
	m := &Monitor{
		broker: b,
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
// last sweep that the monitor has not ingested (the partition's length less
// the monitor's next offset). Zero-lag entries are omitted, so a drained
// monitor reports no lag map at all. Safe to call concurrently with a sweep.
func (m *Monitor) Snapshot() Summary {
	s := m.agg.Snapshot()
	m.mu.Lock()
	if len(m.lags) > 0 {
		s.ConsumerLag = maps.Clone(m.lags)
	}
	m.mu.Unlock()
	return s
}

// recordLag samples one topic's lag; only the map is shared.
func (m *Monitor) recordLag(f *feed) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for part, next := range f.next {
		p, _ := f.t.Partition(part)
		if length := p.Length(); length > next {
			m.lags[f.keys[part]] = length - next
		} else {
			delete(m.lags, f.keys[part])
		}
	}
}

// SubscribeAnomalies returns a channel carrying every anomaly raised from
// now on, and the function that ends the subscription. The channel is
// buffered; slow receivers lose anomalies rather than stalling ingestion.
func (m *Monitor) SubscribeAnomalies() (<-chan Anomaly, func()) { return m.agg.SubscribeAnomalies() }

// publish is the aggregator's anomaly callback, run by the ingesting owner:
// emit into the anomalies topic (snapshot/SSE delivery happens via the
// aggregator itself) until the broker refuses an append; the aggregator
// keeps every anomaly either way.
func (m *Monitor) publish(a Anomaly) {
	if m.emitDead {
		return
	}
	if m.emitter == nil {
		t, err := m.broker.OpenOrCreateTopic(mofka.TopicConfig{Name: provenance.TopicAnomalies, Partitions: 1})
		if err != nil {
			m.emitDead = true
			return
		}
		m.emitter = t.NewProducer(mofka.ProducerOptions{BatchSize: 1})
	}
	if err := m.emitter.PushRaw(a.appendEvent(nil), nil); err != nil {
		m.emitDead = true
	}
}

// feed returns (attaching lazily) the feed of the i-th provenance topic, or
// nil while the topic does not exist yet. It starts at every partition's
// first event, with partition 0 up next.
func (m *Monitor) feed(i int, topic string) *feed {
	if f := m.feeds[i]; f != nil {
		return f
	}
	t, err := m.broker.OpenTopic(topic)
	if err != nil {
		return nil // not created yet
	}
	f := &feed{t: t, r: readerOf(topic), next: make([]uint64, t.Partitions()), keys: make([]string, t.Partitions())}
	for p := range f.keys {
		f.keys[p] = fmt.Sprintf("%s/%d", topic, p)
	}
	m.feeds[i] = f
	return f
}

// take hands f's order from where the feed stands to the aggregator — only
// its leading whole chunks, each of the partition whose turn it is, when
// whole is set — and returns the number of events taken. An event that does
// not decode is skipped, not fatal: the feed moves past it.
func (m *Monitor) take(f *feed, whole bool) int {
	chunks := f.t.ChunksFrom(f.next, f.turn, chunk)
	if whole {
		n := 0
		for n < len(chunks) && chunks[n].N == chunk && chunks[n].Part == (f.turn+n)%len(f.next) {
			n++
		}
		chunks = chunks[:n]
	}
	_ = f.r.chunks(m.agg, f.t, chunks) // the chunk path skips what it cannot decode
	events := 0
	for _, c := range chunks {
		if m.took != nil {
			m.took(f.t.Config().Name, c)
		}
		f.next[c.Part] = c.From + uint64(c.N)
		f.turn = (c.Part + 1) % len(f.next)
		events += c.N
	}
	m.recordLag(f)
	return events
}

// Sweep ingests what each topic's order can take now: its leading chunks, as
// long as they are whole. It returns the number of events ingested. Whatever
// a partition's visible length depends on must be settled by the caller; a
// session waits for its producers' shipped batches to commit first.
func (m *Monitor) Sweep() int {
	total := 0
	for i, topic := range provenance.AllTopics() {
		if f := m.feed(i, topic); f != nil {
			total += m.take(f, true)
		}
	}
	return total
}

// Finish completes monitoring for a finished run: every remaining event is
// ingested, the run's Darshan logs are folded in, the anomalies raised are
// flushed to their topic, the wall time is set, and the final Summary — the
// one the equivalence invariant holds for — is returned.
func (m *Monitor) Finish(logs []*darshan.Log, wallSeconds float64) Summary {
	for i, topic := range provenance.AllTopics() {
		if f := m.feed(i, topic); f != nil {
			m.take(f, false)
		}
	}
	for _, l := range logs {
		m.agg.IngestDarshanLog(l)
	}
	if m.emitter != nil {
		_ = m.emitter.Flush() // a refused flush loses the topic's copy only
	}
	m.agg.SetWall(wallSeconds)
	return m.Snapshot() // the tails are taken: no lag is left to report
}
