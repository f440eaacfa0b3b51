package provenance

import (
	"fmt"
	"sync"
	"unsafe"
	"weak"

	"taskprov/internal/dask"
	"taskprov/internal/mofka"
)

// Records is a broker's provenance stream as typed records, one accessor per
// topic, every topic decoded through one shared Decoder. A decoded topic is
// served again while its event count is unchanged and some caller still
// holds it: Records holds it weakly, so records nobody reads any more cost
// no memory, and the next call after the count changed or the collector
// reclaimed them decodes the topic afresh. Records is safe for concurrent
// use.
//
// The returned slices are shared by every caller and read-only: copy one
// before sorting or editing it. Their capacity is their length, so an append
// copies.
type Records struct {
	broker *mofka.Broker

	mu          sync.Mutex
	dec         Decoder
	taskMeta    decoded[dask.TaskMeta]
	transitions decoded[dask.Transition]
	executions  decoded[dask.TaskExecution]
	transfers   decoded[dask.Transfer]
	warnings    decoded[dask.Warning]
	heartbeats  decoded[dask.WorkerMetrics]
	steals      decoded[dask.StealEvent]
	graphs      decoded[GraphEvent]
	proxy       decoded[dask.ProxyEvent]
	speculation decoded[dask.SpeculationEvent]
}

// decoded is one topic's records, weakly (their first element and length),
// and the event count they were decoded at.
type decoded[T any] struct {
	first  weak.Pointer[T]
	n      int
	events uint64
}

// NewRecords serves b's topics; nothing is decoded until asked for.
func NewRecords(b *mofka.Broker) *Records { return &Records{broker: b} }

// The accessors; a topic the broker lacks is mofka.ErrNoTopic.

func (r *Records) TaskMeta() ([]dask.TaskMeta, error) {
	return read(r, &r.taskMeta, TopicTaskMeta, (*Decoder).TaskMeta)
}
func (r *Records) Transitions() ([]dask.Transition, error) {
	return read(r, &r.transitions, TopicTransitions, (*Decoder).Transition)
}
func (r *Records) Executions() ([]dask.TaskExecution, error) {
	return read(r, &r.executions, TopicExecutions, (*Decoder).Execution)
}
func (r *Records) Transfers() ([]dask.Transfer, error) {
	return read(r, &r.transfers, TopicTransfers, (*Decoder).Transfer)
}
func (r *Records) Warnings() ([]dask.Warning, error) {
	return read(r, &r.warnings, TopicWarnings, (*Decoder).Warning)
}
func (r *Records) Heartbeats() ([]dask.WorkerMetrics, error) {
	return read(r, &r.heartbeats, TopicHeartbeats, (*Decoder).Heartbeat)
}
func (r *Records) Steals() ([]dask.StealEvent, error) {
	return read(r, &r.steals, TopicSteals, (*Decoder).Steal)
}
func (r *Records) Graphs() ([]GraphEvent, error) {
	return read(r, &r.graphs, TopicGraphs, (*Decoder).GraphEvent)
}
func (r *Records) Proxy() ([]dask.ProxyEvent, error) {
	return read(r, &r.proxy, TopicProxy, (*Decoder).ProxyEvent)
}
func (r *Records) Speculation() ([]dask.SpeculationEvent, error) {
	return read(r, &r.speculation, TopicSpeculation, (*Decoder).Speculation)
}

// read returns topic's records: c's while they are alive and the topic's
// event count is the one they were decoded at, else every event decoded
// once, straight from the stored bytes, in the order a consumer's Drain
// delivers them. A failed decode is not kept.
func read[T any](r *Records, c *decoded[T], topic string, decode func(*Decoder, []byte) (T, error)) ([]T, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, err := r.broker.OpenTopic(topic)
	if err != nil {
		return nil, err
	}
	n := t.Events()
	if p := c.first.Value(); p != nil && c.events == n {
		return unsafe.Slice(p, c.n), nil
	}
	cons, err := t.NewConsumer(mofka.ConsumerOptions{NoData: true})
	if err != nil {
		return nil, err
	}
	out := make([]T, 0, n)
	err = cons.Scan(func(partition int, id uint64, metadata []byte) error {
		rec, err := decode(&r.dec, metadata)
		if err != nil {
			return fmt.Errorf("provenance: corrupt event %s[%d]/%d: %w", topic, partition, id, err)
		}
		out = append(out, rec)
		return nil
	})
	if err != nil || len(out) == 0 {
		return out, err
	}
	out = out[:len(out):len(out)]
	*c = decoded[T]{weak.Make(&out[0]), len(out), n}
	return out, nil
}
