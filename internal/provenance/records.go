package provenance

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"unsafe"
	"weak"

	"taskprov/internal/dask"
	"taskprov/internal/mofka"
)

// Records is a broker's provenance stream as typed records, one accessor per
// topic. A topic is decoded on up to GOMAXPROCS goroutines at once, each
// with a Decoder of its own, straight into the slots the events take in
// Drain's order, and its names borrow the broker's stored bytes (Decoder). A
// decoded topic is served again while its event count is unchanged and some
// caller still holds it: Records holds it weakly, so records nobody reads
// any more cost no memory, and the next call after the count changed or the
// collector reclaimed them decodes the topic afresh. Records is safe for
// concurrent use.
//
// The returned slices are shared by every caller and read-only: copy one
// before sorting or editing it. Their capacity is their length, so an append
// copies.
type Records struct {
	broker *mofka.Broker

	mu          sync.Mutex
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
// delivers them. The topic's chunks of that order (mofka.Topic.Chunks with
// mofka.ConsumerChunk) are split into as many runs of about equal events as
// there are decoders — GOMAXPROCS, or fewer for a topic of fewer chunks —
// and each run is decoded by its own goroutine into its own slots of the
// result. A failed decode is not kept, and the error is the first corrupt
// event in Drain order: the runs are in that order, and each stops at its
// first.
func read[T any](r *Records, c *decoded[T], topic string, decode func(*Decoder, []byte) (T, error)) ([]T, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, err := r.broker.OpenTopic(topic)
	if err != nil {
		return nil, err
	}
	if p := c.first.Value(); p != nil && c.events == t.Events() {
		return unsafe.Slice(p, c.n), nil
	}
	chunks := t.Chunks(mofka.ConsumerChunk)
	if len(chunks) == 0 {
		return []T{}, nil
	}
	last := chunks[len(chunks)-1]
	n := last.Slot + last.N
	out := make([]T, n)
	workers := min(runtime.GOMAXPROCS(0), len(chunks))
	// Run w holds the chunks from the first one at or past w/workers of the
	// events.
	start := func(w int) int {
		return sort.Search(len(chunks), func(i int) bool { return chunks[i].Slot >= w*n/workers })
	}
	type stop struct {
		slot int
		err  error
	}
	stops := make([]stop, workers)
	run := func(w int) {
		s := &stops[w]
		s.slot, s.err = decodeChunks(t, topic, chunks[start(w):start(w+1)], out, decode)
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(w)
		}()
	}
	run(0)
	wg.Wait()
	for _, s := range stops {
		if s.err != nil {
			return out[:s.slot], s.err
		}
	}
	*c = decoded[T]{weak.Make(&out[0]), n, uint64(n)}
	return out, nil
}

// decodeChunks decodes the events of chunks, which lie in t, into their
// slots of out, with a decoder of its own. On a corrupt event or envelope it
// stops, returning that event's slot and the error.
func decodeChunks[T any](t *mofka.Topic, topic string, chunks []mofka.Chunk, out []T, decode func(*Decoder, []byte) (T, error)) (int, error) {
	var x Decoder
	for _, c := range chunks {
		p, err := t.Partition(c.Part)
		if err != nil {
			return c.Slot, err
		}
		slot := c.Slot
		var bad error
		err = p.Scan(c.From, c.N, func(id uint64, metadata []byte) bool {
			rec, err := decode(&x, metadata)
			if err != nil {
				bad = fmt.Errorf("provenance: corrupt event %s[%d]/%d: %w", topic, c.Part, id, err)
				return false
			}
			out[slot] = rec
			slot++
			return true
		})
		if bad != nil {
			return slot, bad
		}
		if err != nil {
			return slot, err
		}
	}
	return 0, nil
}
