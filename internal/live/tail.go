package live

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"taskprov/internal/darshan"
	"taskprov/internal/mofka"
	"taskprov/internal/mofka/cluster"
	"taskprov/internal/provenance"
)

// ReplayBroker feeds every provenance event already on the broker through
// the aggregator, topic by topic, each in the order a Monitor ingests it —
// mofka.Topic.Chunks with chunk events per turn — which is the order the
// equivalence invariant is defined against.
func ReplayBroker(b *mofka.Broker, agg *Aggregator) error {
	return ReplayTopics(b, agg, provenance.AllTopics())
}

// ReplayTopics is ReplayBroker over the named topics only: each one is fed
// in the same order, to the same handlers, into the same lanes, so a
// Summary field computed from those topics alone (PhaseTopics) comes out
// bit for bit as the full replay's. It fails at the first event that does
// not decode.
func ReplayTopics(b *mofka.Broker, agg *Aggregator, topics []string) error {
	for _, topic := range topics {
		t, err := b.OpenTopic(topic)
		if err != nil {
			continue // topic never created on this broker
		}
		if err := readerOf(topic).chunks(agg, t, t.Chunks(chunk)); err != nil {
			return fmt.Errorf("live: replay %s: %w", topic, err)
		}
	}
	return nil
}

// chunkReader is the one way a topic's events reach the aggregates: a chunk
// of consecutive events of one partition at a time, decoded from their
// stored bytes and applied in order under one hold of the aggregator's lock.
// An event that does not decode is skipped; the error returned names the
// first, and what it means is the caller's to say: the replay fails, the
// monitor logs it once and reads on, the remote tailer reports it once. A
// reader keeps its buffers from one call to the next; it belongs to one
// goroutine.
type chunkReader interface {
	// chunks feeds the given chunks of t, in their order.
	chunks(a *Aggregator, t *mofka.Topic, chunks []mofka.Chunk) error
	// events feeds evs, consecutive events of partition part pulled from a
	// log service (at least one), as one chunk.
	events(a *Aggregator, part int, evs []mofka.Event) error
}

// reader is the chunkReader of one topic, whose records are Ts.
type reader[T any] struct {
	h     handler[T]
	topic string
	ring  []decodedChunk[T]
}

func newReader[T any](topic string, h handler[T]) *reader[T] {
	return &reader[T]{h: h, topic: topic}
}

// decodedChunk is one chunk as records, with the decoder that decoded it.
// metas holds the chunk's stored metadata until it is decoded; err is the
// first event that did not decode, or what cut the chunk's read short.
type decodedChunk[T any] struct {
	x     provenance.Decoder
	metas [][]byte
	recs  []T
	err   error
	ready chan struct{}
}

// slots returns the reader's first n chunk buffers, adding what it lacks.
func (r *reader[T]) slots(n int) []decodedChunk[T] {
	if grow := n - len(r.ring); grow > 0 {
		r.ring = slices.Grow(r.ring, grow)
		for range grow {
			r.ring = append(r.ring, decodedChunk[T]{metas: make([][]byte, 0, chunk), recs: make([]T, 0, chunk), ready: make(chan struct{}, 1)})
		}
	}
	return r.ring[:n]
}

// chunks decodes the chunks on up to GOMAXPROCS goroutines, into a ring of
// two chunk buffers per goroutine, and applies them on this one in order, a
// chunk per hold of the aggregator's lock, so the aggregates see exactly the
// event order a sequential read gives. A chunk is queued only once the ring
// slot it decodes into is free: the first ring's worth now, each later one
// when the chunk a ring ahead of it has been applied. So at most a ring's
// worth is queued, and the buffer never blocks the applier. A single chunk,
// or a single core, is decoded and applied in line.
func (r *reader[T]) chunks(a *Aggregator, t *mofka.Topic, chunks []mofka.Chunk) error {
	var first error
	workers := min(runtime.GOMAXPROCS(0), len(chunks))
	if workers <= 1 {
		for _, c := range chunks {
			buf := &r.slots(1)[0]
			r.read(t, c, buf)
			if err := r.apply(a, c.Part, buf); first == nil {
				first = err
			}
		}
		return first
	}
	ring := r.slots(2 * workers)
	jobs := make(chan int, len(ring))
	for k := 0; k < min(len(ring), len(chunks)); k++ {
		jobs <- k
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range jobs {
				buf := &ring[k%len(ring)]
				r.read(t, chunks[k], buf)
				buf.ready <- struct{}{}
			}
		}()
	}
	for k, c := range chunks {
		buf := &ring[k%len(ring)]
		<-buf.ready
		if err := r.apply(a, c.Part, buf); first == nil {
			first = err
		}
		if next := k + len(ring); next < len(chunks) {
			jobs <- next
		}
	}
	close(jobs)
	wg.Wait()
	return first
}

func (r *reader[T]) events(a *Aggregator, part int, evs []mofka.Event) error {
	buf := &r.slots(1)[0]
	buf.metas = buf.metas[:0]
	for _, ev := range evs {
		buf.metas = append(buf.metas, ev.Metadata)
	}
	r.decode(part, evs[0].ID, buf)
	return r.apply(a, part, buf)
}

// read decodes chunk c of t into buf. The stored metadata Partition.Scan
// lends are gathered first and decoded after, so the partition's read lock
// is not held while they decode: an appender is held up no longer than by a
// copy of the chunk.
func (r *reader[T]) read(t *mofka.Topic, c mofka.Chunk, buf *decodedChunk[T]) {
	buf.metas = buf.metas[:0]
	p, err := t.Partition(c.Part)
	if err == nil {
		p.Scan(c.From, c.N, func(_ uint64, metadata []byte) bool {
			buf.metas = append(buf.metas, metadata)
			return true
		})
	}
	r.decode(c.Part, c.From, buf)
	if buf.err == nil {
		buf.err = err
	}
}

// decode decodes buf.metas, the events of partition part from offset from,
// into buf.recs, skipping an event that does not decode; buf.err names the
// first such event.
func (r *reader[T]) decode(part int, from uint64, buf *decodedChunk[T]) {
	buf.recs, buf.err = buf.recs[:0], nil
	for i, metadata := range buf.metas {
		rec, err := r.h.decode(&buf.x, metadata)
		if err != nil {
			if buf.err == nil {
				buf.err = fmt.Errorf("live: corrupt event %s[%d]/%d: %w", r.topic, part, from+uint64(i), err)
			}
			continue
		}
		buf.recs = append(buf.recs, rec)
	}
}

// apply feeds a decoded chunk's records to the aggregator in order, under
// one hold of its lock, then returns the chunk's error, if any.
func (r *reader[T]) apply(a *Aggregator, partition int, buf *decodedChunk[T]) error {
	a.mu.Lock()
	var raised []Anomaly
	for _, rec := range buf.recs {
		if r.h.apply != nil {
			raised = append(raised, r.h.apply(a, partition, rec)...)
		}
		a.events++
	}
	a.raise(raised)
	return buf.err
}

// dirMetadata is the slice of the run's metadata.json the tailer needs. The
// full provenance chart lives in internal/core; parsing a projection here
// keeps live a leaf package.
type dirMetadata struct {
	Workflow    string  `json:"workflow"`
	Seed        uint64  `json:"seed"`
	WallSeconds float64 `json:"wall_seconds"`
	Platform    struct {
		Nodes int `json:"nodes"`
	} `json:"platform"`
	Dask struct {
		WorkersPerNode   int `json:"workers_per_node"`
		ThreadsPerWorker int `json:"threads_per_worker"`
	} `json:"dask_config"`
}

// ReplayDataDir builds live aggregates post-mortem from a durable Mofka data
// directory: the WAL segments replay through a fresh aggregator, and
// whatever else the directory offers (metadata.json, darshan/*.darshan) is
// folded in. Safe on the data dir of a crashed (kill -9) run: the WAL opens
// read-only and torn tails are skipped, not truncated. A sharded cluster
// directory (cluster.json + node-NN/) is merged into one view first, the way
// perfrecup.LoadEventLog opens it.
func ReplayDataDir(dir string, opts AggregatorOptions) (Summary, error) {
	b, err := cluster.OpenLog(dir)
	if err != nil {
		return Summary{}, fmt.Errorf("live: open %s: %w", dir, err)
	}
	agg := NewAggregator(opts)
	if err := ReplayBroker(b, agg); err != nil {
		return Summary{}, err
	}
	if raw, err := os.ReadFile(filepath.Join(dir, "metadata.json")); err == nil {
		var meta dirMetadata
		if err := json.Unmarshal(raw, &meta); err != nil {
			return Summary{}, fmt.Errorf("live: %s/metadata.json: %w", dir, err)
		}
		slots := meta.Platform.Nodes * meta.Dask.WorkersPerNode * meta.Dask.ThreadsPerWorker
		agg.SetMeta(meta.Workflow, meta.Seed, slots)
		agg.SetWall(meta.WallSeconds)
	}
	logs, err := darshan.ReadDir(filepath.Join(dir, "darshan"))
	if err != nil {
		return Summary{}, fmt.Errorf("live: %w", err)
	}
	for _, l := range logs {
		agg.IngestDarshanLog(l)
	}
	return agg.Snapshot(), nil
}

// TailOptions configures a tailer.
type TailOptions struct {
	// Interval between refreshes. Default 1s.
	Interval time.Duration
	// Logf receives one-line refresh failures (transient while a run is
	// mid-write).
	Logf func(format string, args ...any)
}

func (o TailOptions) withDefaults() TailOptions {
	if o.Interval <= 0 {
		o.Interval = time.Second
	}
	return o
}

// WALTailer follows a durable data dir as it grows by rebuilding the
// aggregates from the WAL on every refresh. Each refresh is a full replay —
// O(log size) per tick, the price of staying read-only against a directory
// another process is actively writing (no shared cursor state, no risk of
// perturbing the run). For the paper-scale logs this is milliseconds; for
// production-scale logs attach to the broker with a RemoteTailer instead. A
// sharded cluster directory tails the same way (see ReplayDataDir).
type WALTailer struct {
	dir  string
	opts TailOptions

	mu   sync.Mutex
	last Summary
	seen int // anomalies already forwarded to subscribers
	subs []chan Anomaly

	poller
}

// TailWAL starts tailing a data dir. The first refresh happens synchronously
// so the returned tailer always serves a real snapshot (the refresh error,
// if any, is surfaced; a dir mid-first-write may legitimately be empty).
func TailWAL(dir string, opts TailOptions) (*WALTailer, error) {
	if !cluster.IsLogDir(dir) {
		return nil, fmt.Errorf("live: %s is not a Mofka data dir", dir)
	}
	t := &WALTailer{dir: dir, opts: opts.withDefaults()}
	if err := t.Refresh(); err != nil {
		return nil, err
	}
	t.start(t.opts, "tail "+dir, t.Refresh)
	return t, nil
}

// Refresh rebuilds the snapshot from the directory now. Anomalies beyond as
// many as were already forwarded go to subscribers (the list is sorted by
// time, and a log that only appends mostly adds later findings).
func (t *WALTailer) Refresh() error {
	snap, err := ReplayDataDir(t.dir, AggregatorOptions{})
	t.mu.Lock()
	defer t.mu.Unlock()
	if err != nil {
		return err
	}
	t.last = snap
	for ; t.seen < len(snap.Anomalies); t.seen++ {
		for _, ch := range t.subs {
			select {
			case ch <- snap.Anomalies[t.seen]:
			default:
			}
		}
	}
	return nil
}

// Snapshot returns the most recent successful rebuild.
func (t *WALTailer) Snapshot() Summary {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.last
}

// SubscribeAnomalies implements Source.
func (t *WALTailer) SubscribeAnomalies() (<-chan Anomaly, func()) {
	ch := make(chan Anomaly, 64)
	t.mu.Lock()
	t.subs = append(t.subs, ch)
	t.mu.Unlock()
	return ch, func() {
		t.mu.Lock()
		t.subs = slices.DeleteFunc(t.subs, func(c chan Anomaly) bool { return c == ch })
		t.mu.Unlock()
	}
}

// RemoteTailer attaches to a running log service — a mofkad broker or cluster
// gateway over Mercury RPC, as taskprov watch -broker does — and pulls
// provenance topics incrementally into a persistent aggregator.
type RemoteTailer struct {
	remote mofka.Service
	opts   TailOptions
	agg    *Aggregator
	topics map[string]*remoteTopic

	poller
}

// remoteTopic is where the tailer stands in one topic's delivery order.
type remoteTopic struct {
	r    chunkReader
	next []uint64 // per partition, the next offset to read
	turn int      // the partition the rest of the order starts at
}

// TailRemote starts tailing a log service. One synchronous sweep runs before
// returning so the first snapshot is already populated.
func TailRemote(r mofka.Service, opts TailOptions) (*RemoteTailer, error) {
	t := &RemoteTailer{
		remote: r,
		opts:   opts.withDefaults(),
		agg:    NewAggregator(AggregatorOptions{}),
		topics: make(map[string]*remoteTopic),
	}
	if err := t.sweep(); err != nil {
		return nil, err
	}
	t.start(t.opts, "remote tail", t.sweep)
	return t, nil
}

// sweep pulls everything new from the remote in the order ReplayBroker reads
// a log: topic by topic in provenance.AllTopics' order, each topic in its
// delivery order (mofka.ChunkOrder over the partition lengths the remote
// answers, from where the last sweep stopped), a chunk fed to the aggregator
// as one. So a sweep over a finished log leaves ReplayBroker's aggregates.
func (t *RemoteTailer) sweep() error {
	names, err := t.remote.Topics()
	if err != nil {
		return err
	}
	for _, topic := range provenance.AllTopics() {
		if !slices.Contains(names, topic) {
			continue
		}
		rt := t.topics[topic]
		if rt == nil {
			parts, _, err := t.remote.TopicInfo(topic)
			if err != nil {
				return err
			}
			rt = &remoteTopic{r: readerOf(topic), next: make([]uint64, parts)}
			t.topics[topic] = rt
		}
		lens := make([]uint64, len(rt.next))
		for p := range lens {
			if lens[p], err = t.remote.PartitionLength(topic, p); err != nil {
				return err
			}
		}
		for _, c := range mofka.ChunkOrder(rt.next, lens, rt.turn, chunk) {
			evs, err := t.pull(topic, c)
			if err != nil {
				return err
			}
			// Step past the chunk first: an event in it that does not decode
			// is reported once, not on every sweep.
			rt.next[c.Part] = c.From + uint64(len(evs))
			rt.turn = (c.Part + 1) % len(rt.next)
			if len(evs) > 0 {
				if err := rt.r.events(t.agg, c.Part, evs); err != nil {
					return err
				}
			}
			if len(evs) < c.N {
				break // the rest of the order assumed this chunk whole
			}
		}
	}
	return nil
}

// pull reads chunk c of topic, pulling again while the remote answers short
// of it; it stops early only where the partition has no more to give.
func (t *RemoteTailer) pull(topic string, c mofka.Chunk) ([]mofka.Event, error) {
	var evs []mofka.Event
	for len(evs) < c.N {
		more, err := t.remote.Pull(topic, c.Part, c.From+uint64(len(evs)), c.N-len(evs))
		if err != nil || len(more) == 0 {
			return evs, err
		}
		evs = append(evs, more...)
	}
	return evs, nil
}

// Snapshot implements Source.
func (t *RemoteTailer) Snapshot() Summary { return t.agg.Snapshot() }

// SubscribeAnomalies implements Source.
func (t *RemoteTailer) SubscribeAnomalies() (<-chan Anomaly, func()) {
	return t.agg.SubscribeAnomalies()
}

// poller is a tailer's host-time refresh: the tailers watch a run from
// outside it, on no clock of the run's.
type poller struct {
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// start calls refresh every opts.Interval on a goroutine of its own, logging
// its failures under what, until Stop.
func (p *poller) start(opts TailOptions, what string, refresh func() error) {
	p.stop, p.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(p.done)
		tick := time.NewTicker(opts.Interval)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
				if err := refresh(); err != nil && opts.Logf != nil {
					opts.Logf("live: %s: %v", what, err)
				}
			}
		}
	}()
}

// Stop halts the refreshes.
func (p *poller) Stop() {
	p.stopOnce.Do(func() { close(p.stop) })
	<-p.done
}
