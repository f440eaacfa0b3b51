package mofka

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"taskprov/internal/mochi/yokan"
	"taskprov/internal/mofka/wal"
)

// Errors reported by the broker API.
var (
	ErrTopicExists  = errors.New("mofka: topic already exists")
	ErrNoTopic      = errors.New("mofka: no such topic")
	ErrNoPartition  = errors.New("mofka: no such partition")
	ErrClosed       = errors.New("mofka: closed")
	ErrInvalidEvent = errors.New("mofka: invalid event")

	// errPayload refuses an event that carries a data payload: an event is
	// its metadata, and bulk bytes travel on the proxy plane.
	errPayload = fmt.Errorf("%w: an event carries no data payload", ErrInvalidEvent)
)

// Broker hosts topics, each partition's events in a Yokan document
// collection of its own, optionally backed by a durable segmented event log
// (see Options.DataDir and the wal package). All methods are safe for
// concurrent use.
type Broker struct {
	// Durable backend, zero for a purely in-memory broker.
	dataDir  string
	readOnly bool
	walOpts  wal.Options

	mu          sync.RWMutex
	topics      map[string]*Topic
	closed      bool
	appendFault func(topic string, partition int) error

	// commits fsyncs and publishes what the partitions of a broker whose logs
	// fsync per batch have staged; idle on every other broker.
	commits committer
}

// SetAppendFault installs (or, with nil, removes) a fault hook consulted at
// the top of every batch append: a non-nil return fails the append before
// anything is persisted. Fault injection uses it to model disk-full and
// WAL-write errors; producers see the error and enter degraded buffering.
func (b *Broker) SetAppendFault(f func(topic string, partition int) error) {
	b.mu.Lock()
	b.appendFault = f
	b.mu.Unlock()
}

func (b *Broker) injectAppendFault(topic string, partition int) error {
	b.mu.RLock()
	f := b.appendFault
	b.mu.RUnlock()
	if f == nil {
		return nil
	}
	return f(topic, partition)
}

// NewStandaloneBroker builds an empty in-memory broker.
func NewStandaloneBroker() *Broker {
	return &Broker{topics: make(map[string]*Topic)}
}

// CreateTopic creates a topic. Partition count defaults to 1.
func (b *Broker) CreateTopic(cfg TopicConfig) (*Topic, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("%w: empty topic name", ErrInvalidEvent)
	}
	// Zero means "unspecified" and defaults to one partition; negative and
	// absurd counts are configuration bugs and are rejected loudly rather
	// than silently normalized.
	if cfg.Partitions < 0 {
		return nil, fmt.Errorf("%w: topic %s: negative partition count %d", ErrInvalidEvent, cfg.Name, cfg.Partitions)
	}
	if cfg.Partitions > MaxPartitions {
		return nil, fmt.Errorf("%w: topic %s: %d partitions exceeds limit %d", ErrInvalidEvent, cfg.Name, cfg.Partitions, MaxPartitions)
	}
	if cfg.Partitions == 0 {
		cfg.Partitions = 1
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, ErrClosed
	}
	if _, ok := b.topics[cfg.Name]; ok {
		return nil, fmt.Errorf("%w: %s", ErrTopicExists, cfg.Name)
	}
	t := b.buildTopic(cfg)
	if b.dataDir != "" && !b.readOnly {
		if err := b.persistTopic(t); err != nil {
			return nil, err
		}
	}
	b.topics[cfg.Name] = t
	return t, nil
}

// buildTopic builds a topic with empty partitions; the caller registers it.
func (b *Broker) buildTopic(cfg TopicConfig) *Topic {
	t := &Topic{broker: b, cfg: cfg}
	for i := 0; i < cfg.Partitions; i++ {
		p := &Partition{topic: t, index: i}
		p.cond = sync.NewCond(&p.mu)
		t.partitions = append(t.partitions, p)
	}
	return t
}

// OpenTopic returns an existing topic.
func (b *Broker) OpenTopic(name string) (*Topic, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	t, ok := b.topics[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoTopic, name)
	}
	return t, nil
}

// OpenOrCreateTopic opens the topic, creating it if absent.
func (b *Broker) OpenOrCreateTopic(cfg TopicConfig) (*Topic, error) {
	if t, err := b.OpenTopic(cfg.Name); err == nil {
		return t, nil
	}
	t, err := b.CreateTopic(cfg)
	if errors.Is(err, ErrTopicExists) {
		return b.OpenTopic(cfg.Name)
	}
	return t, err
}

// Topics lists topic names in sorted order.
func (b *Broker) Topics() []string {
	b.mu.RLock()
	defer b.mu.RUnlock()
	var out []string
	for n := range b.topics {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// topicsLocked returns the topics in name order, so that what is done to each
// in turn — and the errors joined from it — does not follow map order.
// Callers hold b.mu.
func (b *Broker) topicsLocked() []*Topic {
	topics := make([]*Topic, 0, len(b.topics))
	for _, t := range b.topics {
		topics = append(topics, t)
	}
	slices.SortFunc(topics, func(x, y *Topic) int { return strings.Compare(x.cfg.Name, y.cfg.Name) })
	return topics
}

// Close shuts the broker down: every partition is marked closed, batches
// still awaiting their commit are committed, durable logs are fsynced and
// closed, and the committer goroutine has exited when Close returns. Reads of already-published
// events keep working after Close — post-mortem draining of an in-memory
// broker is still valid — but appends and topic creation fail with
// ErrClosed. Close is idempotent.
func (b *Broker) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	topics := b.topicsLocked()
	b.mu.Unlock()
	var errs []error
	for _, t := range topics {
		for _, p := range t.partitions {
			if err := p.close(); err != nil {
				errs = append(errs, err)
			}
		}
	}
	b.commits.close()
	return errors.Join(errs...)
}

// Sync commits every batch submitted so far and forces every durable
// partition log to stable storage (a no-op for in-memory brokers) without
// closing anything.
func (b *Broker) Sync() error {
	b.mu.RLock()
	topics := b.topicsLocked()
	b.mu.RUnlock()
	var errs []error
	for _, t := range topics {
		for _, p := range t.partitions {
			if p.log != nil {
				p.mu.Lock()
				p.awaitCommitsLocked()
				p.mu.Unlock()
				if err := p.log.Sync(); err != nil {
					errs = append(errs, err)
				}
			}
		}
	}
	return errors.Join(errs...)
}

// Topic is a named event stream divided into partitions.
type Topic struct {
	broker     *Broker
	cfg        TopicConfig
	partitions []*Partition
}

// Config returns the topic's creation-time configuration.
func (t *Topic) Config() TopicConfig { return t.cfg }

// Partitions returns the partition count.
func (t *Topic) Partitions() int { return len(t.partitions) }

// Partition returns partition i.
func (t *Topic) Partition(i int) (*Partition, error) {
	if i < 0 || i >= len(t.partitions) {
		return nil, fmt.Errorf("%w: %s[%d]", ErrNoPartition, t.cfg.Name, i)
	}
	return t.partitions[i], nil
}

// Events reports the total number of events across all partitions.
func (t *Topic) Events() uint64 {
	var n uint64
	for _, p := range t.partitions {
		n += p.Length()
	}
	return n
}

// Partition is one ordered shard of a topic.
type Partition struct {
	topic *Topic
	index int
	docs  yokan.Collection // the events' metadata, in offset order
	log   *wal.Log         // durable backend; nil for in-memory partitions

	mu     sync.Mutex
	cond   *sync.Cond    // length grew, staged shrank, or the partition closed
	length uint64        // committed events: what consumers observe
	staged []stagedBatch // submitted, awaiting the committer, in offset order
	queued bool          // on the committer's queue
	closed bool
	// recs frames a batch for the log; empty between batches, so it pins no
	// metadata.
	recs []wal.Record
}

// Length returns the number of events committed so far: a batch submitted to
// a log that fsyncs per batch counts once its fsync has returned.
func (p *Partition) Length() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.length
}

// Submit is the first half of an append, on the caller's goroutine and in
// caller order: Admit, then Store. Admission accepts or refuses the batch
// and makes its metadata the documents the partition stores; storing runs
// the fault hook and, on a durable partition, writes the frames to the log,
// which fixes its offsets. What remains is the commit — the fsync that
// covers the batch, then its documents stored, the length advanced and
// waiting consumers woken, in submit order — so that every event a consumer
// can observe is also recoverable. An in-memory partition, and a log whose
// policy does not fsync per batch, commit before Submit returns (a nil
// Commit). A log that does hands the commit to the broker's committer, whose
// one fsync covers every batch staged on the partition since the last;
// Submit then blocks only while maxStaged batches are staged ahead of it.
//
// An error means nothing of the batch was kept. Everything a caller can
// decide on is reported here; Commit.Wait can only report a failed fsync.
func (p *Partition) Submit(metas [][]byte) (*Commit, error) {
	a, err := p.Admit(metas)
	if err != nil {
		return nil, err
	}
	return p.Store(a)
}

// Admitted is a batch through admission: its metadata as pushed, which a
// log frames, and the documents a partition stores, in stored form. The
// documents are immutable once admitted, so one admitted batch may be
// stored on every replica of a partition: each stores the same bytes under
// an index of its own. Outside this package only Admit and Partition.Stored
// make one.
type Admitted struct {
	metas [][]byte
	docs  [][]byte
}

// Len is the number of events in the batch.
func (a Admitted) Len() int { return len(a.docs) }

// Admit runs admission over a batch for p: one invalid event refuses the
// whole batch, with ErrInvalidEvent, before anything is written anywhere.
// The documents of an accepted batch are copied into one arena, as its
// producer reuses its memory; the batch's metas stay the caller's, and must
// not change until the last Store of it has returned.
func (p *Partition) Admit(metas [][]byte) (Admitted, error) {
	return p.admit(metas, false)
}

// admit is the one admission step behind both a live append and the
// recovery of a partition from its log (recovered: the events are already on
// disk). Disk bytes are no more trusted than a producer's: admission runs
// over every event either way.
//
// An event's document is its metadata in stored form (see storedForm). A
// recovered event already in that form is stored as the very bytes the log
// read — metas is then rewritten in place — since the log never reuses them
// (wal.OpenReplay); a live batch's are copied into one arena.
func (p *Partition) admit(metas [][]byte, recovered bool) (Admitted, error) {
	// The pass tells which events are not yet in the form the broker
	// stores, one bit each — on the stack up to a producer's default batch
	// of 128.
	var inline [2]uint64
	rewrite := inline[:]
	if len(metas) > 64*len(inline) {
		rewrite = make([]uint64, (len(metas)+63)/64)
	}
	size := 0
	for i, m := range metas {
		if len(m) == 0 {
			continue // stored as null
		}
		valid, stored := scanMetadata(m)
		if !valid {
			return Admitted{}, fmt.Errorf("mofka: event %d of a batch for %s[%d]: %w: metadata is not valid JSON", i, p.topic.cfg.Name, p.index, ErrInvalidEvent)
		}
		if stored {
			size += len(m)
		} else {
			rewrite[i/64] |= 1 << (i % 64)
		}
	}
	docs := metas
	var arena []byte
	if !recovered {
		docs = make([][]byte, len(metas))
		arena = make([]byte, 0, size)
	}
	for i, m := range metas {
		switch {
		case len(m) == 0:
			docs[i] = nullMetadata
		case rewrite[i/64]&(1<<(i%64)) != 0:
			docs[i] = storedForm(m)
		case !recovered:
			start := len(arena)
			arena = append(arena, m...)
			docs[i] = arena[start:len(arena):len(arena)]
		}
	}
	return Admitted{metas: metas, docs: docs}, nil
}

// Stored returns up to max of p's committed documents from offset from as an
// admitted batch, without copying them: what a lagging replica of the same
// partition stores to catch up. They were admitted when p stored them, and
// a stored document never changes (see Scan), so the other replica's log
// frames them in the form p stores and its index shares their bytes.
func (p *Partition) Stored(from uint64, max int) Admitted {
	p.mu.Lock()
	n := p.length
	p.mu.Unlock()
	if from >= n {
		return Admitted{}
	}
	if k := n - from; max <= 0 || uint64(max) > k {
		max = int(k)
	}
	docs := make([][]byte, 0, max)
	p.Scan(from, max, func(_ uint64, doc []byte) bool {
		docs = append(docs, doc)
		return true
	})
	return Admitted{metas: docs, docs: docs}
}

// Store is the storing half of Submit: the fault hook, then, on a durable
// partition, the batch's frames written to the log, then its documents
// staged for the committer or published. The error and the commit are
// Submit's.
func (p *Partition) Store(a Admitted) (*Commit, error) {
	if a.Len() == 0 {
		return nil, nil
	}
	if err := p.topic.broker.injectAppendFault(p.topic.cfg.Name, p.index); err != nil {
		return nil, err
	}
	return p.store(a, false)
}

// store stores an admitted batch (recovered: read from p's own log, so
// nothing is written there, the commit is immediate, and a read-only or
// closed broker still takes it).
func (p *Partition) store(a Admitted, recovered bool) (*Commit, error) {
	// The whole store happens under the partition lock so WAL offsets and
	// in-memory event IDs assign in the same order across concurrent
	// producers — replaying the log reproduces the exact live stream.
	b := p.topic.broker
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.staged) >= maxStaged && !p.closed {
		p.cond.Wait()
	}
	if !recovered {
		if p.closed {
			return nil, ErrClosed
		}
		if b.readOnly {
			return nil, fmt.Errorf("%w: broker is read-only (post-mortem)", ErrClosed)
		}
	}
	if p.log != nil && !recovered {
		for _, m := range a.metas {
			p.recs = append(p.recs, wal.Record{Meta: m})
		}
		// Only a log that fsyncs per batch has a commit worth taking off the
		// caller's goroutine; the other policies sync, when they do, inline.
		// Either way the log copies the frames into its own buffer.
		stage := b.walOpts.Sync == wal.SyncBatch
		var err error
		if stage {
			_, err = p.log.WriteBatch(p.recs)
		} else {
			_, err = p.log.AppendBatch(p.recs)
		}
		clear(p.recs)
		p.recs = p.recs[:0]
		if err != nil {
			return nil, fmt.Errorf("mofka: wal append %s[%d]: %w", p.topic.cfg.Name, p.index, err)
		}
		if stage {
			c := NewCommit()
			p.staged = append(p.staged, stagedBatch{docs: a.docs, commit: c})
			if !p.queued {
				p.queued = true
				b.commits.enqueue(p)
			}
			return c, nil
		}
	}
	p.publishLocked(a.docs)
	p.cond.Broadcast()
	return nil, nil
}

// publishLocked makes a committed batch visible to readers. Callers hold
// p.mu.
func (p *Partition) publishLocked(docs [][]byte) {
	p.docs.StoreBatch(docs)
	p.length += uint64(len(docs))
}

// Append publishes a batch of pre-encoded events directly to this partition,
// bypassing producer batching, and returns once it is committed: Submit, then
// the wait. datas must be nil or all empty — an event is its metadata, and
// the parameter stays for the callers that compile against it (bench/e2e); a
// non-empty payload is refused with ErrInvalidEvent before anything is
// stored.
func (p *Partition) Append(metas [][]byte, datas [][]byte) error {
	for _, d := range datas {
		if len(d) > 0 {
			return errPayload
		}
	}
	c, err := p.Submit(metas)
	if err != nil {
		return err
	}
	return c.Wait()
}

// ShareFrom makes p, an empty in-memory partition, hold the first n committed
// events of src without storing them again: a stored document never changes
// once committed (the collection owns it, and truncation only drops it), so
// p's documents are src's, header by header. Nothing is admitted again, and
// what src appends or truncates later changes src's index, not p's. The
// cluster's read view is built this way.
func (p *Partition) ShareFrom(src *Partition, n uint64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.log != nil || p.length != 0 || len(p.staged) != 0 {
		return fmt.Errorf("mofka: share into %s[%d]: not an empty in-memory partition", p.topic.cfg.Name, p.index)
	}
	src.mu.Lock()
	defer src.mu.Unlock()
	if n > src.length {
		return fmt.Errorf("mofka: share %d events of %s[%d], which has committed %d", n, src.topic.cfg.Name, src.index, src.length)
	}
	if n == 0 {
		return nil
	}
	// Headers go over a chunk at a time; the collection copies them into its
	// pages.
	chunk := make([][]byte, 0, min(n, 1024))
	src.docs.Iter(0, int(n), func(_ uint64, doc []byte) bool {
		if chunk = append(chunk, doc); len(chunk) == cap(chunk) {
			p.docs.StoreBatch(chunk)
			chunk = chunk[:0]
		}
		return true
	})
	p.docs.StoreBatch(chunk)
	p.length = n
	return nil
}

// awaitCommitsLocked blocks until no submitted batch awaits its commit.
// Callers hold p.mu, which the wait releases.
func (p *Partition) awaitCommitsLocked() {
	for len(p.staged) > 0 {
		p.cond.Wait()
	}
}

// TruncateTo discards every event with ID >= n, so the next appended event
// receives ID n. The durable log (if any) is truncated first, preserving
// the invariant that every observable event is recoverable. The cluster
// layer uses this to drop a restarted replica's unacknowledged divergent
// tail before the replica rejoins replication.
func (p *Partition) TruncateTo(n uint64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	if p.topic.broker.readOnly {
		return fmt.Errorf("%w: broker is read-only (post-mortem)", ErrClosed)
	}
	p.awaitCommitsLocked()
	if n >= p.length {
		return nil
	}
	if p.log != nil {
		if err := p.log.TruncateTo(n); err != nil {
			return fmt.Errorf("mofka: wal truncate %s[%d]: %w", p.topic.cfg.Name, p.index, err)
		}
	}
	p.docs.TruncateTo(n)
	p.length = n
	return nil
}

// read returns up to max events starting at offset from. The events'
// metadata are private copies, cut from one arena per call. It holds p.mu
// throughout, so that the length it reads to is the one it copies.
func (p *Partition) read(from uint64, max int) []Event {
	p.mu.Lock()
	defer p.mu.Unlock()
	if from >= p.length {
		return nil
	}
	n := int(p.length - from)
	if max > 0 && max < n {
		n = max
	}
	out := make([]Event, 0, n)
	var arena []byte
	p.docs.Iter(from, n, func(id uint64, metadata []byte) bool {
		if arena == nil {
			// Sized from the first event, with a quarter to spare; longer
			// events grow it.
			arena = make([]byte, 0, n*(len(metadata)+len(metadata)/4))
		}
		start := len(arena)
		arena = append(arena, metadata...)
		out = append(out, Event{
			Topic:     p.topic.cfg.Name,
			Partition: p.index,
			ID:        id,
			Metadata:  arena[start:],
		})
		return true
	})
	// Cut the metadata again now that the arena has stopped moving, each
	// capped to its own bytes.
	start := 0
	for i := range out {
		end := start + len(out[i].Metadata)
		out[i].Metadata = arena[start:end:end]
		start = end
	}
	return out
}

// Scan visits the metadata of up to max stored events from offset from (max
// <= 0: all of them) until visit returns false, without copying it: the bytes
// passed are the event's document, its metadata in stored form, and for an
// event recovered from a log they lie in the segment buffer the log read. They
// are immutable for the broker's life — do not write to them — which is what
// lets a decoder hand out strings over them rather than copies: the document
// collection takes ownership of a document when it is stored (yokan's
// StoreBatch), the log never reuses a buffer it handed to recovery, nothing
// writes to either afterwards, and truncation drops entries, it never
// rewrites one, so even an offset stored again after TruncateTo is a new
// document beside the old one. It is the ranged read behind
// provenance.Records' concurrent decode; one partition may be scanned by
// several goroutines at once.
func (p *Partition) Scan(from uint64, max int, visit func(id uint64, metadata []byte) bool) {
	p.docs.Iter(from, max, visit)
}

// close marks the partition closed, wakes every blocked submitter, waits for
// the batches already submitted to commit, and syncs and closes the durable
// log (if any).
func (p *Partition) close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.cond.Broadcast()
	p.awaitCommitsLocked()
	log := p.log
	p.mu.Unlock()
	if log != nil {
		return log.Close()
	}
	return nil
}
