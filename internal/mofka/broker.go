package mofka

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"taskprov/internal/mochi/bedrock"
	"taskprov/internal/mochi/warabi"
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
)

// Broker hosts topics on top of a bedrock deployment's Yokan and Warabi
// services, optionally backed by a durable segmented event log (see
// Options.DataDir and the wal package). All methods are safe for concurrent
// use.
type Broker struct {
	meta *yokan.Database
	data *warabi.Target

	// Durable backend, nil/zero for a purely in-memory broker.
	dataDir  string
	readOnly bool
	walOpts  wal.Options
	cursors  *wal.CursorStore

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

// NewBroker builds a broker on the deployment's "metadata" Yokan database
// and "data" Warabi target (creating them if the deployment config did not).
func NewBroker(dep *bedrock.Deployment) *Broker {
	return &Broker{
		meta:   dep.Yokan.Open("metadata"),
		data:   dep.Warabi.Target("data"),
		topics: make(map[string]*Topic),
	}
}

// NewStandaloneBroker builds a broker on fresh in-memory services, for uses
// that do not need a bedrock deployment (tests, embedded collection).
func NewStandaloneBroker() *Broker {
	return &Broker{
		meta:   yokan.NewDatabase("metadata"),
		data:   warabi.NewTarget("data"),
		topics: make(map[string]*Topic),
	}
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
	// Record the topic in the KV space so it is discoverable post-mortem.
	cfgJSON, err := json.Marshal(cfg)
	if err != nil {
		return nil, fmt.Errorf("mofka: encode config for topic %s: %w", cfg.Name, err)
	}
	if b.dataDir != "" && !b.readOnly {
		if err := b.persistTopic(t, cfgJSON); err != nil {
			return nil, err
		}
	}
	b.meta.Put("topics/"+cfg.Name, cfgJSON)
	b.topics[cfg.Name] = t
	return t, nil
}

// buildTopic builds a topic with empty partitions on b's document store; the
// caller registers it.
func (b *Broker) buildTopic(cfg TopicConfig) *Topic {
	t := &Topic{broker: b, cfg: cfg}
	for i := 0; i < cfg.Partitions; i++ {
		p := &Partition{
			topic: t,
			index: i,
			docs:  b.meta.Collection(fmt.Sprintf("topic/%s/p%04d", cfg.Name, i)),
		}
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

// cursorKey is the per-(consumer, topic, partition) identifier shared by the
// in-memory KV space and the on-disk cursor sidecar.
func cursorKey(consumer, topic string, partition int) string {
	return fmt.Sprintf("%s/%s/p%04d", consumer, topic, partition)
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
	topics := make([]*Topic, 0, len(b.topics))
	for _, t := range b.topics {
		topics = append(topics, t)
	}
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

// IsClosed reports whether Close has been called. Long-lived consumers (the
// live monitor's pull loop) use it as their exit condition.
func (b *Broker) IsClosed() bool {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.closed
}

// Sync commits every batch submitted so far and forces every durable
// partition log to stable storage (a no-op for in-memory brokers) without
// closing anything.
func (b *Broker) Sync() error {
	b.mu.RLock()
	topics := make([]*Topic, 0, len(b.topics))
	for _, t := range b.topics {
		topics = append(topics, t)
	}
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

// CommitCursor durably records a consumer's next-unread offset. On a durable
// broker the cursor is also persisted to the sidecar store, so it survives a
// restart.
func (b *Broker) CommitCursor(consumer, topic string, partition int, next uint64) error {
	return b.commitCursors([]wal.Cursor{{Key: cursorKey(consumer, topic, partition), Next: next}})
}

// commitCursors records several cursors; the sidecar store is rewritten once
// for all of them.
func (b *Broker) commitCursors(cursors []wal.Cursor) error {
	for _, c := range cursors {
		b.meta.Put("cursor/"+c.Key, strconv.AppendUint(nil, c.Next, 10))
	}
	if b.cursors != nil {
		if err := b.cursors.SetBatch(cursors); err != nil {
			return fmt.Errorf("mofka: persist cursors: %w", err)
		}
	}
	return nil
}

// CursorEntry is one committed consumer cursor, as enumerated by Cursors.
type CursorEntry struct {
	Consumer  string
	Topic     string
	Partition int
	Next      uint64
}

// Cursors enumerates every committed cursor on the broker in key order. The
// cluster layer uses it to merge per-replica cursor stores into one view.
func (b *Broker) Cursors() []CursorEntry {
	var out []CursorEntry
	for _, kv := range b.meta.ListKeyVals("", "cursor/", 0) {
		ent, ok := parseCursorKey(strings.TrimPrefix(kv.Key, "cursor/"))
		if !ok {
			continue
		}
		var next uint64
		if json.Unmarshal(kv.Value, &next) != nil {
			continue
		}
		ent.Next = next
		out = append(out, ent)
	}
	return out
}

// parseCursorKey inverts cursorKey. Topic names cannot contain "/", so the
// last two "/"-separated segments are unambiguous even if a consumer name
// contains slashes.
func parseCursorKey(key string) (CursorEntry, bool) {
	i := strings.LastIndex(key, "/")
	if i < 0 {
		return CursorEntry{}, false
	}
	pseg := key[i+1:]
	if len(pseg) < 2 || pseg[0] != 'p' {
		return CursorEntry{}, false
	}
	part, err := strconv.Atoi(pseg[1:])
	if err != nil || part < 0 {
		return CursorEntry{}, false
	}
	rest := key[:i]
	j := strings.LastIndex(rest, "/")
	if j < 0 {
		return CursorEntry{}, false
	}
	return CursorEntry{Consumer: rest[:j], Topic: rest[j+1:], Partition: part}, true
}

// LoadCursor returns a consumer's committed next-unread offset (0 if never
// committed).
func (b *Broker) LoadCursor(consumer, topic string, partition int) uint64 {
	key := "cursor/" + cursorKey(consumer, topic, partition)
	v, ok := b.meta.Get(key)
	if !ok {
		return 0
	}
	var next uint64
	if json.Unmarshal(v, &next) != nil {
		return 0
	}
	return next
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
	docs  *yokan.Collection
	log   *wal.Log // durable backend; nil for in-memory partitions

	mu     sync.Mutex
	cond   *sync.Cond    // length grew, staged shrank, or the partition closed
	length uint64        // committed events: what consumers observe
	staged []stagedBatch // submitted, awaiting the committer, in offset order
	queued bool          // on the committer's queue
	closed bool
}

// Length returns the number of events committed so far: a batch submitted to
// a log that fsyncs per batch counts once its fsync has returned.
func (p *Partition) Length() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.length
}

// Submit is the first half of an append, on the caller's goroutine and in
// caller order: the fault hook and admission accept or refuse the batch, its
// payloads become one Warabi region and its events envelopes, and on a
// durable partition its frames are written to the log, which fixes its
// offsets. What remains is the commit — the fsync that covers the batch,
// then its documents stored, the length advanced and waiting consumers woken,
// in submit order — so that every event a consumer can observe is also
// recoverable. An in-memory partition, and a log whose policy does not fsync
// per batch, commit before Submit returns (a nil Commit). A log that does
// hands the commit to the broker's committer, whose one fsync covers every
// batch staged on the partition since the last; Submit then blocks only
// while maxStaged batches are staged ahead of it.
//
// An error means nothing of the batch was kept. Everything a caller can
// decide on is reported here; Commit.Wait can only report a failed fsync.
func (p *Partition) Submit(metas [][]byte, datas [][]byte) (*Commit, error) {
	if len(metas) != len(datas) {
		return nil, fmt.Errorf("%w: %d metadata for %d data payloads", ErrInvalidEvent, len(metas), len(datas))
	}
	if len(metas) == 0 {
		return nil, nil
	}
	if err := p.topic.broker.injectAppendFault(p.topic.cfg.Name, p.index); err != nil {
		return nil, err
	}
	return p.admit(metas, datas, false)
}

// admit is the one batch step behind both a live append and the recovery of
// a partition from its log (recovered: the events are already on disk, so
// nothing is written there, the commit is immediate, and a read-only or
// closed broker still takes them). Disk bytes are no more trusted than a
// producer's: admission runs over every event either way.
func (p *Partition) admit(metas [][]byte, datas [][]byte, recovered bool) (*Commit, error) {
	// Admission comes before anything is written anywhere: one invalid event
	// refuses the whole batch and leaves no region, no WAL record, no
	// document behind. The same pass tells which events are not yet in the
	// form the broker stores, one bit each — on the stack up to a producer's
	// default batch of 128.
	var inline [2]uint64
	rewrite := inline[:]
	if len(metas) > 64*len(inline) {
		rewrite = make([]uint64, (len(metas)+63)/64)
	}
	for i, m := range metas {
		if len(m) == 0 {
			continue // stored as null
		}
		valid, stored := scanMetadata(m)
		if !valid {
			return nil, fmt.Errorf("mofka: event %d of a batch for %s[%d]: %w: metadata is not valid JSON", i, p.topic.cfg.Name, p.index, ErrInvalidEvent)
		}
		if !stored {
			rewrite[i/64] |= 1 << (i % 64)
		}
	}
	var total int64
	for _, d := range datas {
		total += int64(len(d))
	}
	blob := make([]byte, 0, total)
	offsets := make([]int64, len(datas))
	for i, d := range datas {
		offsets[i] = int64(len(blob))
		blob = append(blob, d...)
	}

	// The whole submit happens under the partition lock so WAL offsets and
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
	// The envelopes share one arena, which the document store takes over
	// without copying.
	region := b.data.CreateWrite(blob)
	size := 0
	for i := range metas {
		size += envelopeLen(metas[i], uint64(region), offsets[i], int64(len(datas[i])))
	}
	arena := make([]byte, 0, size)
	docs := make([][]byte, len(metas))
	for i := range metas {
		start := len(arena)
		m := metas[i]
		if len(m) == 0 {
			m = nullMetadata
		} else if rewrite[i/64]&(1<<(i%64)) != 0 {
			m = storedForm(m)
		}
		arena = appendEnvelope(arena, m, uint64(region), offsets[i], int64(len(datas[i])))
		docs[i] = arena[start:len(arena):len(arena)]
	}
	if p.log != nil && !recovered {
		recs := make([]wal.Record, len(metas))
		for i := range metas {
			recs[i] = wal.Record{Meta: metas[i], Data: datas[i]}
		}
		// Only a log that fsyncs per batch has a commit worth taking off the
		// caller's goroutine; the other policies sync, when they do, inline.
		stage := b.walOpts.Sync == wal.SyncBatch
		var err error
		if stage {
			_, err = p.log.WriteBatch(recs)
		} else {
			_, err = p.log.AppendBatch(recs)
		}
		if err != nil {
			err = fmt.Errorf("mofka: wal append %s[%d]: %w", p.topic.cfg.Name, p.index, err)
			return nil, errors.Join(err, b.data.Destroy(region))
		}
		if stage {
			c := &Commit{done: make(chan struct{})}
			p.staged = append(p.staged, stagedBatch{docs: docs, region: region, commit: c})
			if !p.queued {
				p.queued = true
				b.commits.enqueue(p)
			}
			return c, nil
		}
	}
	p.docs.StoreBatch(docs)
	p.length += uint64(len(docs))
	p.cond.Broadcast()
	return nil, nil
}

// Append publishes a batch of pre-encoded events directly to this partition,
// bypassing producer batching, and returns once it is committed: Submit, then
// the wait. It is the replication entry point: the cluster layer
// (internal/mofka/cluster) uses it to copy suffixes during catch-up, so
// replicated partitions carry byte-identical streams.
func (p *Partition) Append(metas [][]byte, datas [][]byte) error {
	c, err := p.Submit(metas, datas)
	if err != nil {
		return err
	}
	return c.Wait()
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
// tail before the replica rejoins replication; dropped payload regions stay
// in Warabi but become unreachable.
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

// read returns up to max events starting at offset from. withData controls
// whether payloads are fetched from Warabi (Mofka's data-selection feature).
func (p *Partition) read(from uint64, max int, withData bool) ([]Event, error) {
	if withData {
		return p.readSelect(from, max, nil)
	}
	return p.readSelect(from, max, func([]byte) bool { return false })
}

// readSelect is read with per-event data selection: selector nil fetches
// every payload; otherwise only events whose metadata it accepts carry
// data. The events' metadata are private copies, cut from one arena per call.
func (p *Partition) readSelect(from uint64, max int, selector func([]byte) bool) ([]Event, error) {
	length := p.Length()
	if from >= length {
		return nil, nil
	}
	n := int(length - from)
	if max > 0 && max < n {
		n = max
	}
	out := make([]Event, 0, n)
	var arena []byte
	var readErr error
	scanErr := p.scan(from, n, func(id uint64, metadata []byte, region uint64, offset, size int64) bool {
		if arena == nil {
			// Sized from the first event, with a quarter to spare; longer
			// events grow it.
			arena = make([]byte, 0, n*(len(metadata)+len(metadata)/4))
		}
		start := len(arena)
		arena = append(arena, metadata...)
		ev := Event{
			Topic:     p.topic.cfg.Name,
			Partition: p.index,
			ID:        id,
			Metadata:  arena[start:],
		}
		if (selector == nil || selector(ev.Metadata)) && size > 0 {
			data, err := p.topic.broker.data.Read(warabi.RegionID(region), offset, size)
			if err != nil {
				readErr = fmt.Errorf("mofka: data for event %d: %w", id, err)
				return false
			}
			ev.Data = data
		}
		out = append(out, ev)
		return true
	})
	if readErr == nil {
		readErr = scanErr
	}
	// Cut the metadata again now that the arena has stopped moving, each
	// capped to its own bytes.
	start := 0
	for i := range out {
		end := start + len(out[i].Metadata)
		out[i].Metadata = arena[start:end:end]
		start = end
	}
	return out, readErr
}

// scan visits up to max stored events from offset from (max <= 0: all of
// them) until visit returns false. The metadata it passes is the stored
// bytes, valid only during the call. A corrupt envelope ends the scan with an
// error.
func (p *Partition) scan(from uint64, max int, visit func(id uint64, metadata []byte, region uint64, offset, size int64) bool) error {
	var err error
	p.docs.Iter(from, max, func(id uint64, doc []byte) bool {
		metadata, region, offset, size, splitErr := splitEnvelope(doc)
		if splitErr != nil {
			err = fmt.Errorf("mofka: corrupt envelope %d: %w", id, splitErr)
			return false
		}
		return visit(id, metadata, region, offset, size)
	})
	return err
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
