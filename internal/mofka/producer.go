package mofka

import (
	"fmt"
	"sync"
	"time"
)

// ProducerOptions tunes batching. Mofka's real producer batches events and
// ships them with background threads; the same knobs exist here, and the
// background is the broker's: a sealed batch is submitted on the pushing
// goroutine — so what becomes of it (accepted, retried, buffered, dropped)
// never depends on host timing — and where the log fsyncs per batch the
// fsync runs behind the push, the producer moving on to the next batch
// meanwhile. Flush and Close are where the producer waits for it.
type ProducerOptions struct {
	// BatchSize flushes a partition's pending batch when it reaches this
	// many events. Default 128.
	BatchSize int
	// MaxBatchBytes flushes when pending payload bytes reach this size.
	// Default 4 MiB.
	MaxBatchBytes int64
	// FlushInterval, when positive, starts a background goroutine flushing
	// all partitions periodically. Zero (default) means size-triggered and
	// manual flushes only — the deterministic mode simulations use.
	FlushInterval time.Duration
	// Partitioner picks the partition for an event. The default cycles
	// round-robin, matching Mofka's default.
	Partitioner func(metadata []byte, partitions int) int

	// FlushRetries is how many times a failing batch append is retried
	// in-line (with exponential backoff starting at RetryBackoff) before the
	// producer gives up for now, keeps the batch buffered, and reports
	// degraded mode. Default 3.
	FlushRetries int
	// RetryBackoff is the initial backoff between in-line retries,
	// doubling each attempt. Default 5ms.
	RetryBackoff time.Duration
	// MaxPendingBatches bounds the per-partition backlog of sealed but
	// unshipped batches accumulated while the broker is unreachable. Beyond
	// the bound the oldest batches are dropped (counted by Stats), trading
	// provenance completeness for bounded memory — degraded, not wedged.
	// Default 64.
	MaxPendingBatches int
	// OnDegraded fires once when the producer starts buffering because
	// appends fail persistently; OnRecovered fires once when the backlog
	// later drains completely. Both are invoked without internal locks held,
	// so callbacks may push to other topics.
	OnDegraded  func(err error)
	OnRecovered func()
}

func (o *ProducerOptions) setDefaults() {
	if o.BatchSize <= 0 {
		o.BatchSize = 128
	}
	if o.MaxBatchBytes <= 0 {
		o.MaxBatchBytes = 4 << 20
	}
	if o.FlushRetries <= 0 {
		o.FlushRetries = 3
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 5 * time.Millisecond
	}
	if o.MaxPendingBatches <= 0 {
		o.MaxPendingBatches = 64
	}
}

// BatchSink lands one sealed batch on its partition: the one decision that
// differs between deployments. A standalone topic submits to the partition;
// a cluster topic (internal/mofka/cluster) runs a quorum append, with seq —
// the batch's per-partition sequence number, from 1, fixed when it was
// sealed — making a retry idempotent. The producer calls it once per attempt
// on a batch, never per event, and never concurrently; metas and datas are
// only valid during the call.
//
// An error means the batch was not taken and is the producer's to retry. Nil
// means it was, at fixed offsets, and the Commit beside it is the wait for
// its durability: nil when the sink returns only once the batch is durable
// (a quorum append, a remote push) or as durable as it will get (an
// in-memory partition). A partition's commits complete in submit order, so
// the producer keeps the latest per partition and waits in Flush and Close.
type BatchSink func(partition int, seq uint64, metas, datas [][]byte) (*Commit, error)

// Producer pushes events into a topic with batching: the one implementation
// of seal, ship, retry, bounded backlog and degraded mode, whatever the
// deployment behind its sink. A batch that fails stays queued and is retried
// with the same sequence number. Safe for concurrent use.
type Producer struct {
	valid Validator
	sink  BatchSink
	opts  ProducerOptions

	mu       sync.Mutex
	open     []batch   // per-partition batch accepting new events
	queues   [][]batch // per-partition FIFO of sealed, unshipped batches
	spare    []batch   // shipped batches, emptied, whose memory the next ones reuse
	nextSeq  []uint64  // per-partition, next sequence number to assign
	rr       int
	closed   bool
	degraded bool
	pushed   uint64
	flushes  uint64
	dropped  uint64

	// shipMu serializes shipping so a partition's batches land in seal
	// (and therefore sequence) order even under concurrent pushers. It also
	// guards views and commits, and whatever state the sink keeps.
	shipMu  sync.Mutex
	views   [][]byte  // reused backing of the metadata views handed to the sink
	commits []*Commit // per partition, the latest shipped batch's durability wait

	stopFlusher chan struct{}
	flusherDone chan struct{}
}

// batch accumulates the events of one producer batch. Metadata is copied
// once, back to back into one arena, rather than into a slice per event;
// Reset empties the batch and keeps the memory, so a producer that recycles
// its shipped batches stops allocating per event.
type batch struct {
	arena []byte
	ends  []int // ends[i] is where event i's metadata stops in arena
	datas [][]byte
	bytes int64
	seq   uint64 // set when the batch is sealed
}

// Add copies one event into the batch.
func (b *batch) Add(metadata, data []byte) {
	b.arena = append(b.arena, metadata...)
	b.ends = append(b.ends, len(b.arena))
	b.datas = append(b.datas, append([]byte(nil), data...))
	b.bytes += int64(len(data))
}

// Len is the number of events in the batch.
func (b *batch) Len() int { return len(b.ends) }

// DataBytes is the payload bytes the batch holds.
func (b *batch) DataBytes() int64 { return b.bytes }

// Metas returns each event's metadata as a view into the arena, valid until
// the next Add or Reset, built on scratch's backing array when it is large
// enough.
func (b *batch) Metas(scratch [][]byte) [][]byte {
	metas := scratch[:0]
	start := 0
	for _, end := range b.ends {
		metas = append(metas, b.arena[start:end:end])
		start = end
	}
	return metas
}

// Datas returns each event's payload.
func (b *batch) Datas() [][]byte { return b.datas }

// Reset empties the batch for reuse.
func (b *batch) Reset() {
	clear(b.datas)
	*b = batch{arena: b.arena[:0], ends: b.ends[:0], datas: b.datas[:0]}
}

// NewProducer creates a producer for the topic; its sink appends straight to
// the topic's partitions (a single broker has no use for sequence numbers).
func (t *Topic) NewProducer(opts ProducerOptions) *Producer {
	return NewProducer(len(t.partitions), t.cfg.Validator, opts, func(partition int, _ uint64, metas, datas [][]byte) (*Commit, error) {
		return t.partitions[partition].Submit(metas, datas)
	})
}

// NewProducer creates a producer over partitions partitions whose sealed
// batches reach them through sink. valid, when non-nil, checks every pushed
// event's metadata.
func NewProducer(partitions int, valid Validator, opts ProducerOptions, sink BatchSink) *Producer {
	opts.setDefaults()
	p := &Producer{
		valid:   valid,
		sink:    sink,
		opts:    opts,
		open:    make([]batch, partitions),
		queues:  make([][]batch, partitions),
		nextSeq: make([]uint64, partitions),
		commits: make([]*Commit, partitions),
	}
	for i := range p.nextSeq {
		p.nextSeq[i] = 1
	}
	if opts.FlushInterval > 0 {
		p.stopFlusher = make(chan struct{})
		p.flusherDone = make(chan struct{})
		go p.flushLoop()
	}
	return p
}

func (p *Producer) flushLoop() {
	defer close(p.flusherDone)
	tick := time.NewTicker(p.opts.FlushInterval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			_ = p.Flush() // periodic flush retries next tick
		case <-p.stopFlusher:
			return
		}
	}
}

// Push enqueues one event. The metadata and data slices are copied (the
// metadata once, into its batch's arena). The event becomes visible to
// consumers once its batch has shipped (by size trigger, interval, Flush, or
// Close) and committed; Flush and Close wait for that.
func (p *Producer) Push(metadata Metadata, data []byte) error {
	return p.PushRaw(metadata.Encode(), data)
}

// PushRaw enqueues one event with pre-encoded JSON metadata.
func (p *Producer) PushRaw(metadata, data []byte) error {
	if p.valid != nil {
		if err := p.valid(metadata); err != nil {
			return fmt.Errorf("%w: %v", ErrInvalidEvent, err)
		}
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrClosed
	}
	var idx int
	if p.opts.Partitioner != nil {
		idx = p.opts.Partitioner(metadata, len(p.open))
		if idx < 0 || idx >= len(p.open) {
			p.mu.Unlock()
			return fmt.Errorf("%w: partitioner chose %d of %d", ErrNoPartition, idx, len(p.open))
		}
	} else {
		idx = p.rr
		p.rr = (p.rr + 1) % len(p.open)
	}
	b := &p.open[idx]
	b.Add(metadata, data)
	p.pushed++
	needFlush := b.Len() >= p.opts.BatchSize || b.DataBytes() >= p.opts.MaxBatchBytes
	if needFlush {
		p.sealLocked(idx)
	}
	p.mu.Unlock()
	if needFlush {
		return p.ship()
	}
	return nil
}

// sealLocked moves partition idx's open batch onto its shipping queue,
// assigning the batch its per-partition sequence number. Callers hold p.mu.
func (p *Producer) sealLocked(idx int) {
	if p.open[idx].Len() == 0 {
		return
	}
	p.open[idx].seq = p.nextSeq[idx]
	p.nextSeq[idx]++
	p.queues[idx] = append(p.queues[idx], p.open[idx])
	p.open[idx] = batch{}
	if n := len(p.spare); n > 0 {
		p.open[idx], p.spare = p.spare[n-1], p.spare[:n-1]
	}
	p.flushes++
}

// ship drains every partition's sealed-batch queue, retrying failures with
// backoff. Batches that still cannot be appended stay queued (bounded by
// MaxPendingBatches) for the next flush — a broker outage degrades the
// producer instead of losing whole batches. Returns the first append error.
func (p *Producer) ship() error {
	p.shipMu.Lock()
	var firstErr error
	for idx := range p.queues {
		if err := p.drainPartition(idx); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	p.mu.Lock()
	backlog := 0
	for i := range p.queues {
		backlog += len(p.queues[i])
	}
	notifyDegraded := firstErr != nil && !p.degraded
	notifyRecovered := firstErr == nil && backlog == 0 && p.degraded
	if notifyDegraded {
		p.degraded = true
	}
	if notifyRecovered {
		p.degraded = false
	}
	p.mu.Unlock()
	p.shipMu.Unlock()
	if notifyDegraded && p.opts.OnDegraded != nil {
		p.opts.OnDegraded(firstErr)
	}
	if notifyRecovered && p.opts.OnRecovered != nil {
		p.opts.OnRecovered()
	}
	return firstErr
}

func (p *Producer) drainPartition(idx int) error {
	for {
		p.mu.Lock()
		if len(p.queues[idx]) == 0 {
			p.mu.Unlock()
			return nil
		}
		b := p.queues[idx][0]
		p.mu.Unlock()
		if err := p.appendWithRetry(idx, b); err != nil {
			p.enforceBound(idx)
			return err
		}
		// The sink's side copied what it keeps, so the batch's memory is free
		// for the next one (one spare per partition is all sealing can use).
		p.mu.Lock()
		p.queues[idx][0] = batch{}
		p.queues[idx] = p.queues[idx][1:]
		if len(p.spare) < len(p.open) {
			b.Reset()
			p.spare = append(p.spare, b)
		}
		p.mu.Unlock()
	}
}

// appendWithRetry hands one batch to the sink, backing off and retrying a
// failure up to FlushRetries times with the same sequence number. It runs
// under shipMu.
func (p *Producer) appendWithRetry(idx int, b batch) error {
	backoff := p.opts.RetryBackoff
	p.views = b.Metas(p.views)
	var err error
	for attempt := 0; ; attempt++ {
		var c *Commit
		c, err = p.sink(idx, b.seq, p.views, b.Datas())
		if err == nil && c != nil {
			p.commits[idx] = c
		}
		if err == nil || attempt >= p.opts.FlushRetries {
			return err
		}
		time.Sleep(backoff)
		backoff *= 2
	}
}

// enforceBound drops partition idx's oldest queued batches past
// MaxPendingBatches, counting the dropped events.
func (p *Producer) enforceBound(idx int) {
	p.mu.Lock()
	over := len(p.queues[idx]) - p.opts.MaxPendingBatches
	for i := 0; i < over; i++ {
		p.dropped += uint64(p.queues[idx][i].Len())
	}
	if over > 0 {
		p.queues[idx] = append([]batch(nil), p.queues[idx][over:]...)
	}
	p.mu.Unlock()
}

// Flush seals and ships every pending batch and returns once every batch
// shipped so far is durable. On error the unshipped batches remain queued for
// the next attempt; the first append error is returned, or else the first
// failed commit's (a failed fsync: those events are lost, and the partition's
// log refuses whatever is shipped next).
func (p *Producer) Flush() error {
	p.mu.Lock()
	for i := range p.open {
		p.sealLocked(i)
	}
	p.mu.Unlock()
	err := p.ship()
	for i := range p.commits {
		p.shipMu.Lock()
		c := p.commits[i]
		p.shipMu.Unlock()
		if werr := c.Wait(); err == nil {
			err = werr
		}
	}
	return err
}

// Close flushes pending events and stops the background flusher. Further
// pushes fail with ErrClosed. If the final flush fails, its first error is
// returned and any still-unshipped batches are abandoned with the producer.
func (p *Producer) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	if p.stopFlusher != nil {
		close(p.stopFlusher)
		<-p.flusherDone
	}
	return p.Flush()
}

// Stats reports events pushed and batches sealed, for overhead ablations;
// Dropped has the events lost to backlog pressure.
func (p *Producer) Stats() (pushed, flushes uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pushed, p.flushes
}

// Dropped reports events discarded because the degraded-mode backlog
// exceeded MaxPendingBatches.
func (p *Producer) Dropped() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dropped
}
