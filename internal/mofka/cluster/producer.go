package cluster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"taskprov/internal/mofka"
)

// ClusterTopic is a handle on a cluster-wide topic — the counterpart of
// *mofka.Topic for sharded deployments. It satisfies mofka.BusTopic.
type ClusterTopic struct {
	c     *Cluster
	name  string
	parts int
}

// Name returns the topic name.
func (t *ClusterTopic) Name() string { return t.name }

// PartitionCount returns the topic's partition count.
func (t *ClusterTopic) PartitionCount() int { return t.parts }

// Producer creates a replicated producer; see NewProducer.
func (t *ClusterTopic) Producer(opts mofka.ProducerOptions) mofka.Pusher {
	return t.NewProducer(opts)
}

// producerSeq is the global producer-id source; ids only need to be unique
// within a process, and a plain counter keeps them deterministic.
var producerSeq atomic.Uint64

// Producer pushes events into a cluster topic with the same batching,
// degraded-mode buffering, and statistics as the single-broker
// mofka.Producer — plus quorum replication with sequence-numbered
// idempotent retry underneath. A batch that fails (no quorum, leader crash
// mid-replication) stays queued and is retried with the same sequence
// number; replicas that already hold it acknowledge without re-appending,
// so a retry across a leader change neither loses nor duplicates events.
// Safe for concurrent use.
type Producer struct {
	c     *Cluster
	topic string
	id    string
	opts  mofka.ProducerOptions
	valid mofka.Validator

	mu       sync.Mutex
	open     []mofka.Batch
	queues   [][]sealedBatch
	spare    []mofka.Batch // shipped batches, emptied, whose memory the next ones reuse
	nextSeq  []uint64      // per-partition, next sequence number to assign
	epochs   []uint64      // per-partition cached fencing epoch (0 = unknown)
	rr       int
	closed   bool
	degraded bool
	pushed   uint64
	flushes  uint64
	dropped  uint64

	// shipMu serializes shipping so a partition's batches land in seal
	// (and therefore sequence) order even under concurrent pushers. It also
	// guards views.
	shipMu sync.Mutex
	views  [][]byte // reused backing of the metadata views handed to Append

	stopFlusher chan struct{}
	flusherDone chan struct{}
}

type sealedBatch struct {
	mofka.Batch
	seq uint64
}

// NewProducer creates a replicated producer for the topic.
func (t *ClusterTopic) NewProducer(opts mofka.ProducerOptions) *Producer {
	setProducerDefaults(&opts)
	t.c.mu.Lock()
	var valid mofka.Validator
	if ts, ok := t.c.topics[t.name]; ok {
		valid = ts.cfg.Validator
	}
	t.c.mu.Unlock()
	p := &Producer{
		c:       t.c,
		topic:   t.name,
		id:      fmt.Sprintf("producer-%d", producerSeq.Add(1)),
		opts:    opts,
		valid:   valid,
		open:    make([]mofka.Batch, t.parts),
		queues:  make([][]sealedBatch, t.parts),
		nextSeq: make([]uint64, t.parts),
		epochs:  make([]uint64, t.parts),
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

// setProducerDefaults mirrors mofka.ProducerOptions defaults (the setter is
// unexported there).
func setProducerDefaults(o *mofka.ProducerOptions) {
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

// Push enqueues one event; see mofka.Producer.Push.
func (p *Producer) Push(metadata mofka.Metadata, data []byte) error {
	return p.PushRaw(metadata.Encode(), data)
}

// PushRaw enqueues one event with pre-encoded JSON metadata.
func (p *Producer) PushRaw(metadata, data []byte) error {
	if p.valid != nil {
		if err := p.valid(metadata); err != nil {
			return fmt.Errorf("%w: %v", mofka.ErrInvalidEvent, err)
		}
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return mofka.ErrClosed
	}
	var idx int
	if p.opts.Partitioner != nil {
		idx = p.opts.Partitioner(metadata, len(p.open))
		if idx < 0 || idx >= len(p.open) {
			p.mu.Unlock()
			return fmt.Errorf("%w: partitioner chose %d of %d", mofka.ErrNoPartition, idx, len(p.open))
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
	p.queues[idx] = append(p.queues[idx], sealedBatch{p.open[idx], p.nextSeq[idx]})
	p.nextSeq[idx]++
	p.open[idx] = mofka.Batch{}
	if n := len(p.spare); n > 0 {
		p.open[idx], p.spare = p.spare[n-1], p.spare[:n-1]
	}
	p.flushes++
}

// ship drains every partition's sealed-batch queue through the replicated
// append path, retrying failures with backoff and refreshing fenced routes.
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
		// Every replica copied what it keeps, so the batch's memory is free
		// for the next one (one spare per partition is all sealing can use).
		p.mu.Lock()
		p.queues[idx][0] = sealedBatch{}
		p.queues[idx] = p.queues[idx][1:]
		if len(p.spare) < len(p.open) {
			b.Reset()
			p.spare = append(p.spare, b.Batch)
		}
		p.mu.Unlock()
	}
}

// appendWithRetry replicates one batch, handling the two retryable
// outcomes differently: ErrFenced means the route is stale — refresh the
// cached epoch (the current one rides on the error return) and retry
// immediately, without consuming a retry attempt or backing off; any other
// failure (no quorum, leader append error) backs off and retries up to
// FlushRetries times with the same sequence number. It runs under shipMu.
func (p *Producer) appendWithRetry(idx int, b sealedBatch) error {
	backoff := p.opts.RetryBackoff
	p.views = b.Metas(p.views)
	var err error
	for attempt := 0; ; {
		p.mu.Lock()
		epoch := p.epochs[idx]
		p.mu.Unlock()
		var cur uint64
		cur, err = p.c.Append(p.topic, idx, p.id, b.seq, epoch, p.views, b.Datas())
		p.mu.Lock()
		p.epochs[idx] = cur
		p.mu.Unlock()
		if err == nil {
			return nil
		}
		if errors.Is(err, ErrFenced) {
			// Stale route, not a real failure: retry with the fresh epoch.
			continue
		}
		if attempt >= p.opts.FlushRetries {
			return err
		}
		attempt++
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
		p.queues[idx] = append([]sealedBatch(nil), p.queues[idx][over:]...)
	}
	p.mu.Unlock()
}

// Flush seals and ships every pending batch; failed batches stay queued.
func (p *Producer) Flush() error {
	p.mu.Lock()
	for i := range p.open {
		p.sealLocked(i)
	}
	p.mu.Unlock()
	return p.ship()
}

// Close flushes pending events and stops the background flusher.
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

// Degraded reports whether the producer is buffering because replicated
// appends fail (leader down, quorum unreachable).
func (p *Producer) Degraded() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.degraded
}

// Backlog reports sealed batches still awaiting quorum acknowledgement.
func (p *Producer) Backlog() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for i := range p.queues {
		n += len(p.queues[i])
	}
	return n
}

// Stats reports events pushed and batches sealed.
func (p *Producer) Stats() (pushed, flushes uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pushed, p.flushes
}

// Dropped reports events discarded under degraded-mode backlog pressure.
func (p *Producer) Dropped() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dropped
}

// Bus adapts the cluster to the mofka.Bus interface, so internal/core can
// collect provenance into a cluster exactly as it does into a single
// broker.
func (c *Cluster) Bus() mofka.Bus { return clusterBus{c} }

type clusterBus struct{ c *Cluster }

func (cb clusterBus) EnsureTopic(cfg mofka.TopicConfig) (mofka.BusTopic, error) {
	return cb.c.EnsureTopic(cfg)
}
