package mofka

import "sync"

// Commit is the durability wait of one submitted batch: the second half of
// an append. Submitting a batch decides everything there is to decide about
// it — refused or admitted, and at which offsets — on the caller's goroutine;
// the commit is the fsync that covers it and, after that and in submit order,
// its publication to consumers. A nil *Commit is a batch that was committed
// by the time it was submitted (an in-memory partition, a log whose policy
// does not fsync per batch): waiting on it returns at once.
type Commit struct {
	done chan struct{}
	err  error // written before done is closed
}

// NewCommit returns a commit that is complete once Complete is called: the
// wait a deployment hands out for a batch whose durability it settles itself
// (a partition's committer, the cluster's quorum append).
func NewCommit() *Commit { return &Commit{done: make(chan struct{})} }

// Complete ends the wait with err, the batch's outcome. It is called exactly
// once, by whoever settles the batch.
func (c *Commit) Complete(err error) {
	c.err = err
	close(c.done)
}

// Wait blocks until the batch is durable and visible, or is known never to
// become so: it returns the fsync's error, after which the partition's log
// refuses every further append. Safe to call more than once and from any
// goroutine.
func (c *Commit) Wait() error {
	if c == nil {
		return nil
	}
	<-c.done
	return c.err
}

// maxStaged is how many submitted batches a partition holds for the
// committer before the next submit blocks. It bounds the memory between the
// two halves of an append and how far a partition's log can run ahead of
// what consumers see; a handful is enough to keep a producer busy for the
// length of an fsync.
const maxStaged = 8

// stagedBatch is a batch between its two halves: in the log file at fixed
// offsets, not yet covered by an fsync.
type stagedBatch struct {
	docs   [][]byte
	commit *Commit
}

// committer is a durable broker's background goroutine: for each partition
// with staged batches it fsyncs the partition's log once — covering every
// batch staged there since the last fsync — and publishes them. It starts
// with the first staged batch and exits in Broker.Close.
type committer struct {
	mu    sync.Mutex
	wake  *sync.Cond   // nil until the goroutine starts
	queue []*Partition // partitions holding staged batches, each at most once
	stop  bool
	done  chan struct{}
}

// enqueue hands p to the committer, starting it on first use. The caller
// holds p.mu and has just set p.queued.
func (c *committer) enqueue(p *Partition) {
	c.mu.Lock()
	if c.wake == nil {
		c.wake = sync.NewCond(&c.mu)
		c.done = make(chan struct{})
		go c.run()
	}
	c.queue = append(c.queue, p)
	c.wake.Signal()
	c.mu.Unlock()
}

func (c *committer) run() {
	defer close(c.done)
	var round []*Partition
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		for len(c.queue) == 0 && !c.stop {
			c.wake.Wait()
		}
		if len(c.queue) == 0 {
			return
		}
		round, c.queue = c.queue, round[:0]
		c.mu.Unlock()
		for i, p := range round {
			p.commitStaged()
			round[i] = nil
		}
		c.mu.Lock()
	}
}

// close stops the goroutine once its queue is empty and waits for it to
// exit. The broker's partitions are closed by then, so nothing new is staged.
func (c *committer) close() {
	c.mu.Lock()
	c.stop = true
	started := c.wake != nil
	if started {
		c.wake.Signal()
	}
	c.mu.Unlock()
	if started {
		<-c.done
	}
}

// commitStaged is one round of the committer on p: a single fsync for the
// batches staged when it starts, then their publication in submit order.
// Batches staged while the fsync runs put p back on the queue.
func (p *Partition) commitStaged() {
	p.mu.Lock()
	p.queued = false
	n := len(p.staged)
	p.mu.Unlock()
	if n == 0 {
		return
	}
	err := p.log.Sync()
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range p.staged[:n] {
		// Nothing of a failed group becomes visible. Its frames may be in the
		// file all the same, which is why the log now refuses appends: a
		// retry would write them a second time.
		s := &p.staged[i]
		if err == nil {
			p.publishLocked(s.docs)
		}
		s.commit.Complete(err)
	}
	rest := copy(p.staged, p.staged[n:])
	clear(p.staged[rest:])
	p.staged = p.staged[:rest]
	p.cond.Broadcast()
}
