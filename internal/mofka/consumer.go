package mofka

import (
	"fmt"

	"taskprov/internal/mofka/wal"
)

// ConsumerOptions configures a subscription.
type ConsumerOptions struct {
	// Name identifies the consumer for cursor commits. Required for
	// CommitBatch/resume semantics; anonymous consumers start at 0 every time.
	Name string
	// Partitions restricts the subscription; nil means all partitions.
	Partitions []int
	// NoData skips fetching payloads (Mofka's data-selection feature):
	// events arrive with Data == nil. Metadata-only analysis passes use it.
	NoData bool
	// Prefetch is the per-partition pull granularity for PullBatch and the
	// internal read-ahead. Default 64.
	Prefetch int
	// FromCommitted resumes from the consumer's committed cursors instead
	// of offset zero.
	FromCommitted bool
}

// Consumer pulls events from a topic. It is single-goroutine by design
// (like a Mofka consumer handle); create one per analysis thread.
type Consumer struct {
	topic *Topic
	opts  ConsumerOptions
	parts []int
	next  map[int]uint64 // next unread offset per partition
	buf   []Event
	rr    int
}

// NewConsumer subscribes to the topic.
func (t *Topic) NewConsumer(opts ConsumerOptions) (*Consumer, error) {
	if opts.Prefetch <= 0 {
		opts.Prefetch = 64
	}
	parts := opts.Partitions
	if parts == nil {
		for i := range t.partitions {
			parts = append(parts, i)
		}
	}
	c := &Consumer{topic: t, opts: opts, parts: parts, next: make(map[int]uint64)}
	for _, i := range parts {
		if i < 0 || i >= len(t.partitions) {
			return nil, fmt.Errorf("%w: %s[%d]", ErrNoPartition, t.cfg.Name, i)
		}
		if opts.FromCommitted && opts.Name != "" {
			c.next[i] = t.broker.LoadCursor(opts.Name, t.cfg.Name, i)
		}
	}
	return c, nil
}

// roundRobin offers the subscribed partitions to read, one after the other
// from where the last call stopped, until one of them yields events. Both
// fill and Scan step through it, which is what makes their orders agree.
func (c *Consumer) roundRobin(read func(pi int, p *Partition) (progressed bool, err error)) (bool, error) {
	for range c.parts {
		pi := c.parts[c.rr%len(c.parts)]
		c.rr++
		if progressed, err := read(pi, c.topic.partitions[pi]); progressed || err != nil {
			return progressed, err
		}
	}
	return false, nil
}

// fill tops up the internal buffer by reading round-robin across
// subscribed partitions.
func (c *Consumer) fill() error {
	_, err := c.roundRobin(func(pi int, p *Partition) (bool, error) {
		evs, err := p.read(c.next[pi], c.opts.Prefetch, !c.opts.NoData)
		if err != nil || len(evs) == 0 {
			return false, err
		}
		c.next[pi] = evs[len(evs)-1].ID + 1
		c.buf = append(c.buf, evs...)
		return true, nil
	})
	return err
}

// Scan visits the metadata of every unread event, in the order Drain would
// deliver them, without copying it: metadata is the broker's stored bytes,
// valid only during the call and not to be written to. Payloads are not
// fetched. It is the bulk read of analyses that decode each event once.
func (c *Consumer) Scan(visit func(partition int, id uint64, metadata []byte) error) error {
	for _, ev := range c.buf {
		if err := visit(ev.Partition, ev.ID, ev.Metadata); err != nil {
			return err
		}
	}
	c.buf = nil
	for {
		progressed, err := c.roundRobin(func(pi int, p *Partition) (bool, error) {
			from := c.next[pi]
			var visitErr error
			err := p.scan(from, c.opts.Prefetch, func(id uint64, metadata []byte, _ uint64, _, _ int64) bool {
				if visitErr = visit(pi, id, metadata); visitErr != nil {
					return false
				}
				c.next[pi] = id + 1
				return true
			})
			if visitErr != nil {
				err = visitErr
			}
			return c.next[pi] > from, err
		})
		if err != nil || !progressed {
			return err
		}
	}
}

// Pull returns the next event, or ok=false when no unread events exist.
func (c *Consumer) Pull() (Event, bool, error) {
	if len(c.buf) == 0 {
		if err := c.fill(); err != nil {
			return Event{}, false, err
		}
	}
	if len(c.buf) == 0 {
		return Event{}, false, nil
	}
	ev := c.buf[0]
	c.buf = c.buf[1:]
	return ev, true, nil
}

// PullBatch returns up to max unread events (possibly fewer, empty at end of
// stream).
func (c *Consumer) PullBatch(max int) ([]Event, error) {
	var out []Event
	for len(out) < max {
		ev, ok, err := c.Pull()
		if err != nil {
			return out, err
		}
		if !ok {
			break
		}
		out = append(out, ev)
	}
	return out, nil
}

// Drain pulls every remaining event.
func (c *Consumer) Drain() ([]Event, error) {
	var out []Event
	for {
		ev, ok, err := c.Pull()
		if err != nil {
			return out, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, ev)
	}
}

// CommitBatch durably records a whole batch of processed events with one
// cursor-store write for the batch (not one per event, nor one per
// partition): for each partition represented in the batch, the highest event
// ID wins — on a durable broker every commit is an fsynced sidecar rewrite.
func (c *Consumer) CommitBatch(evs []Event) error {
	if c.opts.Name == "" {
		return fmt.Errorf("mofka: anonymous consumer cannot commit")
	}
	if len(evs) == 0 {
		return nil
	}
	high := make([]uint64, len(c.topic.partitions))
	for _, ev := range evs {
		if ev.Partition < 0 || ev.Partition >= len(high) {
			return fmt.Errorf("%w: %s[%d]", ErrNoPartition, c.topic.cfg.Name, ev.Partition)
		}
		if next := ev.ID + 1; next > high[ev.Partition] {
			high[ev.Partition] = next
		}
	}
	var cursors []wal.Cursor
	for p, next := range high {
		if next > 0 {
			cursors = append(cursors, wal.Cursor{Key: cursorKey(c.opts.Name, c.topic.cfg.Name, p), Next: next})
		}
	}
	return c.topic.broker.commitCursors(cursors)
}

// Lag reports, per subscribed partition, how many published events this
// consumer has not pulled yet (events buffered internally but not yet
// returned by Pull still count as lag — they have not been delivered).
func (c *Consumer) Lag() map[int]uint64 {
	buffered := make(map[int]uint64, len(c.parts))
	for _, ev := range c.buf {
		buffered[ev.Partition]++
	}
	out := make(map[int]uint64, len(c.parts))
	for _, pi := range c.parts {
		length := c.topic.partitions[pi].Length()
		delivered := c.next[pi] - buffered[pi]
		if length > delivered {
			out[pi] = length - delivered
		} else {
			out[pi] = 0
		}
	}
	return out
}
