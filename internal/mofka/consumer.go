package mofka

// ConsumerOptions configures a subscription.
type ConsumerOptions struct {
	// NoData is accepted and has no effect: an event is its metadata, so
	// there is no payload to skip. It stays for the callers that compile
	// against it (bench/e2e).
	NoData bool
}

// ConsumerChunk is how many events of one partition a Consumer takes per
// turn of its round-robin: the chunk of its delivery order.
const ConsumerChunk = 64

// Consumer pulls events from every partition of a topic, in the delivery
// order ChunksFrom defines with ConsumerChunk events per turn. It is
// single-goroutine by design (like a Mofka consumer handle); create one per
// analysis thread. A fresh consumer starts at offset zero of every
// partition.
type Consumer struct {
	topic *Topic
	next  []uint64 // per partition, the next offset to read
	turn  int      // the partition the rest of the order starts at
	order []Chunk  // the order's chunks not read yet, as last computed
	buf   []Event  // read but not pulled yet
}

// NewConsumer subscribes to the topic. It does not fail, and no option has an
// effect; both are kept for the callers that compile against them (bench/e2e).
func (t *Topic) NewConsumer(ConsumerOptions) (*Consumer, error) {
	return &Consumer{topic: t, next: make([]uint64, len(t.partitions))}, nil
}

// Chunk is one stretch of a topic's delivery order: N consecutive events of
// partition Part from offset From, events Slot to Slot+N-1 of the order it
// was listed in.
type Chunk struct {
	Part int
	From uint64
	N    int
	Slot int
}

// ChunksFrom is the topic's delivery order, the one every reader of it
// follows: the rest of the events the topic holds now, for a reader at
// offset next[p] of each partition p with partition turn up next. Each
// partition's length is taken once; ChunkOrder says what the order is. A
// reader that decodes the chunks on several goroutines still places, or
// applies, every event where a sequential reader would.
func (t *Topic) ChunksFrom(next []uint64, turn, prefetch int) []Chunk {
	lens := make([]uint64, len(t.partitions))
	for i, p := range t.partitions {
		lens[i] = p.Length()
	}
	return ChunkOrder(next, lens, turn, prefetch)
}

// ChunkOrder is the delivery order over partitions of lengths lens, for a
// reader at offset next[p] of each partition p with partition turn up next:
// round-robin from partition turn, prefetch events of a partition per turn,
// and a partition with nothing left drops out of the rotation. A reader that
// learns the lengths from a log service (live.ReplayService) follows the
// order a reader of the Topic does.
func ChunkOrder(next, lens []uint64, turn, prefetch int) []Chunk {
	step := uint64(prefetch)
	from := make([]uint64, len(lens))
	var chunks uint64
	for i := range lens {
		from[i] = next[i]
		if lens[i] > from[i] {
			chunks += (lens[i] - from[i] + step - 1) / step
		}
	}
	out := make([]Chunk, 0, chunks)
	slot := 0
	for pi := turn; uint64(len(out)) < chunks; pi = (pi + 1) % len(lens) {
		if from[pi] < lens[pi] {
			c := Chunk{Part: pi, From: from[pi], N: int(min(step, lens[pi]-from[pi])), Slot: slot}
			out = append(out, c)
			from[pi] += uint64(c.N)
			slot += c.N
		}
	}
	return out
}

// Chunks is ChunksFrom for a reader that has read nothing: the whole order of
// the events the topic holds now.
func (t *Topic) Chunks(prefetch int) []Chunk {
	return t.ChunksFrom(make([]uint64, len(t.partitions)), 0, prefetch)
}

// chunk returns the next chunk of the consumer's order, computing the rest of
// the order again once what was computed last has been handed out.
func (c *Consumer) chunk() (Chunk, bool) {
	if len(c.order) == 0 {
		c.order = c.topic.ChunksFrom(c.next, c.turn, ConsumerChunk)
		if len(c.order) == 0 {
			return Chunk{}, false
		}
	}
	ch := c.order[0]
	c.order = c.order[1:]
	c.turn = (ch.Part + 1) % len(c.next)
	return ch, true
}

// advance records that the consumer read n events of chunk ch. A chunk read
// short (a visitor that stopped, a truncated partition) leaves the offsets
// the rest of the computed order assumed, so the order is computed again.
func (c *Consumer) advance(ch Chunk, n int) {
	c.next[ch.Part] = ch.From + uint64(n)
	if n < ch.N {
		c.order = nil
	}
}

// fill reads the order's next chunk into the internal buffer.
func (c *Consumer) fill() {
	ch, ok := c.chunk()
	if !ok {
		return
	}
	evs := c.topic.partitions[ch.Part].read(ch.From, ch.N)
	c.advance(ch, len(evs))
	c.buf = append(c.buf, evs...)
}

// Scan visits the metadata of every unread event, in the order Drain would
// deliver them, without copying it: metadata is the broker's stored bytes,
// immutable for the broker's life; do not write to them (Partition.Scan says
// why they never change). It is the bulk read of analyses that decode each
// event once.
func (c *Consumer) Scan(visit func(partition int, id uint64, metadata []byte) error) error {
	for _, ev := range c.buf {
		if err := visit(ev.Partition, ev.ID, ev.Metadata); err != nil {
			return err
		}
	}
	c.buf = nil
	for {
		ch, ok := c.chunk()
		if !ok {
			return nil
		}
		n := 0
		var err error
		c.topic.partitions[ch.Part].Scan(ch.From, ch.N, func(id uint64, metadata []byte) bool {
			if err = visit(ch.Part, id, metadata); err != nil {
				return false
			}
			n++
			return true
		})
		c.advance(ch, n)
		if err != nil {
			return err
		}
	}
}

// Pull returns the next event, or ok=false when no unread events exist.
func (c *Consumer) Pull() (Event, bool) {
	if len(c.buf) == 0 {
		c.fill()
	}
	if len(c.buf) == 0 {
		return Event{}, false
	}
	ev := c.buf[0]
	c.buf = c.buf[1:]
	return ev, true
}

// PullBatch returns up to max unread events (possibly fewer, empty at end of
// stream). It does not fail; the error result stays for the callers that
// compile against it (bench/e2e).
func (c *Consumer) PullBatch(max int) ([]Event, error) {
	var out []Event
	for len(out) < max {
		ev, ok := c.Pull()
		if !ok {
			break
		}
		out = append(out, ev)
	}
	return out, nil
}

// Drain pulls every remaining event. It does not fail; the error result stays
// for the callers that compile against it (bench/e2e).
func (c *Consumer) Drain() ([]Event, error) {
	var out []Event
	for {
		ev, ok := c.Pull()
		if !ok {
			return out, nil
		}
		out = append(out, ev)
	}
}
