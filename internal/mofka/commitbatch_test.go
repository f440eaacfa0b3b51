package mofka

import (
	"errors"
	"testing"
)

// TestCommitBatch: a topic's cursors are committed as one batch, each
// partition's at its next offset, and what a reader resumed from them reads
// is exactly the rest of the order.
func TestCommitBatch(t *testing.T) {
	b, tp := newTopic(t, "t", 3)
	p := tp.NewProducer(ProducerOptions{})
	for i := 0; i < 12; i++ {
		p.Push(Metadata{"i": i}, nil)
	}
	p.Flush()

	c1, _ := tp.NewConsumer(ConsumerOptions{})
	evs, err := c1.PullBatch(9)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 9 {
		t.Fatalf("pulled %d events, want 9", len(evs))
	}
	// One cursor per partition, each at the highest pulled offset + 1.
	next := make([]uint64, tp.Partitions())
	for _, ev := range evs {
		next[ev.Partition] = max(next[ev.Partition], ev.ID+1)
	}
	if err := tp.CommitCursors("monitor", next); err != nil {
		t.Fatal(err)
	}
	for part, want := range next {
		if want == 0 {
			t.Fatalf("the batch left partition %d out; the test wants all three", part)
		}
		if got := b.LoadCursor("monitor", "t", part); got != want {
			t.Fatalf("cursor[%d] = %d, want %d", part, got, want)
		}
	}

	// A reader resumed from the cursors reads exactly the uncommitted rest.
	resumed := make([]uint64, tp.Partitions())
	for part := range resumed {
		resumed[part] = b.LoadCursor("monitor", "t", part)
	}
	rest := 0
	for _, c := range tp.ChunksFrom(resumed, 0, ConsumerChunk) {
		rest += c.N
	}
	if rest != 12-9 {
		t.Fatalf("resumed reader's order holds %d events, want 3", rest)
	}
}

func TestCommitBatchEmptyAndAnonymous(t *testing.T) {
	b, tp := newTopic(t, "t", 2)
	if err := tp.CommitCursors("n", []uint64{0, 0}); err != nil {
		t.Fatalf("nothing read: %v", err)
	}
	for part := range 2 {
		if next := b.LoadCursor("n", "t", part); next != 0 {
			t.Fatalf("committing nothing stored cursor[%d] = %d", part, next)
		}
	}
	if err := tp.CommitCursors("", []uint64{1, 0}); err == nil {
		t.Fatal("anonymous commit succeeded")
	}
}

func TestBrokerIsClosed(t *testing.T) {
	b := NewStandaloneBroker()
	if _, err := b.CreateTopic(TopicConfig{Name: "open"}); err != nil {
		t.Fatalf("fresh broker refuses a topic: %v", err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.CreateTopic(TopicConfig{Name: "shut"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed broker creates a topic: %v, want ErrClosed", err)
	}
}
