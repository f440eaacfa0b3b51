package mofka

import (
	"errors"
	"fmt"
	"testing"
)

func newTopic(t *testing.T, name string, parts int) (*Broker, *Topic) {
	t.Helper()
	b := NewStandaloneBroker()
	tp, err := b.CreateTopic(TopicConfig{Name: name, Partitions: parts})
	if err != nil {
		t.Fatal(err)
	}
	return b, tp
}

func TestCreateOpenTopic(t *testing.T) {
	b, _ := newTopic(t, "tasks", 2)
	if _, err := b.CreateTopic(TopicConfig{Name: "tasks"}); !errors.Is(err, ErrTopicExists) {
		t.Fatalf("duplicate create err = %v", err)
	}
	tp, err := b.OpenTopic("tasks")
	if err != nil || tp.Partitions() != 2 {
		t.Fatalf("open: %v, partitions=%d", err, tp.Partitions())
	}
	if _, err := b.OpenTopic("none"); !errors.Is(err, ErrNoTopic) {
		t.Fatalf("open missing err = %v", err)
	}
	if got := b.Topics(); len(got) != 1 || got[0] != "tasks" {
		t.Fatalf("Topics = %v", got)
	}
}

func TestOpenOrCreateTopic(t *testing.T) {
	b := NewStandaloneBroker()
	a, err := b.OpenOrCreateTopic(TopicConfig{Name: "t", Partitions: 3})
	if err != nil {
		t.Fatal(err)
	}
	c, err := b.OpenOrCreateTopic(TopicConfig{Name: "t", Partitions: 99})
	if err != nil || c != a {
		t.Fatalf("second OpenOrCreate: %v, same=%v", err, c == a)
	}
}

func TestProduceConsumeRoundTrip(t *testing.T) {
	_, tp := newTopic(t, "t", 1)
	p := tp.NewProducer(ProducerOptions{})
	for i := 0; i < 10; i++ {
		err := p.Push(Metadata{"i": i, "kind": "test"}, []byte(fmt.Sprintf("payload-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	c, err := tp.NewConsumer(ConsumerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	evs, err := c.Drain()
	if err != nil || len(evs) != 10 {
		t.Fatalf("drained %d events, err %v", len(evs), err)
	}
	for i, ev := range evs {
		m, err := ev.ParseMetadata()
		if err != nil {
			t.Fatal(err)
		}
		if int(m["i"].(float64)) != i {
			t.Fatalf("event %d metadata = %v", i, m)
		}
		if string(ev.Data) != fmt.Sprintf("payload-%d", i) {
			t.Fatalf("event %d data = %q", i, ev.Data)
		}
	}
}

func TestConsumerNoData(t *testing.T) {
	_, tp := newTopic(t, "t", 1)
	p := tp.NewProducer(ProducerOptions{})
	p.Push(Metadata{"k": "v"}, []byte("big payload"))
	p.Flush()
	c, _ := tp.NewConsumer(ConsumerOptions{NoData: true})
	ev, ok, err := c.Pull()
	if err != nil || !ok {
		t.Fatal(err)
	}
	if ev.Data != nil {
		t.Fatalf("NoData consumer got payload %q", ev.Data)
	}
	if len(ev.Metadata) == 0 {
		t.Fatal("metadata missing")
	}
}

func TestConsumerPartitionSubset(t *testing.T) {
	_, tp := newTopic(t, "t", 4)
	p := tp.NewProducer(ProducerOptions{BatchSize: 1})
	for i := 0; i < 8; i++ {
		p.Push(Metadata{"i": i}, nil)
	}
	c, err := tp.NewConsumer(ConsumerOptions{Partitions: []int{1, 3}})
	if err != nil {
		t.Fatal(err)
	}
	evs, _ := c.Drain()
	if len(evs) != 4 {
		t.Fatalf("subset consumer got %d events, want 4", len(evs))
	}
	for _, ev := range evs {
		if ev.Partition != 1 && ev.Partition != 3 {
			t.Fatalf("event from partition %d", ev.Partition)
		}
	}
}

func TestConsumerInvalidPartition(t *testing.T) {
	_, tp := newTopic(t, "t", 2)
	if _, err := tp.NewConsumer(ConsumerOptions{Partitions: []int{5}}); !errors.Is(err, ErrNoPartition) {
		t.Fatalf("err = %v", err)
	}
}

func TestCommitAndResume(t *testing.T) {
	b, tp := newTopic(t, "t", 1)
	p := tp.NewProducer(ProducerOptions{})
	for i := 0; i < 10; i++ {
		p.Push(Metadata{"i": i}, nil)
	}
	p.Flush()

	c1, _ := tp.NewConsumer(ConsumerOptions{Name: "analysis"})
	for i := 0; i < 4; i++ {
		ev, ok, _ := c1.Pull()
		if !ok {
			t.Fatal("pull failed")
		}
		if err := c1.CommitBatch([]Event{ev}); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.LoadCursor("analysis", "t", 0); got != 4 {
		t.Fatalf("cursor = %d, want 4", got)
	}

	c2, _ := tp.NewConsumer(ConsumerOptions{Name: "analysis", FromCommitted: true})
	evs, _ := c2.Drain()
	if len(evs) != 6 {
		t.Fatalf("resumed consumer got %d events, want 6", len(evs))
	}
	m, _ := evs[0].ParseMetadata()
	if int(m["i"].(float64)) != 4 {
		t.Fatalf("resume started at %v", m)
	}
}

func TestAnonymousCommitFails(t *testing.T) {
	_, tp := newTopic(t, "t", 1)
	c, _ := tp.NewConsumer(ConsumerOptions{})
	if err := c.CommitBatch([]Event{{}}); err == nil {
		t.Fatal("anonymous commit succeeded")
	}
}

func TestPullBatchAndProgress(t *testing.T) {
	_, tp := newTopic(t, "t", 1)
	p := tp.NewProducer(ProducerOptions{})
	for i := 0; i < 25; i++ {
		p.Push(Metadata{"i": i}, nil)
	}
	p.Flush()
	c, _ := tp.NewConsumer(ConsumerOptions{Prefetch: 10})
	batch, err := c.PullBatch(20)
	if err != nil || len(batch) != 20 {
		t.Fatalf("batch = %d events, %v", len(batch), err)
	}
	rest, _ := c.Drain()
	if len(rest) != 5 {
		t.Fatalf("rest = %d", len(rest))
	}
	if lag := c.Lag()[0]; lag != 0 {
		t.Fatalf("lag = %d after reading everything", lag)
	}
}

func TestMetadataEncodeDecode(t *testing.T) {
	m := Metadata{"key": "k1", "n": 3.5, "nested": map[string]any{"a": true}}
	b := m.Encode()
	got, err := DecodeMetadata(b)
	if err != nil {
		t.Fatal(err)
	}
	if got["key"] != "k1" || got["n"] != 3.5 {
		t.Fatalf("round trip = %v", got)
	}
	if _, err := DecodeMetadata([]byte("{bad")); err == nil {
		t.Fatal("bad metadata decoded")
	}
}

func TestEmptyTopicNameRejected(t *testing.T) {
	b := NewStandaloneBroker()
	if _, err := b.CreateTopic(TopicConfig{}); err == nil {
		t.Fatal("empty topic name accepted")
	}
}
