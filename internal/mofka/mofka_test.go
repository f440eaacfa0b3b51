package mofka

import (
	"errors"
	"fmt"
	"reflect"
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
		err := p.Push(Metadata{"i": i, "kind": "test"}, nil)
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
	}
}

// TestConsumerNoData: NoData is accepted and has no effect — an event is its
// metadata — so a consumer with it reads what one without it reads.
func TestConsumerNoData(t *testing.T) {
	_, tp := newTopic(t, "t", 2)
	p := tp.NewProducer(ProducerOptions{})
	for i := 0; i < 5; i++ {
		p.Push(Metadata{"i": i}, nil)
	}
	p.Flush()
	var drained [2][]Event
	for i, opts := range []ConsumerOptions{{}, {NoData: true}} {
		c, _ := tp.NewConsumer(opts)
		evs, err := c.Drain()
		if err != nil || len(evs) != 5 {
			t.Fatalf("%+v: drained %d events, %v", opts, len(evs), err)
		}
		drained[i] = evs
	}
	if !reflect.DeepEqual(drained[0], drained[1]) {
		t.Fatalf("NoData consumer read %v, default one %v", drained[1], drained[0])
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

func TestPullBatchAndProgress(t *testing.T) {
	_, tp := newTopic(t, "t", 1)
	p := tp.NewProducer(ProducerOptions{})
	for i := 0; i < ConsumerChunk+25; i++ {
		p.Push(Metadata{"i": i}, nil)
	}
	p.Flush()
	c, _ := tp.NewConsumer(ConsumerOptions{})
	batch, err := c.PullBatch(ConsumerChunk + 20)
	if err != nil || len(batch) != ConsumerChunk+20 {
		t.Fatalf("batch = %d events, %v", len(batch), err)
	}
	rest, _ := c.Drain()
	if len(rest) != 5 {
		t.Fatalf("rest = %d", len(rest))
	}
	if ev, ok := c.Pull(); ok {
		t.Fatalf("pull after reading everything: %v", ev)
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

// TestScannedBytesSurviveTruncate: the metadata Consumer.Scan and
// Partition.Scan lend keep their content after the partition truncates them
// away and takes other events at the same offsets, on an in-memory and a
// durable broker alike: a decoded record may borrow them for the broker's
// life.
func TestScannedBytesSurviveTruncate(t *testing.T) {
	durable, err := NewDurableBroker(Options{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer durable.Close()
	for _, b := range []*Broker{NewStandaloneBroker(), durable} {
		tp, err := b.CreateTopic(TopicConfig{Name: "t", Partitions: 1})
		if err != nil {
			t.Fatal(err)
		}
		p := tp.partitions[0]
		batch := func(prefix string, n int) ([][]byte, [][]byte) {
			var metas, datas [][]byte
			for i := 0; i < n; i++ {
				metas = append(metas, []byte(fmt.Sprintf(`{"key":"%s-%04d"}`, prefix, i)))
				datas = append(datas, nil)
			}
			return metas, datas
		}
		metas, datas := batch("old", 700)
		if err := p.Append(metas, datas); err != nil {
			t.Fatal(err)
		}
		c, err := tp.NewConsumer(ConsumerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var lent [][]byte
		if err := c.Scan(func(_ int, _ uint64, metadata []byte) error {
			lent = append(lent, metadata)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		var ranged []byte
		p.Scan(650, 1, func(_ uint64, metadata []byte) bool { ranged = metadata; return true })
		if err := p.TruncateTo(100); err != nil {
			t.Fatal(err)
		}
		again, datas := batch("new", 700)
		if err := p.Append(again, datas); err != nil {
			t.Fatal(err)
		}
		for i, m := range lent {
			if string(m) != string(metas[i]) {
				t.Fatalf("lent metadata %d reads %s after truncate and re-append, want %s", i, m, metas[i])
			}
		}
		if string(ranged) != string(metas[650]) {
			t.Fatalf("Partition.Scan's metadata reads %s, want %s", ranged, metas[650])
		}
		p.Scan(100, 1, func(_ uint64, metadata []byte) bool { ranged = metadata; return true })
		if string(ranged) != string(again[0]) {
			t.Fatalf("offset 100 now reads %s, want %s", ranged, again[0])
		}
	}
}
