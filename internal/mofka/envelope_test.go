package mofka

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
)

// brokerFootprint is what a rejected append must leave as it was: the
// partition's length, its WAL's next offset, and Warabi's regions and bytes.
type brokerFootprint struct {
	length, walNext uint64
	regions         int
	written         int64
}

func footprint(b *Broker, p *Partition) brokerFootprint {
	f := brokerFootprint{length: p.Length()}
	if p.log != nil {
		f.walNext = p.log.NextOffset()
	}
	f.regions, f.written, _ = b.data.Stats()
	return f
}

// TestAppendRejectsInvalidMetadata: a batch holding metadata that is not JSON
// is refused whole, through Partition.Append and through a producer, on an
// in-memory and on a durable broker, and leaves nothing behind.
func TestAppendRejectsInvalidMetadata(t *testing.T) {
	good := []byte(`{"k":1}`)
	for _, bad := range []string{`{"k":`, `{"k":1}}`, `{k:1}`, "{\"k\":\"\x01\"}", `nope`} {
		for name, b := range map[string]*Broker{"memory": NewStandaloneBroker(), "durable": newDurable(t, t.TempDir())} {
			tp, err := b.CreateTopic(TopicConfig{Name: "t", Partitions: 1})
			if err != nil {
				t.Fatal(err)
			}
			p := tp.partitions[0]
			if err := p.Append([][]byte{good}, [][]byte{[]byte("payload")}); err != nil {
				t.Fatal(err)
			}
			before := footprint(b, p)

			err = p.Append([][]byte{good, []byte(bad), good}, [][]byte{nil, []byte("data"), nil})
			if !errors.Is(err, ErrInvalidEvent) {
				t.Fatalf("%s: Append(%q) = %v, want ErrInvalidEvent", name, bad, err)
			}
			if after := footprint(b, p); after != before {
				t.Fatalf("%s: rejected Append(%q) left %+v, was %+v", name, bad, after, before)
			}

			prod := tp.NewProducer(ProducerOptions{FlushRetries: 1, RetryBackoff: 1})
			if err := prod.PushRaw([]byte(bad), nil); err != nil {
				t.Fatalf("%s: PushRaw only enqueues, got %v", name, err)
			}
			if err := prod.Flush(); !errors.Is(err, ErrInvalidEvent) {
				t.Fatalf("%s: Flush after PushRaw(%q) = %v, want ErrInvalidEvent", name, bad, err)
			}
			if after := footprint(b, p); after != before {
				t.Fatalf("%s: rejected PushRaw(%q) left %+v, was %+v", name, bad, after, before)
			}
			if evs := drainAll(t, b, "t"); len(evs) != 1 || !bytes.Equal(evs[0].Metadata, good) {
				t.Fatalf("%s: visible events after rejections: %v", name, evs)
			}
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestAppendStoresCompactedMetadata: metadata with whitespace (and the
// characters json.Marshal escapes) is served in exactly the form marshalling
// the envelope through encoding/json used to store, live and after recovery,
// while the WAL keeps the bytes as pushed.
func TestAppendStoresCompactedMetadata(t *testing.T) {
	pushed := [][]byte{
		[]byte(" {\n\t\"key\" : \"a b\" ,\r\n \"deps\" : [ 1 , 2 ] } "),
		[]byte(`{"html":"<a href=\"x\">&</a>","sep":"` + "\u2028 \u2029" + `"}`),
		[]byte(`{"already":"compact","n":[1,2.5e-7,{"x":null}]}`),
		nil,
		[]byte(`  7  `),
	}
	want := make([][]byte, len(pushed))
	for i, m := range pushed {
		// The old path: the metadata as a RawMessage member of a marshalled
		// struct.
		doc, err := json.Marshal(struct {
			M json.RawMessage `json:"m"`
		}{m})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = doc[len(`{"m":`) : len(doc)-1]
	}
	if !bytes.Equal(want[2], pushed[2]) || bytes.Equal(want[0], pushed[0]) || bytes.Equal(want[1], pushed[1]) {
		t.Fatalf("test inputs do not exercise both paths: %q", want)
	}
	check := func(stage string, b *Broker) {
		evs := drainAll(t, b, "t")
		if len(evs) != len(pushed) {
			t.Fatalf("%s: %d events", stage, len(evs))
		}
		for i, ev := range evs {
			if !bytes.Equal(ev.Metadata, want[i]) {
				t.Fatalf("%s: event %d stored as %q, encoding/json stored %q", stage, i, ev.Metadata, want[i])
			}
		}
	}
	dir := t.TempDir()
	b := newDurable(t, dir)
	tp, err := b.CreateTopic(TopicConfig{Name: "t", Partitions: 1})
	if err != nil {
		t.Fatal(err)
	}
	prod := tp.NewProducer(ProducerOptions{BatchSize: 2})
	for _, m := range pushed {
		if err := prod.PushRaw(m, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := prod.Close(); err != nil {
		t.Fatal(err)
	}
	p := tp.partitions[0]
	before := footprint(b, p)
	if before.length != uint64(len(pushed)) || before.walNext != uint64(len(pushed)) {
		t.Fatalf("footprint after %d pushes: %+v", len(pushed), before)
	}
	check("live", b)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	re := newDurable(t, dir)
	check("recovered", re)
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSplitEnvelope: the frame comes apart again whatever the metadata holds,
// including text that looks like the frame's own members.
func TestSplitEnvelope(t *testing.T) {
	for _, meta := range []string{
		`{}`, `null`, `7`, `"s"`, `{"k":"v"}`,
		`{"m":{"m":1},"r":2,"o":3,"s":4}`,
		`{"x":",\"r\":1,\"o\":2,\"s\":3}"}`,
		`{"tail":1,"r":9,"o":8,"s":7}`,
		`[1,{"r":5},"o",{"s":6}]`,
		`{"deep":{"r":[{"o":{"s":"}"}}]}}`,
	} {
		for _, n := range []struct {
			region       uint64
			offset, size int64
		}{{0, 0, 0}, {7, 4096, 512}, {1<<64 - 1, 1<<63 - 1, 1<<63 - 1}} {
			if err := checkMetadata([]byte(meta)); err != nil {
				t.Fatal(err)
			}
			doc := appendEnvelope([]byte("prefix"), []byte(meta), n.region, n.offset, n.size)[len("prefix"):]
			if want := envelopeLen([]byte(meta), n.region, n.offset, n.size); len(doc) != want {
				t.Fatalf("envelopeLen(%s) = %d, envelope is %d bytes", meta, want, len(doc))
			}
			// The frame is the JSON object the reflect-built envelope was.
			var old struct {
				M json.RawMessage `json:"m"`
				R uint64          `json:"r"`
				O int64           `json:"o"`
				S int64           `json:"s"`
			}
			if err := json.Unmarshal(doc, &old); err != nil || string(old.M) != meta || old.R != n.region || old.O != n.offset || old.S != n.size {
				t.Fatalf("envelope %s does not read back through encoding/json: %+v, %v", doc, old, err)
			}
			if again, err := json.Marshal(&old); err != nil || !bytes.Equal(again, doc) {
				t.Fatalf("encoding/json frames %s, appendEnvelope %s (%v)", again, doc, err)
			}
			m, r, o, s, err := splitEnvelope(doc)
			if err != nil || string(m) != meta || r != n.region || o != n.offset || s != n.size {
				t.Fatalf("splitEnvelope(%s) = %s %d %d %d, %v", doc, m, r, o, s, err)
			}
		}
	}
	for _, doc := range []string{``, `{}`, `{"m":}`, `{"m":1,"r":2,"o":3}`, `{"m":1,"r":2,"o":3,"s":}`, `{"m":1,"r":2,"o":3,"s":4`,
		`{"m":1,"r":-2,"o":3,"s":4}`, `{"x":1,"r":2,"o":3,"s":4}`, `{"m":,"r":2,"o":3,"s":4}`, `{"m":1,"r":2,"o":3,"s":123456789012345678901}`} {
		if m, _, _, _, err := splitEnvelope([]byte(doc)); err == nil {
			t.Errorf("splitEnvelope(%q) accepted, metadata %q", doc, m)
		}
	}
}

// TestConsumerScanMatchesDrain: Scan visits what Drain returns, in its
// order, picking up after events an earlier Pull buffered.
func TestConsumerScanMatchesDrain(t *testing.T) {
	_, tp := newTopic(t, "t", 3)
	prod := tp.NewProducer(ProducerOptions{BatchSize: 5})
	for i := 0; i < 400; i++ {
		if err := prod.Push(Metadata{"i": i}, []byte("payload")); err != nil {
			t.Fatal(err)
		}
	}
	if err := prod.Flush(); err != nil {
		t.Fatal(err)
	}
	c, err := tp.NewConsumer(ConsumerOptions{Prefetch: 16})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := tp.NewConsumer(ConsumerOptions{Prefetch: 16})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Drain()
	if err != nil || len(want) != 400 {
		t.Fatalf("drained %d, %v", len(want), err)
	}
	// Three pulls leave the rest of a prefetch buffered.
	var got []Event
	for i := 0; i < 3; i++ {
		ev, ok, err := c.Pull()
		if err != nil || !ok {
			t.Fatal(ok, err)
		}
		got = append(got, ev)
	}
	err = c.Scan(func(partition int, id uint64, metadata []byte) error {
		got = append(got, Event{Partition: partition, ID: id, Metadata: append([]byte(nil), metadata...)})
		return nil
	})
	if err != nil || len(got) != len(want) {
		t.Fatalf("scanned %d of %d, %v", len(got), len(want), err)
	}
	for i := range want {
		if got[i].Partition != want[i].Partition || got[i].ID != want[i].ID || !bytes.Equal(got[i].Metadata, want[i].Metadata) {
			t.Fatalf("event %d: scan %d/%d %s, drain %d/%d %s", i, got[i].Partition, got[i].ID, got[i].Metadata,
				want[i].Partition, want[i].ID, want[i].Metadata)
		}
	}
	if ev, ok, err := c.Pull(); ok || err != nil {
		t.Fatalf("pull after a full scan: %v %v %v", ev, ok, err)
	}
	stop := errors.New("stop")
	c2, err := tp.NewConsumer(ConsumerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := c2.Scan(func(int, uint64, []byte) error {
		if n++; n == 10 {
			return stop
		}
		return nil
	}); !errors.Is(err, stop) || n != 10 {
		t.Fatalf("scan stopped after %d with %v", n, err)
	}
}

// TestEventsArePrivateCopies: what a consumer is handed shares no memory a
// write could reach — not with the store, not with the event next to it.
func TestEventsArePrivateCopies(t *testing.T) {
	b, tp := newTopic(t, "t", 1)
	prod := tp.NewProducer(ProducerOptions{})
	for i := 0; i < 8; i++ {
		if err := prod.Push(Metadata{"i": i}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := prod.Flush(); err != nil {
		t.Fatal(err)
	}
	first := drainAll(t, b, "t")
	for i := range first {
		// Scribble over the event and try to grow it into its neighbour.
		for j := range first[i].Metadata {
			first[i].Metadata[j] = 'X'
		}
		first[i].Metadata = append(first[i].Metadata, "XXXXXXXXXXXXXXXX"...)
	}
	for i, ev := range drainAll(t, b, "t") {
		if want := (Metadata{"i": i}).Encode(); !bytes.Equal(ev.Metadata, want) {
			t.Fatalf("event %d reads %q after a consumer wrote to its copy", i, ev.Metadata)
		}
	}
	evs := drainAll(t, b, "t")
	evs[0].Metadata = append(evs[0].Metadata, "XXXXXXXX"...)
	if want := (Metadata{"i": 1}).Encode(); !bytes.Equal(evs[1].Metadata, want) {
		t.Fatalf("appending to event 0 reached event 1: %q", evs[1].Metadata)
	}
}

// TestProducerReusesBatchMemory: once a batch has shipped, the next ones are
// built in its memory — no allocation per event in the producer — and the
// events already delivered are untouched by the reuse.
func TestProducerReusesBatchMemory(t *testing.T) {
	b, tp := newTopic(t, "t", 2)
	prod := tp.NewProducer(ProducerOptions{BatchSize: 16})
	meta := []byte(`{"key":"a-task-key","worker":"tcp://10.0.0.1:9000"}`)
	push := func() {
		if err := prod.PushRaw(meta, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 256; i++ {
		push()
	}
	// What remains is the broker's side: per batch, not per event.
	if perEvent := testing.AllocsPerRun(2048, push); perEvent > 1 {
		t.Fatalf("PushRaw allocates %.2f times per event", perEvent)
	}
	if err := prod.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, ev := range drainAll(t, b, "t") {
		if !bytes.Equal(ev.Metadata, meta) {
			t.Fatalf("event %d reads %q", i, ev.Metadata)
		}
	}
}
