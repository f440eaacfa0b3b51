package mofka

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"taskprov/internal/mofka/wal"
)

// brokerFootprint is what a rejected append must leave as it was: the
// partition's length, its documents and its WAL's next offset.
type brokerFootprint struct {
	length, docs, walNext uint64
}

func footprint(p *Partition) brokerFootprint {
	f := brokerFootprint{length: p.Length()}
	p.Scan(0, 0, func(uint64, []byte) bool { f.docs++; return true })
	if p.log != nil {
		f.walNext = p.log.NextOffset()
	}
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
			if err := p.Append([][]byte{good}, nil); err != nil {
				t.Fatal(err)
			}
			before := footprint(p)

			err = p.Append([][]byte{good, []byte(bad), good}, nil)
			if !errors.Is(err, ErrInvalidEvent) {
				t.Fatalf("%s: Append(%q) = %v, want ErrInvalidEvent", name, bad, err)
			}
			if after := footprint(p); after != before {
				t.Fatalf("%s: rejected Append(%q) left %+v, was %+v", name, bad, after, before)
			}

			prod := tp.NewProducer(ProducerOptions{FlushRetries: 1, RetryBackoff: 1})
			if err := prod.PushRaw([]byte(bad), nil); err != nil {
				t.Fatalf("%s: PushRaw only enqueues, got %v", name, err)
			}
			if err := prod.Flush(); !errors.Is(err, ErrInvalidEvent) {
				t.Fatalf("%s: Flush after PushRaw(%q) = %v, want ErrInvalidEvent", name, bad, err)
			}
			if after := footprint(p); after != before {
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
	before := footprint(p)
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

// served checks that the one partition of tp holds exactly n events, each
// served with want as its metadata — through Partition.Scan, and through a
// consumer's PullBatch.
func served(t *testing.T, stage string, tp *Topic, want []byte, n int) {
	t.Helper()
	var scanned [][]byte
	tp.partitions[0].Scan(0, 0, func(_ uint64, m []byte) bool {
		scanned = append(scanned, m)
		return true
	})
	c, err := tp.NewConsumer(ConsumerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	evs, err := c.PullBatch(n + 1)
	if err != nil || len(evs) != n || len(scanned) != n {
		t.Fatalf("%s: pulled %d and scanned %d of %d events, %v", stage, len(evs), len(scanned), n, err)
	}
	for i, ev := range evs {
		if !bytes.Equal(scanned[i], want) || !bytes.Equal(ev.Metadata, want) {
			t.Fatalf("%s: event %d scans as %q and pulls as %q, want %q", stage, i, scanned[i], ev.Metadata, want)
		}
	}
}

// roundTrip appends two batches of three events of metadata m to an
// in-memory partition, and checks that every event is served as want, the
// stored form of m. The same must hold for a partition sharing the first two
// events (ShareFrom) and for the source cut back to its first (TruncateTo),
// once each has appended a batch after them; and, if durable, for a durable
// partition live and after Close and OpenPostMortem.
func roundTrip(t *testing.T, m, want []byte, durable bool) {
	t.Helper()
	batch := [][]byte{m, m, m}
	appendAll := func(p *Partition, batches int) {
		t.Helper()
		for range batches {
			if err := p.Append(batch, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	_, tp := newTopic(t, "t", 1)
	src := tp.partitions[0]
	appendAll(src, 2)
	served(t, "appended", tp, want, 6)

	_, vtp := newTopic(t, "t", 1)
	view := vtp.partitions[0]
	if err := view.ShareFrom(src, 2); err != nil {
		t.Fatal(err)
	}
	if err := src.TruncateTo(1); err != nil {
		t.Fatal(err)
	}
	appendAll(src, 1)
	appendAll(view, 1)
	served(t, "truncated", tp, want, 4)
	served(t, "shared", vtp, want, 5)
	if !durable {
		return
	}

	dir := t.TempDir()
	d, err := NewDurableBroker(Options{DataDir: dir, WAL: wal.Options{Sync: wal.SyncNever}})
	if err != nil {
		t.Fatal(err)
	}
	dtp, err := d.CreateTopic(TopicConfig{Name: "t", Partitions: 1})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(dtp.partitions[0], 2)
	served(t, "durable", dtp, want, 6)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	pm, err := OpenPostMortem(dir)
	if err != nil {
		t.Fatal(err)
	}
	ptp, err := pm.OpenTopic("t")
	if err != nil {
		t.Fatal(err)
	}
	served(t, "post-mortem", ptp, want, 6)
}

// TestPartitionRoundTrip: whatever admitted metadata holds — text that looks
// like the members of the envelope the broker once wrapped it in, whitespace
// and characters the stored form escapes, nothing at all — a partition serves
// it in stored form, live, shared, truncated and post-mortem.
func TestPartitionRoundTrip(t *testing.T) {
	for _, meta := range []string{
		`{}`, `null`, `7`, `"s"`, `{"k":"v"}`, ``,
		`{"m":{"m":1},"r":2,"o":3,"s":4}`,
		`{"x":",\"r\":1,\"o\":2,\"s\":3}"}`,
		`{"tail":1,"r":9,"o":8,"s":7}`,
		`[1,{"r":5},"o",{"s":6}]`,
		`{"deep":{"r":[{"o":{"s":"}"}}]}}`,
		" {\n\t\"key\" : \"a b\" ,\r\n \"deps\" : [ 1 , 2 ] } ",
		`{"html":"<a href=\"x\">&</a>","sep":"` + "\u2028 \u2029" + `"}`,
	} {
		m := []byte(meta)
		want := []byte("null")
		if len(m) > 0 {
			want = referenceStored(t, m)
		}
		roundTrip(t, m, want, true)
	}
}

// TestPayloadRefused: an event is its metadata. A data payload offered
// through Producer.Push, Producer.PushRaw or Partition.Append is refused with
// ErrInvalidEvent before anything is stored — no document, no WAL record, the
// length unchanged — on an in-memory and on a durable broker; Append takes
// nil or all-empty data.
func TestPayloadRefused(t *testing.T) {
	good := []byte(`{"k":1}`)
	for name, b := range map[string]*Broker{"memory": NewStandaloneBroker(), "durable": newDurable(t, t.TempDir())} {
		tp, err := b.CreateTopic(TopicConfig{Name: "t", Partitions: 1})
		if err != nil {
			t.Fatal(err)
		}
		p := tp.partitions[0]
		if err := p.Append([][]byte{good, good}, [][]byte{nil, {}}); err != nil {
			t.Fatalf("%s: Append with empty data entries: %v", name, err)
		}
		before := footprint(p)
		want := brokerFootprint{length: 2, docs: 2}
		if name == "durable" {
			want.walNext = 2
		}
		if before != want {
			t.Fatalf("%s: footprint after one append %+v, want %+v", name, before, want)
		}
		prod := tp.NewProducer(ProducerOptions{BatchSize: 1})
		for call, err := range map[string]error{
			"Append":  p.Append([][]byte{good, good}, [][]byte{nil, []byte("x")}),
			"PushRaw": prod.PushRaw(good, []byte("x")),
			"Push":    prod.Push(Metadata{"k": 1}, []byte("x")),
		} {
			if !errors.Is(err, ErrInvalidEvent) {
				t.Errorf("%s: %s with a payload = %v, want ErrInvalidEvent", name, call, err)
			}
		}
		if err := prod.Close(); err != nil {
			t.Fatal(err)
		}
		if after := footprint(p); after != before {
			t.Fatalf("%s: a refused payload left %+v, was %+v", name, after, before)
		}
		if pushed, _ := prod.Stats(); pushed != 0 {
			t.Fatalf("%s: producer counts %d refused events as pushed", name, pushed)
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestConsumerScanMatchesDrain: Scan visits what Drain returns, in its
// order, picking up after events an earlier Pull buffered.
func TestConsumerScanMatchesDrain(t *testing.T) {
	_, tp := newTopic(t, "t", 3)
	prod := tp.NewProducer(ProducerOptions{BatchSize: 5})
	for i := 0; i < 400; i++ {
		if err := prod.Push(Metadata{"i": i}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := prod.Flush(); err != nil {
		t.Fatal(err)
	}
	c, err := tp.NewConsumer(ConsumerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := tp.NewConsumer(ConsumerOptions{})
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
		ev, ok := c.Pull()
		if !ok {
			t.Fatalf("pull %d: the stream ended", i)
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
	if ev, ok := c.Pull(); ok {
		t.Fatalf("pull after a full scan: %v", ev)
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

// TestShareFromKeepsItsOwnIndex: a partition that shares another's committed
// events reads them; a truncation and new appends at the source, and appends
// to the sharer, each stay on their own side. A partition that is not empty, or a prefix the
// source has not committed, is refused.
func TestShareFromKeepsItsOwnIndex(t *testing.T) {
	_, stp := newTopic(t, "t", 1)
	src := stp.partitions[0]
	meta := func(who string, i int) []byte { return []byte(fmt.Sprintf(`{"who":%q,"i":%d}`, who, i)) }
	var metas [][]byte
	for i := 0; i < 1500; i++ { // three pages' worth
		metas = append(metas, meta("src", i))
	}
	if err := src.Append(metas, nil); err != nil {
		t.Fatal(err)
	}
	const shared = 1200
	view, vtp := newTopic(t, "t", 1)
	dst := vtp.partitions[0]
	if err := dst.ShareFrom(src, uint64(len(metas)+1)); err == nil {
		t.Fatal("ShareFrom past the source's committed length succeeded")
	}
	if err := dst.ShareFrom(src, shared); err != nil {
		t.Fatal(err)
	}
	if err := dst.ShareFrom(src, 1); err == nil {
		t.Fatal("ShareFrom into a partition that holds events succeeded")
	}

	// The source drops its tail and grows again; the sharer appends its own.
	if err := src.TruncateTo(1000); err != nil {
		t.Fatal(err)
	}
	if err := src.Append([][]byte{meta("src-after", 0)}, nil); err != nil {
		t.Fatal(err)
	}
	if err := dst.Append([][]byte{meta("dst", 0)}, nil); err != nil {
		t.Fatal(err)
	}

	evs := drainAll(t, view, "t")
	if len(evs) != shared+1 {
		t.Fatalf("sharer holds %d events, want %d", len(evs), shared+1)
	}
	for i, ev := range evs[:shared] {
		if !bytes.Equal(ev.Metadata, metas[i]) {
			t.Fatalf("shared event %d reads %s", i, ev.Metadata)
		}
	}
	if last := evs[shared]; !bytes.Equal(last.Metadata, meta("dst", 0)) {
		t.Fatalf("sharer's own event reads %s", last.Metadata)
	}
	if n := src.Length(); n != 1001 {
		t.Fatalf("source holds %d events after its truncation and append, want 1001", n)
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
