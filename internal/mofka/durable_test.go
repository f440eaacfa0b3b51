package mofka

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"taskprov/internal/mofka/wal"
)

func newDurable(t *testing.T, dir string) *Broker {
	t.Helper()
	b, err := NewDurableBroker(Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// drainAll pulls every event of a topic (metadata and data).
func drainAll(t *testing.T, b *Broker, topic string) []Event {
	t.Helper()
	tp, err := b.OpenTopic(topic)
	if err != nil {
		t.Fatal(err)
	}
	c, err := tp.NewConsumer(ConsumerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	evs, err := c.Drain()
	if err != nil {
		t.Fatal(err)
	}
	return evs
}

// TestDurableRecoveryAcrossRestart is the satellite recovery scenario:
// create topics, push, commit cursors, close, reopen from the same DataDir,
// and assert topics, offsets, event contents, and cursors are identical.
func TestDurableRecoveryAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	b := newDurable(t, dir)

	execs, err := b.CreateTopic(TopicConfig{Name: "task-executions", Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.CreateTopic(TopicConfig{Name: "warnings"}); err != nil {
		t.Fatal(err)
	}

	p := execs.NewProducer(ProducerOptions{BatchSize: 4})
	for i := 0; i < 20; i++ {
		if err := p.Push(Metadata{"i": i, "key": fmt.Sprintf("task-%d", i)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	c, err := execs.NewConsumer(ConsumerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	read := make([]uint64, execs.Partitions())
	for i := 0; i < 6; i++ {
		ev, ok, err := c.Pull()
		if err != nil || !ok {
			t.Fatalf("pull %d: ok=%v err=%v", i, ok, err)
		}
		read[ev.Partition] = ev.ID + 1
		if err := execs.CommitCursors("analysis", read); err != nil {
			t.Fatal(err)
		}
	}
	liveEvents := drainAll(t, b, "task-executions")
	liveCursor0 := b.LoadCursor("analysis", "task-executions", 0)
	liveCursor1 := b.LoadCursor("analysis", "task-executions", 1)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh broker on the same directory.
	b2 := newDurable(t, dir)
	defer b2.Close()
	if got := b2.Topics(); len(got) != 2 || got[0] != "task-executions" || got[1] != "warnings" {
		t.Fatalf("recovered topics = %v", got)
	}
	tp, err := b2.OpenTopic("task-executions")
	if err != nil {
		t.Fatal(err)
	}
	if tp.Partitions() != 2 {
		t.Fatalf("recovered partitions = %d", tp.Partitions())
	}
	if tp.Events() != 20 {
		t.Fatalf("recovered events = %d, want 20", tp.Events())
	}

	recEvents := drainAll(t, b2, "task-executions")
	if len(recEvents) != len(liveEvents) {
		t.Fatalf("recovered %d events, live had %d", len(recEvents), len(liveEvents))
	}
	for i := range liveEvents {
		l, r := liveEvents[i], recEvents[i]
		if l.Partition != r.Partition || l.ID != r.ID ||
			string(l.Metadata) != string(r.Metadata) {
			t.Fatalf("event %d differs: live %+v vs recovered %+v", i, l, r)
		}
	}

	if got := b2.LoadCursor("analysis", "task-executions", 0); got != liveCursor0 {
		t.Fatalf("cursor p0 = %d, want %d", got, liveCursor0)
	}
	if got := b2.LoadCursor("analysis", "task-executions", 1); got != liveCursor1 {
		t.Fatalf("cursor p1 = %d, want %d", got, liveCursor1)
	}
	// A resuming reader picks up exactly where the committed cursors left
	// off: 20 pushed, 6 consumed-and-committed.
	rest := 0
	for _, c := range tp.ChunksFrom([]uint64{liveCursor0, liveCursor1}, 0, ConsumerChunk) {
		rest += c.N
	}
	if rest != 14 {
		t.Fatalf("resumed order = %d events, want 14", rest)
	}
}

// TestDurableAppendsAfterRecovery verifies the log stays appendable with
// dense offsets after a reopen.
func TestDurableAppendsAfterRecovery(t *testing.T) {
	dir := t.TempDir()
	b := newDurable(t, dir)
	tp, err := b.CreateTopic(TopicConfig{Name: "t"})
	if err != nil {
		t.Fatal(err)
	}
	p := tp.NewProducer(ProducerOptions{BatchSize: 1})
	for i := 0; i < 5; i++ {
		if err := p.Push(Metadata{"i": i}, nil); err != nil {
			t.Fatal(err)
		}
	}
	b.Close()

	b2 := newDurable(t, dir)
	defer b2.Close()
	tp2, err := b2.OpenTopic("t")
	if err != nil {
		t.Fatal(err)
	}
	p2 := tp2.NewProducer(ProducerOptions{BatchSize: 1})
	for i := 5; i < 10; i++ {
		if err := p2.Push(Metadata{"i": i}, nil); err != nil {
			t.Fatal(err)
		}
	}
	// A shipped batch is visible once committed; Flush is the wait for that.
	if err := p2.Flush(); err != nil {
		t.Fatal(err)
	}
	evs := drainAll(t, b2, "t")
	if len(evs) != 10 {
		t.Fatalf("events after recovered append = %d", len(evs))
	}
	for i, ev := range evs {
		if ev.ID != uint64(i) {
			t.Fatalf("event %d has ID %d: offsets not dense across restart", i, ev.ID)
		}
	}
}

// TestDurableSurvivesTornTail simulates a kill -9 during a produce workload:
// the broker is abandoned without Close, the newest segment gets a garbage
// tail (a write cut off mid-record), and a reopen must recover every flushed
// event intact.
func TestDurableSurvivesTornTail(t *testing.T) {
	dir := t.TempDir()
	b := newDurable(t, dir) // default SyncBatch: flushed batches are on disk
	tp, err := b.CreateTopic(TopicConfig{Name: "t"})
	if err != nil {
		t.Fatal(err)
	}
	p := tp.NewProducer(ProducerOptions{BatchSize: 8})
	for i := 0; i < 32; i++ {
		if err := p.Push(Metadata{"i": i}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	// No Close: the process "dies" here. Scribble a torn record onto the
	// newest segment, as an interrupted append would leave behind.
	segs, err := filepath.Glob(filepath.Join(dir, "topics", "t", "p0000", "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v %v", segs, err)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = f.Write([]byte{0x13, 0x37, 0xde, 0xad})
	_ = f.Close()

	b2 := newDurable(t, dir)
	defer b2.Close()
	evs := drainAll(t, b2, "t")
	if len(evs) != 32 {
		t.Fatalf("recovered %d events, want all 32 flushed ones", len(evs))
	}
	for i, ev := range evs {
		m, err := ev.ParseMetadata()
		if err != nil || int(m["i"].(float64)) != i {
			t.Fatalf("event %d corrupt after torn-tail recovery: %v (%v)", i, m, err)
		}
	}
}

// TestCloseDrainsBufferedEventsFirst: events published before Close are
// still served to a consumer of the closed broker, then the stream ends.
func TestCloseDrainsBufferedEventsFirst(t *testing.T) {
	b := NewStandaloneBroker()
	tp, _ := b.CreateTopic(TopicConfig{Name: "t"})
	p := tp.NewProducer(ProducerOptions{})
	p.Push(Metadata{"x": 1}, nil)
	p.Close()
	b.Close()
	c, _ := tp.NewConsumer(ConsumerOptions{})
	ev, ok, err := c.Pull()
	if err != nil || !ok {
		t.Fatalf("pre-close event not served: ok=%v err=%v", ok, err)
	}
	if len(ev.Metadata) == 0 {
		t.Fatal("empty event")
	}
	if _, ok, err := c.Pull(); ok || err != nil {
		t.Fatalf("after drain: ok=%v err=%v, want the end of the stream", ok, err)
	}
}

// TestClosedBrokerRejectsWrites: appends and topic creation fail after Close.
func TestClosedBrokerRejectsWrites(t *testing.T) {
	b := NewStandaloneBroker()
	tp, _ := b.CreateTopic(TopicConfig{Name: "t"})
	p := tp.NewProducer(ProducerOptions{BatchSize: 1})
	b.Close()
	if err := p.Push(Metadata{"x": 1}, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("push after close: %v", err)
	}
	if _, err := b.CreateTopic(TopicConfig{Name: "u"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("create after close: %v", err)
	}
}

// TestPostMortemOpenIsReadOnly: OpenPostMortem replays everything but leaves
// the directory byte-identical, even when the tail is torn.
func TestPostMortemOpenIsReadOnly(t *testing.T) {
	dir := t.TempDir()
	b := newDurable(t, dir)
	tp, _ := b.CreateTopic(TopicConfig{Name: "t"})
	p := tp.NewProducer(ProducerOptions{BatchSize: 1})
	for i := 0; i < 7; i++ {
		p.Push(Metadata{"i": i}, nil)
	}
	tp.CommitCursors("mon", []uint64{1})
	b.Close()
	// Torn tail, as left by a crash.
	segs, _ := filepath.Glob(filepath.Join(dir, "topics", "t", "p0000", "*.seg"))
	f, _ := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0o644)
	_, _ = f.Write([]byte("torn"))
	_ = f.Close()
	before, _ := os.Stat(segs[len(segs)-1])

	pm, err := OpenPostMortem(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer pm.Close()
	if evs := drainAll(t, pm, "t"); len(evs) != 7 {
		t.Fatalf("post-mortem drain = %d events", len(evs))
	}
	if got := pm.LoadCursor("mon", "t", 0); got != 1 {
		t.Fatalf("post-mortem cursor = %d", got)
	}
	after, _ := os.Stat(segs[len(segs)-1])
	if after.Size() != before.Size() {
		t.Fatalf("post-mortem open mutated the log: %d -> %d bytes", before.Size(), after.Size())
	}
	// Post-mortem brokers refuse appends through the producer path too.
	tp2, _ := pm.OpenTopic("t")
	p2 := tp2.NewProducer(ProducerOptions{BatchSize: 1})
	if err := p2.Push(Metadata{"x": 1}, nil); err == nil {
		t.Fatal("append on post-mortem broker succeeded")
	}
}

// TestDurableTopicNameValidation: path-hostile topic names are rejected
// rather than writing outside the data dir.
func TestDurableTopicNameValidation(t *testing.T) {
	b := newDurable(t, t.TempDir())
	defer b.Close()
	for _, name := range []string{"a/b", `a\b`, "..", "."} {
		if _, err := b.CreateTopic(TopicConfig{Name: name}); err == nil {
			t.Fatalf("topic name %q accepted on durable broker", name)
		}
	}
}

// TestDurableWALOptionsRespected: the sync policy flows through to the
// partition logs — only a log that fsyncs per batch hands its commit to the
// committer — and a partition recovers a log of many segments.
func TestDurableWALOptionsRespected(t *testing.T) {
	for _, policy := range []wal.SyncPolicy{wal.SyncBatch, wal.SyncNever} {
		b, err := NewDurableBroker(Options{DataDir: t.TempDir(), WAL: wal.Options{Sync: policy}})
		if err != nil {
			t.Fatal(err)
		}
		tp, _ := b.CreateTopic(TopicConfig{Name: "t"})
		c, err := tp.partitions[0].Submit([][]byte{[]byte(`{}`)})
		if err != nil {
			t.Fatal(err)
		}
		if staged := c != nil; staged != (policy == wal.SyncBatch) {
			t.Fatalf("policy %d: Submit staged a commit: %v", policy, staged)
		}
		if err := c.Wait(); err != nil {
			t.Fatal(err)
		}
		b.Close()
	}

	dir := t.TempDir()
	b := newDurable(t, dir)
	tp, _ := b.CreateTopic(TopicConfig{Name: "t"})
	p := tp.NewProducer(ProducerOptions{BatchSize: 1})
	for i := 0; i < 50; i++ {
		p.Push(Metadata{"i": i, "pad": "xxxxxxxxxxxxxxxx"}, nil)
	}
	b.Close()
	resegment(t, dir, 256)
	segs, _ := filepath.Glob(filepath.Join(dir, "topics", "t", "p0000", "*.seg"))
	if len(segs) < 3 {
		t.Fatalf("want a log of several segments, have %d", len(segs))
	}
	b2 := newDurable(t, dir)
	defer b2.Close()
	if evs := drainAll(t, b2, "t"); len(evs) != 50 {
		t.Fatalf("recovered %d events across segments", len(evs))
	}
}

// resegment cuts every segment under root into segments of about max bytes,
// at frame boundaries and each named by its first offset: the directory a log
// that rotated at max would have left. A log rotates at 64 MiB, and the cases
// that need many segments hold a few kilobytes.
func resegment(t *testing.T, root string, max int) {
	t.Helper()
	var segs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".seg") {
			segs = append(segs, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range segs {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		base, err := strconv.ParseUint(strings.TrimSuffix(filepath.Base(path), ".seg"), 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
		for len(raw) > 0 {
			cut, frames := 0, uint64(0)
			for cut < max && cut+8 <= len(raw) {
				cut += 8 + int(binary.LittleEndian.Uint32(raw[cut:])) // u32 payload length, u32 CRC, payload
				frames++
			}
			cut = min(cut, len(raw))
			if err := os.WriteFile(filepath.Join(filepath.Dir(path), fmt.Sprintf("%020d.seg", base)), raw[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			raw, base = raw[cut:], base+frames
		}
	}
}
