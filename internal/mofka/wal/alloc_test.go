package wal_test

import (
	"fmt"
	"os"
	"runtime"
	"testing"

	"taskprov/internal/mofka"
	"taskprov/internal/mofka/wal"
)

// The writer is lean: a log owns no buffer until it has written a batch, and
// then one, sized to the batch and reused. (Each log used to zero a 1 MiB
// bufio.Writer at open that never held more than the batch in hand.)

// TestOpenDurableBrokerAllocatesLittle: opening a durable broker with the
// collector's layout — ten topics of two partitions, twenty logs — stays
// under 1 MiB of allocation in total.
func TestOpenDurableBrokerAllocatesLittle(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pin; the race detector allocates on its own")
	}
	dir := t.TempDir()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b, err := mofka.NewDurableBroker(mofka.Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := b.CreateTopic(mofka.TopicConfig{Name: fmt.Sprintf("topic-%d", i), Partitions: 2}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("opening a broker with 20 durable partitions allocated %d bytes, want under 1 MiB", got)
	}
}

// TestAppendBatchAllocatesNothing: in steady state a batch is framed into
// the log's one buffer and written from there.
func TestAppendBatchAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pin; the race detector allocates on its own")
	}
	for _, policy := range []wal.SyncPolicy{wal.SyncBatch, wal.SyncInterval, wal.SyncNever} {
		l, err := wal.Open(t.TempDir(), wal.Options{Sync: policy})
		if err != nil {
			t.Fatal(err)
		}
		recs := make([]wal.Record, 64)
		for i := range recs {
			recs[i] = wal.Record{Meta: []byte(fmt.Sprintf(`{"key":"('getitem-abc', %d)","from":"waiting","to":"processing"}`, i))}
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := l.AppendBatch(recs); err != nil {
				t.Fatal(err)
			}
		})
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if allocs != 0 {
			t.Errorf("policy %d: AppendBatch allocates %v times per batch, want 0", policy, allocs)
		}
	}
}

// TestOpenReadsThroughOneBuffer: Open validates every segment of a log
// through one read buffer, sized to the largest, so opening a three-segment
// log allocates less than twice its largest segment. (OpenReplay reads each
// segment into a buffer of its own, which its visitor may keep.)
func TestOpenReadsThroughOneBuffer(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pin; the race detector allocates on its own")
	}
	dir := t.TempDir()
	opts := wal.Options{Sync: wal.SyncNever}.WithSegmentBytes(256 << 10)
	l, err := wal.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]wal.Record, 64)
	for i := range recs {
		recs[i] = wal.Record{Meta: []byte(fmt.Sprintf(`{"key":"('getitem-abc', %d)","from":"waiting","to":"processing"}`, i)), Data: make([]byte, 1000)}
	}
	for l.Segments() < 3 {
		if _, err := l.AppendBatch(recs); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.AppendBatch(recs); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var largest int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		largest = max(largest, info.Size())
	}
	if len(entries) != 3 || largest < 256<<10 {
		t.Fatalf("%d segments, the largest %d bytes: want three of at least 256 KiB", len(entries), largest)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	l, err = wal.Open(dir, opts)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 2*uint64(largest) {
		t.Fatalf("opening a log of three segments allocated %d bytes, want under twice the largest (%d)", got, largest)
	}
}
