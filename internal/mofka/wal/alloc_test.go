package wal_test

import (
	"fmt"
	"os"
	"runtime"
	"strings"
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

// TestOpenReadsThroughOneBuffer: Open keeps nothing of what it reads, so it
// validates every segment of a log through one window of 64 KiB: opening a
// log of three segments of 256 KiB allocates less than the window plus
// 16 KiB, a bound that does not grow with the segments. (It allocated just
// under twice the largest segment while the buffer was sized to it;
// OpenReplay with a visitor reads each segment into a buffer of its own.)
// Validating that log three times through one Window stays under the same
// bound: the logs share the window.
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
		recs[i] = wal.Record{Meta: []byte(fmt.Sprintf(`{"key":"('getitem-abc', %d)","from":"waiting","to":"processing","pad":"%s"}`, i, strings.Repeat("x", 1000)))}
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
	const bound = 64<<10 + 16<<10
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("opening a log of three segments, the largest %d bytes, allocated %d bytes", largest, got)
	if got >= bound {
		t.Fatalf("opening a log of three segments allocated %d bytes, want under %d (the window plus 16 KiB)", got, bound)
	}

	listings := make([]wal.Segments, 3)
	for i := range listings {
		if listings[i], err = wal.ListSegments(dir); err != nil {
			t.Fatal(err)
		}
	}
	var w wal.Window
	runtime.ReadMemStats(&before)
	for _, segs := range listings {
		n, err := wal.Validate(segs, &w)
		if err != nil || n != l.NextOffset() {
			t.Fatalf("Validate = %d, %v; the log holds %d records", n, err, l.NextOffset())
		}
	}
	runtime.ReadMemStats(&after)
	got = after.TotalAlloc - before.TotalAlloc
	t.Logf("validating it three times through one window allocated %d bytes", got)
	if got >= bound {
		t.Fatalf("validating a log three times through one window allocated %d bytes, want under %d (the window plus 16 KiB)", got, bound)
	}
}
