package wal_test

import (
	"fmt"
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
