package wal

import (
	"fmt"
	"testing"
)

// benchRecords builds one producer-batch worth of realistic provenance
// events (~60-byte JSON metadata each).
func benchRecords(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			Meta: []byte(fmt.Sprintf(`{"key":"('getitem-abc', %d)","from":"waiting","to":"processing","at":%d.345}`, i, i)),
		}
	}
	return recs
}

// BenchmarkLogAppend measures raw batched-append throughput per sync policy.
func BenchmarkLogAppend(b *testing.B) {
	for _, tc := range []struct {
		name string
		sync SyncPolicy
	}{{"sync-never", SyncNever}, {"sync-interval", SyncInterval}, {"sync-batch", SyncBatch}} {
		b.Run(tc.name, func(b *testing.B) {
			l, err := Open(b.TempDir(), Options{Sync: tc.sync})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			recs := benchRecords(64)
			var bytes int64
			for _, r := range recs {
				bytes += frameSize(r)
			}
			b.SetBytes(bytes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := l.AppendBatch(recs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLogReplay measures sequential replay throughput over a populated
// log (the recovery / post-mortem load path).
func BenchmarkLogReplay(b *testing.B) {
	l, err := Open(b.TempDir(), Options{Sync: SyncNever})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	recs := benchRecords(64)
	const batches = 500
	var bytes int64
	for i := 0; i < batches; i++ {
		if _, err := l.AppendBatch(recs); err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range recs {
		bytes += frameSize(r)
	}
	b.SetBytes(bytes * batches)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		if err := l.Replay(0, func(uint64, Record) bool { n++; return true }); err != nil {
			b.Fatal(err)
		}
		if n != batches*len(recs) {
			b.Fatalf("replayed %d records", n)
		}
	}
}
