package cluster

import (
	"fmt"
	"testing"

	"taskprov/internal/mofka"
)

// The cluster benchmarks quantify the price of quorum replication relative
// to a standalone broker on the identical workload: one producer pushing
// pre-encoded provenance-sized events (a ~200-byte metadata document) in
// batches of 128 across 4 partitions. They are for
// measuring while working on the replication path; the figures the docs
// quote are bench/e2e's cluster.push_rf{1,2,3}_ns_per_event.

var benchMeta = []byte(`{"task":"process_image","worker":3,"hostname":"nid00123","submitted":12.5,"started":13.1,"finished":14.9,"status":"done","nbytes":1048576,"deps":["t-000120","t-000121"]}`)

func benchPush(b *testing.B, push func(meta, data []byte) error, flush func() error) {
	b.Helper()
	b.SetBytes(int64(len(benchMeta)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := push(benchMeta, nil); err != nil {
			b.Fatal(err)
		}
	}
	if err := flush(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkStandalonePushBatch is the single-broker baseline.
func BenchmarkStandalonePushBatch(b *testing.B) {
	broker := mofka.NewStandaloneBroker()
	defer func() { _ = broker.Close() }()
	topic, err := broker.CreateTopic(mofka.TopicConfig{Name: "bench", Partitions: 4})
	if err != nil {
		b.Fatal(err)
	}
	p := topic.NewProducer(mofka.ProducerOptions{BatchSize: 128})
	defer func() { _ = p.Close() }()
	benchPush(b, p.PushRaw, p.Flush)
}

// BenchmarkClusterPushBatch measures quorum-replicated appends at several
// deployment shapes, in memory, and the default shape on durable nodes that
// fsync every batch — where the producer ships batch n+1 while batch n
// awaits its quorum's fsyncs.
func BenchmarkClusterPushBatch(b *testing.B) {
	for _, shape := range []struct {
		brokers, rf int
		syncBatch   bool
	}{
		{3, 1, false}, // sharding only: no replication
		{3, 2, false}, // the default: leader + 1 follower, quorum 2
		{3, 3, false}, // full replication, quorum 2
		{5, 3, false}, // wider cluster, quorum 2
		{3, 2, true},  // the default on disk
	} {
		name := fmt.Sprintf("brokers=%d/rf=%d", shape.brokers, shape.rf)
		cfg := Config{Brokers: shape.brokers, ReplicationFactor: shape.rf}
		if shape.syncBatch {
			name += "/sync-batch"
		}
		b.Run(name, func(b *testing.B) {
			if shape.syncBatch {
				cfg.DataDir = b.TempDir()
			}
			c, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			ct, err := c.EnsureTopic(mofka.TopicConfig{Name: "bench", Partitions: 4})
			if err != nil {
				b.Fatal(err)
			}
			p := ct.NewProducer(mofka.ProducerOptions{BatchSize: 128})
			defer p.Close()
			b.ReportAllocs()
			benchPush(b, p.PushRaw, p.Flush)
		})
	}
}
