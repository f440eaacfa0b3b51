// Host-cost benchmarks of the event path: the Mofka producer by batch size,
// the durable log's append and replay, and the live aggregator's ingest.
// The paper's evaluation itself (Table I, Figs. 3–8, footnote 9 and the
// design ablations) is TestPaperClaims in internal/workloads.
package taskprov_test

import (
	"fmt"
	"testing"

	"taskprov/internal/dask"
	"taskprov/internal/live"
	"taskprov/internal/mofka"
	"taskprov/internal/mofka/wal"
	"taskprov/internal/provenance"
	"taskprov/internal/sim"
)

// BenchmarkMofkaProducer measures raw event-streaming throughput by batch
// size (the producer overhead knob the collector exposes).
func BenchmarkMofkaProducer(b *testing.B) {
	for _, batch := range []int{1, 16, 128, 1024} {
		b.Run(fmt.Sprintf("batch-%d", batch), func(b *testing.B) {
			broker := mofka.NewStandaloneBroker()
			topic, err := broker.CreateTopic(mofka.TopicConfig{Name: "bench", Partitions: 2})
			if err != nil {
				b.Fatal(err)
			}
			p := topic.NewProducer(mofka.ProducerOptions{BatchSize: batch})
			meta := mofka.Metadata{"key": "('getitem-abc', 63)", "from": "waiting", "to": "processing", "at": 12.345}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := p.Push(meta, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if err := p.Flush(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkWALAppend measures event publish throughput with the durable
// segmented log behind the broker, against the in-memory baseline — the
// "durability within ~2x of in-memory" target. Sub-benchmarks cover the
// three fsync policies; "memory" is the no-WAL baseline.
func BenchmarkWALAppend(b *testing.B) {
	meta := mofka.Metadata{"key": "('getitem-abc', 63)", "from": "waiting", "to": "processing", "at": 12.345}
	for _, mode := range []string{"memory", "never", "interval", "batch"} {
		b.Run(mode, func(b *testing.B) {
			var broker *mofka.Broker
			var err error
			if mode == "memory" {
				broker = mofka.NewStandaloneBroker()
			} else {
				pol, perr := wal.ParseSyncPolicy(mode)
				if perr != nil {
					b.Fatal(perr)
				}
				broker, err = mofka.NewDurableBroker(mofka.Options{
					DataDir: b.TempDir(),
					WAL:     wal.Options{Sync: pol},
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			topic, err := broker.CreateTopic(mofka.TopicConfig{Name: "bench"})
			if err != nil {
				b.Fatal(err)
			}
			p := topic.NewProducer(mofka.ProducerOptions{BatchSize: 64})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := p.Push(meta, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if err := p.Flush(); err != nil {
				b.Fatal(err)
			}
			if err := broker.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkWALReplay measures crash-recovery speed: how fast a broker
// restart replays an on-disk event log back into servable topics.
func BenchmarkWALReplay(b *testing.B) {
	const events = 50000
	dir := b.TempDir()
	broker, err := mofka.NewDurableBroker(mofka.Options{
		DataDir: dir,
		WAL:     wal.Options{Sync: wal.SyncNever},
	})
	if err != nil {
		b.Fatal(err)
	}
	topic, err := broker.CreateTopic(mofka.TopicConfig{Name: "bench"})
	if err != nil {
		b.Fatal(err)
	}
	p := topic.NewProducer(mofka.ProducerOptions{BatchSize: 256})
	meta := mofka.Metadata{"key": "('getitem-abc', 63)", "from": "waiting", "to": "processing", "at": 12.345}
	for i := 0; i < events; i++ {
		if err := p.Push(meta, nil); err != nil {
			b.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		b.Fatal(err)
	}
	if err := broker.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rb, err := mofka.OpenPostMortem(dir)
		if err != nil {
			b.Fatal(err)
		}
		t, err := rb.OpenTopic("bench")
		if err != nil {
			b.Fatal(err)
		}
		if t.Events() != events {
			b.Fatalf("replayed %d events, want %d", t.Events(), events)
		}
		_ = rb.Close()
	}
	b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkLiveAggregation measures the live monitor's streaming-ingest
// throughput: how many provenance events per second the aggregator (windowed
// aggregates + online anomaly detectors) absorbs. This bounds the event rate
// a single in-process monitor can follow without lagging the run.
func BenchmarkLiveAggregation(b *testing.B) {
	// A representative event mix: mostly executions, some transfers and
	// transitions, occasional warnings — pre-encoded so the benchmark times
	// aggregation, not metadata construction.
	type in struct {
		topic string
		part  int
		m     mofka.Metadata
	}
	var mix []in
	for i := 0; i < 64; i++ {
		key := dask.TaskKey(fmt.Sprintf("getitem-%04d", i))
		worker := fmt.Sprintf("10.0.0.%d:9000", i%8)
		at := float64(i) * 0.05
		mix = append(mix, in{provenance.TopicExecutions, i % 2, provenance.ExecutionEvent(dask.TaskExecution{
			Key: key, Worker: worker, Hostname: fmt.Sprintf("nid%05d", i%4),
			Start: sim.Seconds(at), Stop: sim.Seconds(at + 0.8), OutputSize: 1 << 16, GraphID: 1,
		})})
		mix = append(mix, in{provenance.TopicTransitions, i % 2, provenance.TransitionEvent(dask.Transition{
			Key: key, From: "processing", To: "memory", At: sim.Seconds(at + 0.8),
		})})
		if i%4 == 0 {
			mix = append(mix, in{provenance.TopicTransfers, i % 2, provenance.TransferEvent(dask.Transfer{
				Key: key, From: worker, To: "10.0.0.9:9000", Bytes: 1 << 20,
				Start: sim.Seconds(at), Stop: sim.Seconds(at + 0.01),
			})})
		}
		if i%16 == 0 {
			mix = append(mix, in{provenance.TopicWarnings, i % 2, provenance.WarningEvent(dask.Warning{
				Kind: dask.WarnEventLoop, Worker: worker, At: sim.Seconds(at), Duration: sim.Seconds(1.2),
			})})
		}
	}
	agg := live.NewAggregator(live.AggregatorOptions{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := mix[i%len(mix)]
		agg.IngestEvent(e.topic, e.part, e.m)
	}
	b.StopTimer()
	if s := agg.Snapshot(); s.Events == 0 {
		b.Fatal("aggregator ingested nothing")
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
}
