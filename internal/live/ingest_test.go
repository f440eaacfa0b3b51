package live

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"taskprov/internal/mochi/mercury"
	"taskprov/internal/mofka"
	"taskprov/internal/provenance"
)

// ingestTopics is every topic name FuzzIngest draws from: the provenance
// topics, the monitor's own, and one nobody produces.
func ingestTopics() []string {
	return append(provenance.AllTopics(), provenance.TopicAnomalies, "no-such-topic")
}

// checkIngestEquivalence feeds in to a typed and a map-API aggregator, once
// on each of two partitions so the per-partition lanes take part, and fails
// unless both reject it or both end with the same snapshot.
func checkIngestEquivalence(t *testing.T, topic string, in []byte) {
	t.Helper()
	typed, mapped := NewAggregator(AggregatorOptions{}), NewAggregator(AggregatorOptions{})
	for part := 0; part < 2; part++ {
		typedErr := typed.Ingest(topic, part, in)
		m, mapErr := mofka.DecodeMetadata(in)
		if (typedErr == nil) != (mapErr == nil) {
			t.Fatalf("%s: %q: typed ingest says %v, the map decoder %v", topic, in, typedErr, mapErr)
		}
		if mapErr == nil {
			mapped.IngestEvent(topic, part, m)
		}
	}
	if got, want := typed.Snapshot(), mapped.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: %q:\n typed %+v\n   map %+v", topic, in, got, want)
	}
}

// FuzzIngest holds Aggregator.Ingest to IngestEvent∘DecodeMetadata: for any
// topic and any bytes, both reject — leaving the aggregates untouched — or
// both leave equal snapshots.
func FuzzIngest(f *testing.F) {
	topics := ingestTopics()
	for i := range topics {
		for _, s := range []string{`null`, `{}`, `[]`, `3`, `{"key":"load-0001"`, ` {"event" : "done"} `,
			`{"key":"load-0001","worker":"w0","start":1.5,"stop":4,"files":[{"path":"/a","size_after":1}]}`,
			`{"from":"waiting","to":"processing","key":"k"}`, `{"from":"w0","to":"w1","bytes":65536,"start":2,"stop":2.5}`,
			`{"kind":"worker_lost","worker":"w3","at":7,"message":"m"}`, `{"kind":"cluster_leader_elected","at":1e21}`,
			`{"op":"resolve","bytes":9,"resolve_latency":0.25,"resident":4096}`, `{"kind":"cancelled","wasted":1.25}`,
			`{"key":"reduce","deps":["a",1,"b"]}`, `{"start":-1e300,"stop":1e300,"key":"😀 <>&"}`} {
			f.Add(uint8(i), []byte(s))
		}
	}
	f.Fuzz(func(t *testing.T, topic uint8, in []byte) {
		checkIngestEquivalence(t, topics[int(topic)%len(topics)], in)
	})
}

// malformed is metadata the broker admits (it is JSON) that no decoder takes
// (it is not an object).
var malformed = []string{`[]`, `3`}

// seedWithMalformed seeds b and plants the malformed events on the
// executions topic, between good ones.
func seedWithMalformed(t *testing.T, b *mofka.Broker, tasks int) {
	t.Helper()
	seedBroker(t, b, tasks)
	tp, err := b.OpenTopic(provenance.TopicExecutions)
	if err != nil {
		t.Fatal(err)
	}
	p := tp.NewProducer(mofka.ProducerOptions{BatchSize: 1})
	for _, s := range malformed {
		if err := p.PushRaw([]byte(s), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.PushRaw(exec("load-9000", "w0", 1, 2).Encode(), nil); err != nil {
		t.Fatal(err)
	}
	// On a durable broker a shipped batch is visible once committed.
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestReplayReportsMalformedEvent: an event whose metadata is JSON but not an
// object used to panic the replay; it is now an error naming the event.
func TestReplayReportsMalformedEvent(t *testing.T) {
	dir := t.TempDir()
	b, err := mofka.NewDurableBroker(mofka.Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	seedWithMalformed(t, b, 8)
	check := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), provenance.TopicExecutions+"[") {
			t.Fatalf("%s of a log with a malformed event: %v", what, err)
		}
	}
	check("ReplayBroker", ReplayBroker(b, NewAggregator(AggregatorOptions{})))
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = ReplayDataDir(dir, AggregatorOptions{})
	check("ReplayDataDir", err)
}

// TestRemoteTailerReportsMalformedEventOnce: the tailer returns the error,
// steps past the event, and the next sweep carries on from there.
func TestRemoteTailerReportsMalformedEventOnce(t *testing.T) {
	b := mofka.NewStandaloneBroker()
	seedWithMalformed(t, b, 8)
	reg := mercury.NewRegistry()
	mofka.Serve(reg.Listen("local://mofka"), b.Service())
	tl := &RemoteTailer{
		remote: mofka.NewRemote(reg.Bind("local://mofka")),
		agg:    NewAggregator(AggregatorOptions{}),
		next:   make(map[laneKey]uint64),
	}
	for i, bad := range malformed {
		err := tl.sweep()
		if err == nil || !strings.Contains(err.Error(), provenance.TopicExecutions+"[") {
			t.Fatalf("sweep %d over malformed event %s: %v", i, bad, err)
		}
	}
	if err := tl.sweep(); err != nil {
		t.Fatalf("sweep past the malformed events: %v", err)
	}
	if got := tl.Snapshot().Tasks; got != 9 {
		t.Fatalf("tailer ingested %d executions, want the 9 good ones", got)
	}
}

// TestMonitorSkipsMalformedEvent: in the monitor the same event used to take
// the whole session down. It is logged once for its topic and skipped; the
// cursor Finish commits still moves past it.
func TestMonitorSkipsMalformedEvent(t *testing.T) {
	b := mofka.NewStandaloneBroker()
	var mu sync.Mutex
	var logged []string
	m := NewMonitor(b, MonitorOptions{Logf: func(format string, args ...any) {
		mu.Lock()
		logged = append(logged, fmt.Sprintf(format, args...))
		mu.Unlock()
	}})
	seedWithMalformed(t, b, 8)
	m.Sweep()
	if n := b.LoadCursor("live-monitor", provenance.TopicExecutions, 0); n != 0 {
		t.Fatalf("a sweep committed a cursor (%d): only Commit and Finish do", n)
	}
	sum := m.Finish(nil, 10)
	if sum.Tasks != 9 {
		t.Fatalf("monitor ingested %d executions, want the 9 good ones", sum.Tasks)
	}
	mu.Lock()
	defer mu.Unlock()
	n := 0
	for _, line := range logged {
		if strings.Contains(line, "corrupt event "+provenance.TopicExecutions) {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("malformed events logged %d times, want once for the topic: %q", n, logged)
	}
	tp, err := b.OpenTopic(provenance.TopicExecutions)
	if err != nil {
		t.Fatal(err)
	}
	var committed uint64
	for p := 0; p < tp.Partitions(); p++ {
		committed += b.LoadCursor("live-monitor", provenance.TopicExecutions, p)
	}
	if committed != tp.Events() {
		t.Fatalf("cursors cover %d of %d executions: the malformed ones held them back", committed, tp.Events())
	}
}

// TestAggregatorConcurrentIngest: two goroutines feed one aggregator — and so
// its one decoder — a partition each, and the snapshot is the sequential
// replay's. Run under -race it also checks the decoder is guarded.
func TestAggregatorConcurrentIngest(t *testing.T) {
	b := mofka.NewStandaloneBroker()
	seedBroker(t, b, 200)
	type event struct {
		topic    string
		metadata []byte
	}
	var parts [2][]event
	for _, topic := range b.Topics() {
		tp, err := b.OpenTopic(topic)
		if err != nil {
			t.Fatal(err)
		}
		c, err := tp.NewConsumer(mofka.ConsumerOptions{NoData: true})
		if err != nil {
			t.Fatal(err)
		}
		err = c.Scan(func(partition int, _ uint64, metadata []byte) error {
			parts[partition] = append(parts[partition], event{topic, append([]byte(nil), metadata...)})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(parts[0]) == 0 || len(parts[1]) == 0 {
		t.Fatalf("seeded partitions hold %d and %d events", len(parts[0]), len(parts[1]))
	}
	concurrent := NewAggregator(AggregatorOptions{})
	var wg sync.WaitGroup
	errs := make([]error, len(parts))
	for p := range parts {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for _, ev := range parts[p] {
				if err := concurrent.Ingest(ev.topic, p, ev.metadata); err != nil {
					errs[p] = err
					return
				}
			}
		}(p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	sequential := NewAggregator(AggregatorOptions{})
	if err := ReplayBroker(b, sequential); err != nil {
		t.Fatal(err)
	}
	// The windows and anomalies are left out: the two goroutines interleave
	// the partitions of a topic in whatever order the Go scheduler lets them,
	// and the window compute sums, the straggler fit and the streak detector
	// see that order, not the one order the monitor and the replay share.
	got, want := concurrent.Snapshot(), sequential.Snapshot()
	got.Windows, want.Windows, got.Anomalies, want.Anomalies = nil, nil, nil, nil
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("concurrent ingest:\n%+v\nsequential replay:\n%+v", got, want)
	}
}
