package live

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"taskprov/internal/dask"
	"taskprov/internal/mochi/mercury"
	"taskprov/internal/mofka"
	"taskprov/internal/provenance"
	"taskprov/internal/sim"
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

// TestAggregatorKeepsNoBorrowedName: every name a decoded record carries
// points into the bytes it came from, so an aggregator fed through Ingest
// must keep copies only. This one is fed from buffers that are overwritten
// afterwards — every map key, critical-path task, dependency, timeline
// entry and anomaly subject would read the scribble if one were borrowed —
// then fed the same events again from fresh buffers: its Snapshot must stay
// what it was and then be what an aggregator fed twice from untouched
// buffers gives.
func TestAggregatorKeepsNoBorrowedName(t *testing.T) {
	type event struct {
		topic string
		part  int
		b     []byte
	}
	var events []event
	add := func(topic string, part int, b []byte) { events = append(events, event{topic, part, b}) }
	// A count of warnings per worker that is no multiple of the streak's
	// length, and a straggler before the straggler fit has its samples, make
	// the second feed's anomalies depend on the detectors' state from the
	// first.
	for i := 0; i < 403; i++ {
		key := dask.TaskKey(fmt.Sprintf("('train-%04d', %d)", i/2, i%2))
		worker := fmt.Sprintf("tcp://10.0.0.%d:40001", i%4)
		start := float64(i) * 0.25
		dur := 1 + 0.01*float64(i%7)
		if i%40 == 39 || i == 5 {
			dur = 30 // a straggler
		}
		meta := dask.TaskMeta{Key: key, Prefix: "train", Group: "train", GraphID: 1, At: sim.Seconds(start)}
		if i > 0 {
			meta.Deps = []dask.TaskKey{dask.TaskKey(fmt.Sprintf("('train-%04d', %d)", (i-1)/2, (i-1)%2))}
		}
		add(provenance.TopicTaskMeta, i%2, provenance.AppendTaskMeta(nil, meta))
		add(provenance.TopicTransitions, i%2, provenance.AppendTransition(nil, dask.Transition{Key: key, From: "waiting", To: "processing",
			Stimulus: "compute-task", Location: worker, At: sim.Seconds(start)}))
		add(provenance.TopicExecutions, i%2, provenance.AppendExecution(nil, dask.TaskExecution{Key: key, Worker: worker,
			Hostname: fmt.Sprintf("nid%05d", i%4), Start: sim.Seconds(start), Stop: sim.Seconds(start + dur), GraphID: 1}))
		add(provenance.TopicTransfers, i%2, provenance.AppendTransfer(nil, dask.Transfer{Key: key, From: worker,
			To: fmt.Sprintf("tcp://10.0.0.%d:40001", (i+1)%4), Bytes: 4096, Start: sim.Seconds(start), Stop: sim.Seconds(start + 0.01)}))
		add(provenance.TopicWarnings, i%2, provenance.AppendWarning(nil, dask.Warning{Kind: dask.WarnEventLoop, Worker: worker,
			At: sim.Seconds(start), Duration: sim.Seconds(1)}))
		if i%50 == 0 {
			add(provenance.TopicWarnings, i%2, provenance.AppendWarning(nil, dask.Warning{Kind: dask.WarnWorkerLost, Worker: worker,
				At: sim.Seconds(start), Message: "lost " + worker}))
			add(provenance.TopicWarnings, i%2, provenance.AppendWarning(nil, dask.Warning{Kind: "cluster_leader_elected", Worker: "broker-1",
				At: sim.Seconds(start), Message: "elected"}))
		}
		add(provenance.TopicProxy, i%2, provenance.AppendProxyEvent(nil, dask.ProxyEvent{Op: dask.ProxyOpPublish, Key: key, Worker: worker,
			Bytes: 64, Resident: 64, At: sim.Seconds(start)}))
		add(provenance.TopicSpeculation, i%2, provenance.AppendSpeculation(nil, dask.SpeculationEvent{Kind: dask.SpecCancelled, Key: key,
			Primary: worker, Wasted: sim.Seconds(0.5), At: sim.Seconds(start)}))
	}
	feed := func(agg *Aggregator) {
		t.Helper()
		for _, ev := range events {
			b := append([]byte(nil), ev.b...)
			if err := agg.Ingest(ev.topic, ev.part, b); err != nil {
				t.Fatal(err)
			}
		}
	}
	snapshot := func(agg *Aggregator) string {
		t.Helper()
		b, err := json.Marshal(agg.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	scribbled := NewAggregator(AggregatorOptions{})
	var bufs [][]byte
	for _, ev := range events {
		b := append([]byte(nil), ev.b...)
		bufs = append(bufs, b)
		if err := scribbled.Ingest(ev.topic, ev.part, b); err != nil {
			t.Fatal(err)
		}
	}
	before := snapshot(scribbled)
	for _, b := range bufs {
		for i := range b {
			b[i] = '#'
		}
	}
	if after := snapshot(scribbled); after != before {
		t.Fatalf("overwriting the ingested bytes changed the snapshot:\nbefore %s\n after %s", before, after)
	}
	feed(scribbled)
	want := NewAggregator(AggregatorOptions{})
	feed(want)
	feed(want)
	if got, want := snapshot(scribbled), snapshot(want); got != want {
		t.Fatalf("fed again after the scribble:\n got %s\nwant %s", got, want)
	}
	s := scribbled.Snapshot()
	if len(s.Anomalies) == 0 || len(s.Recovery) == 0 || len(s.ClusterHealth) == 0 || s.CriticalPathSeconds == 0 ||
		len(s.StateOccupancy) == 0 || len(s.Windows) == 0 || s.Speculation == nil || s.Proxy == nil {
		t.Fatalf("the events left a lane empty: %+v", s)
	}
	kinds := map[string]bool{}
	for _, an := range s.Anomalies {
		kinds[an.Kind] = true
	}
	if !kinds[AnomalyStraggler] || !kinds[AnomalyEventLoopStreak] {
		t.Fatalf("anomalies raised: %v, want stragglers and streaks", kinds)
	}
}
