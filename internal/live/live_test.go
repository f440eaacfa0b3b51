package live

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"taskprov/internal/dask"
	"taskprov/internal/mofka"
	"taskprov/internal/provenance"
	"taskprov/internal/sim"
)

// stripped removes the two order-dependent observability surfaces (trailing
// windows, anomaly emission order) that the equivalence invariant explicitly
// excludes, leaving everything that must match exactly.
func stripped(s Summary) Summary {
	s.Windows = nil
	s.Anomalies = nil
	return s
}

func TestWindowRing(t *testing.T) {
	r := newWindowRing(10, 3)
	// An event exactly on a boundary belongs to the window it opens.
	b := r.bucket(10.0)
	if b == nil || b.From != 10 || b.To != 20 {
		t.Fatalf("boundary bucket = %+v", b)
	}
	b.TasksFinished++
	r.bucket(0.0).TasksFinished++  // older but inside the ring
	r.bucket(25.0).TasksFinished++ // advances maxEpoch to 2
	if got := r.bucket(29.999999); got == nil || got.From != 20 {
		t.Fatalf("in-window bucket = %+v", got)
	}
	snap := r.snapshot()
	if len(snap) != 3 {
		t.Fatalf("windows = %d, want 3", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		if snap[i].From <= snap[i-1].From {
			t.Fatalf("windows not sorted: %+v", snap)
		}
	}
	// Advance far: old windows fall off, stale events are dropped, and the
	// snapshot no longer shows windows outside the ring horizon.
	r.bucket(100)
	if r.bucket(0.0) != nil {
		t.Fatal("event older than the ring horizon must be dropped")
	}
	if snap := r.snapshot(); len(snap) != 1 || snap[0].From != 100 {
		t.Fatalf("after advance: %+v", snap)
	}
}

func TestAggregatorNegativeTimeAndUnknownTopic(t *testing.T) {
	a := NewAggregator(AggregatorOptions{})
	a.IngestEvent("no-such-topic", 0, mofka.Metadata{"x": 1.0})
	a.IngestIOSegment("w0", 100, -5)
	s := a.Snapshot()
	if s.Events != 1 || s.IOOps != 0 {
		t.Fatalf("events=%d io_ops=%d", s.Events, s.IOOps)
	}
}

// exec builds one execution event's metadata.
func exec(key string, worker string, start, stop float64) mofka.Metadata {
	return provenance.ExecutionEvent(dask.TaskExecution{
		Key: dask.TaskKey(key), Worker: worker, Hostname: worker + "-host",
		Start: sim.Seconds(start), Stop: sim.Seconds(stop), OutputSize: 64, GraphID: 1,
	})
}

func TestAggregatorOrderIndependence(t *testing.T) {
	events := []struct {
		topic string
		part  int
		m     mofka.Metadata
	}{}
	for i := 0; i < 40; i++ {
		events = append(events, struct {
			topic string
			part  int
			m     mofka.Metadata
		}{provenance.TopicExecutions, i % 2, exec(fmt.Sprintf("load-%04d", i), fmt.Sprintf("w%d", i%3), float64(i), float64(i)+0.1*float64(i%7))})
	}
	for i := 0; i < 10; i++ {
		events = append(events, struct {
			topic string
			part  int
			m     mofka.Metadata
		}{provenance.TopicTransfers, i % 2, provenance.TransferEvent(dask.Transfer{
			Key: dask.TaskKey(fmt.Sprintf("load-%04d", i)), From: "w0", To: "w1",
			Bytes: 1 << 16, Start: sim.Seconds(float64(i)), Stop: sim.Seconds(float64(i) + 0.05),
		})})
	}

	feed := func(order []int) Summary {
		a := NewAggregator(AggregatorOptions{})
		for _, idx := range order {
			e := events[idx]
			a.IngestEvent(e.topic, e.part, e.m)
		}
		a.SetWall(50)
		return a.Snapshot()
	}
	// Sequential order vs partition-interleave-reversed order: within each
	// (topic, partition) the relative order is preserved (the invariant's
	// precondition), but the interleave across partitions is completely
	// different.
	var seq, alt []int
	for i := range events {
		seq = append(seq, i)
	}
	for _, wantPart := range []int{1, 0} {
		for i, e := range events {
			if e.part == wantPart {
				alt = append(alt, i)
			}
		}
	}
	s1, s2 := feed(seq), feed(alt)
	if !reflect.DeepEqual(stripped(s1), stripped(s2)) {
		t.Fatalf("summaries differ across consumption orders:\n%+v\nvs\n%+v", stripped(s1), stripped(s2))
	}
	if s1.Tasks != 40 || s1.Transfers != 10 {
		t.Fatalf("tasks=%d transfers=%d", s1.Tasks, s1.Transfers)
	}
	g := s1.Groups["load"]
	if g.Count != 40 || g.Throughput != 40.0/50 {
		t.Fatalf("group load = %+v", g)
	}
	if g.P50Seconds <= 0 || g.MaxSeconds < g.P99Seconds || g.P99Seconds < g.P50Seconds {
		t.Fatalf("quantiles inconsistent: %+v", g)
	}
}

func TestStateOccupancy(t *testing.T) {
	a := NewAggregator(AggregatorOptions{})
	trans := func(key, from, to string, at float64) {
		a.IngestEvent(provenance.TopicTransitions, 0, provenance.TransitionEvent(dask.Transition{
			Key: dask.TaskKey(key), From: dask.TaskState(from), To: dask.TaskState(to), At: sim.Seconds(at),
		}))
	}
	trans("a", "", "released", 0)
	trans("a", "released", "waiting", 1)
	trans("a", "waiting", "processing", 2)
	trans("b", "", "released", 0)
	s := a.Snapshot()
	want := map[string]int{"processing": 1, "released": 1}
	if !reflect.DeepEqual(s.StateOccupancy, want) {
		t.Fatalf("occupancy = %v, want %v", s.StateOccupancy, want)
	}
}

func TestStragglerDetector(t *testing.T) {
	a := NewAggregator(AggregatorOptions{})
	var got []Anomaly
	a.OnAnomaly(func(an Anomaly) { got = append(got, an) })
	for i := 0; i < 40; i++ {
		a.IngestEvent(provenance.TopicExecutions, 0, exec(fmt.Sprintf("load-%04d", i), "w0", float64(i), float64(i)+1.0+0.001*float64(i%5)))
	}
	if len(got) != 0 {
		t.Fatalf("no stragglers expected yet, got %v", got)
	}
	a.IngestEvent(provenance.TopicExecutions, 0, exec("load-9999", "w0", 50, 60)) // 10s vs ~1s median
	if len(got) != 1 || got[0].Kind != AnomalyStraggler || got[0].Subject != "load" {
		t.Fatalf("straggler anomalies = %v", got)
	}
	if got[0].Value < 3.5 {
		t.Fatalf("z = %v, want >= 3.5", got[0].Value)
	}
}

func TestEventLoopStreakDetector(t *testing.T) {
	a := NewAggregator(AggregatorOptions{Anomaly: AnomalyConfig{StreakLen: 3, StreakGapSeconds: 10}})
	var got []Anomaly
	a.OnAnomaly(func(an Anomaly) { got = append(got, an) })
	warn := func(worker string, at float64) {
		a.IngestEvent(provenance.TopicWarnings, 0, provenance.WarningEvent(dask.Warning{
			Kind: dask.WarnEventLoop, Worker: worker, At: sim.Seconds(at), Duration: sim.Seconds(2),
		}))
	}
	warn("w0", 0)
	warn("w0", 5)
	warn("w0", 100) // gap > 10s resets the streak
	warn("w0", 104)
	if len(got) != 0 {
		t.Fatalf("streak should have reset, got %v", got)
	}
	warn("w0", 108)
	if len(got) != 1 || got[0].Kind != AnomalyEventLoopStreak || got[0].Subject != "w0" {
		t.Fatalf("anomalies = %v", got)
	}
	// GC warnings never count toward event-loop streaks.
	for i := 0; i < 5; i++ {
		a.IngestEvent(provenance.TopicWarnings, 0, provenance.WarningEvent(dask.Warning{
			Kind: dask.WarnGC, Worker: "w1", At: sim.Seconds(float64(200 + i)),
		}))
	}
	if len(got) != 1 {
		t.Fatalf("GC warnings must not trigger streaks: %v", got)
	}
}

func TestIOCollapseDetector(t *testing.T) {
	a := NewAggregator(AggregatorOptions{WindowSeconds: 10})
	var got []Anomaly
	a.OnAnomaly(func(an Anomaly) { got = append(got, an) })
	a.IngestIOSegment("w0", 2<<20, 5)  // window [0,10): 2 MiB
	a.IngestIOSegment("w0", 2<<20, 15) // window [10,20): 2 MiB
	a.IngestIOSegment("w0", 1<<10, 25) // window [20,30): 1 KiB — collapse
	if len(got) != 0 {
		t.Fatalf("collapse detected too early: %v", got)
	}
	a.IngestIOSegment("w0", 1<<10, 35) // closes [20,30) → compare vs [10,20)
	if len(got) != 1 || got[0].Kind != AnomalyIOCollapse || got[0].Subject != "w0" {
		t.Fatalf("anomalies = %v", got)
	}
	if got[0].Value >= 0.25 {
		t.Fatalf("ratio = %v, want < 0.25", got[0].Value)
	}
}

func TestAnomalyEventRoundTrip(t *testing.T) {
	in := Anomaly{Kind: AnomalyStraggler, Subject: "load", At: 12.5, Value: 4.2, Limit: 3.5, Detail: "d"}
	if out := ParseAnomaly(in.Event()); out != in {
		t.Fatalf("round trip: %+v != %+v", out, in)
	}
}

// seedBroker creates the provenance topics and publishes a workload's worth
// of events through batching producers.
func seedBroker(t *testing.T, b *mofka.Broker, tasks int) {
	t.Helper()
	producers := map[string]*mofka.Producer{}
	for _, name := range provenance.AllTopics() {
		tp, err := b.OpenOrCreateTopic(mofka.TopicConfig{Name: name, Partitions: 2})
		if err != nil {
			t.Fatal(err)
		}
		producers[name] = tp.NewProducer(mofka.ProducerOptions{BatchSize: 16})
	}
	push := func(topic string, m mofka.Metadata) {
		if err := producers[topic].Push(m, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < tasks; i++ {
		key := fmt.Sprintf("load-%04d", i)
		worker := fmt.Sprintf("w%d", i%4)
		start := float64(i) * 0.25
		stop := start + 0.8 + 0.01*float64(i%11)
		push(provenance.TopicTaskMeta, provenance.TaskMetaEvent(dask.TaskMeta{
			Key: dask.TaskKey(key), Prefix: "load", Group: "load", GraphID: 1, At: sim.Seconds(start),
		}))
		push(provenance.TopicTransitions, provenance.TransitionEvent(dask.Transition{
			Key: dask.TaskKey(key), From: "waiting", To: "processing", At: sim.Seconds(start),
		}))
		push(provenance.TopicTransitions, provenance.TransitionEvent(dask.Transition{
			Key: dask.TaskKey(key), From: "processing", To: "memory", At: sim.Seconds(stop),
		}))
		push(provenance.TopicExecutions, exec(key, worker, start, stop))
		if i%3 == 0 {
			push(provenance.TopicTransfers, provenance.TransferEvent(dask.Transfer{
				Key: dask.TaskKey(key), From: worker, To: fmt.Sprintf("w%d", (i+1)%4),
				Bytes: 4 << 16, Start: sim.Seconds(stop), Stop: sim.Seconds(stop + 0.03),
			}))
		}
		if i%5 == 0 {
			push(provenance.TopicWarnings, provenance.WarningEvent(dask.Warning{
				Kind: dask.WarnEventLoop, Worker: worker, At: sim.Seconds(stop), Duration: sim.Seconds(1.5),
			}))
		}
	}
	for _, p := range producers {
		if err := p.Flush(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMonitorEqualsReplay(t *testing.T) {
	b := mofka.NewStandaloneBroker()
	m := NewMonitor(b, MonitorOptions{PollInterval: time.Millisecond})
	seedBroker(t, b, 120)
	liveSum := m.Finish(nil, 40)

	replay := NewAggregator(AggregatorOptions{})
	if err := ReplayBroker(b, replay); err != nil {
		t.Fatal(err)
	}
	replay.SetWall(40)
	if !reflect.DeepEqual(stripped(liveSum), stripped(replay.Snapshot())) {
		t.Fatalf("live != replay:\n%+v\nvs\n%+v", stripped(liveSum), stripped(replay.Snapshot()))
	}
	if liveSum.Tasks != 120 || liveSum.Submitted != 120 {
		t.Fatalf("tasks=%d submitted=%d", liveSum.Tasks, liveSum.Submitted)
	}
	if liveSum.StateOccupancy["memory"] != 120 {
		t.Fatalf("occupancy = %v", liveSum.StateOccupancy)
	}
}

// TestMonitorEmitsAnomalies checks online findings land in the anomalies
// topic (as provenance) and on the subscription channel.
func TestMonitorEmitsAnomalies(t *testing.T) {
	b := mofka.NewStandaloneBroker()
	m := NewMonitor(b, MonitorOptions{
		PollInterval: time.Millisecond,
		Aggregator:   AggregatorOptions{Anomaly: AnomalyConfig{StreakLen: 3, StreakGapSeconds: 5}},
	})
	ch := m.SubscribeAnomalies()
	tp, err := b.OpenOrCreateTopic(mofka.TopicConfig{Name: provenance.TopicWarnings, Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	p := tp.NewProducer(mofka.ProducerOptions{BatchSize: 1})
	for i := 0; i < 3; i++ {
		err := p.Push(provenance.WarningEvent(dask.Warning{
			Kind: dask.WarnEventLoop, Worker: "w0", At: sim.Seconds(float64(i)), Duration: sim.Seconds(2),
		}), nil)
		if err != nil {
			t.Fatal(err)
		}
	}
	select {
	case an := <-ch:
		if an.Kind != AnomalyEventLoopStreak {
			t.Fatalf("anomaly = %+v", an)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no anomaly on subscription channel")
	}
	m.Stop()
	metas, err := provenance.Drain(b, provenance.TopicAnomalies, mofka.DecodeMetadata)
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) != 1 || ParseAnomaly(metas[0]).Subject != "w0" {
		t.Fatalf("anomalies topic = %v", metas)
	}
}

func TestMonitorResumesFromCommitted(t *testing.T) {
	b := mofka.NewStandaloneBroker()
	seedBroker(t, b, 30)
	m1 := NewMonitor(b, MonitorOptions{PollInterval: time.Millisecond})
	s1 := m1.Finish(nil, 10)
	if s1.Tasks != 30 {
		t.Fatalf("first monitor tasks = %d", s1.Tasks)
	}
	// A second monitor under the same consumer name starts where the first
	// committed: nothing left to read.
	m2 := NewMonitor(b, MonitorOptions{PollInterval: time.Millisecond})
	s2 := m2.Finish(nil, 10)
	if s2.Events != 0 {
		t.Fatalf("resumed monitor re-read %d events", s2.Events)
	}
}

func TestHTTPEndpoints(t *testing.T) {
	b := mofka.NewStandaloneBroker()
	m := NewMonitor(b, MonitorOptions{PollInterval: time.Millisecond})
	seedBroker(t, b, 60)
	m.Finish(nil, 20)

	srv := httptest.NewServer(NewServer(m))
	defer srv.Close()

	var snap Summary
	res, err := http.Get(srv.URL + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(res.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	_ = res.Body.Close()
	if snap.Tasks != 60 || snap.Groups["load"].Count != 60 {
		t.Fatalf("snapshot = %+v", snap)
	}

	res, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(res.Body)
	_ = res.Body.Close()
	text := string(body)
	for _, want := range []string{
		"taskprov_live_tasks_total 60",
		`taskprov_live_group_tasks_total{group="load"} 60`,
		`taskprov_live_phase_seconds{phase="compute"}`,
		`taskprov_live_warnings_total{kind="unresponsive_event_loop"}`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, text)
		}
	}

	res, err = http.Get(srv.URL + "/healthz")
	if err != nil || res.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", res, err)
	}
	_ = res.Body.Close()
}

func TestSSEStream(t *testing.T) {
	b := mofka.NewStandaloneBroker()
	m := NewMonitor(b, MonitorOptions{PollInterval: time.Millisecond})
	defer m.Stop()
	srv := httptest.NewServer(NewServer(m))
	defer srv.Close()

	res, err := http.Get(srv.URL + "/events?interval=50ms")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = res.Body.Close() }()
	if ct := res.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}
	buf := make([]byte, 4096)
	n, err := res.Body.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	first := string(buf[:n])
	if !strings.HasPrefix(first, "event: snapshot\ndata: {") {
		t.Fatalf("first SSE frame = %q", first)
	}
}

// TestConcurrentProducersMonitorAndReaders is the -race acceptance test:
// concurrent producers appending to the broker, the monitor pulling, and
// HTTP snapshot readers all at once.
func TestConcurrentProducersMonitorAndReaders(t *testing.T) {
	b := mofka.NewStandaloneBroker()
	for _, name := range provenance.AllTopics() {
		if _, err := b.OpenOrCreateTopic(mofka.TopicConfig{Name: name, Partitions: 2}); err != nil {
			t.Fatal(err)
		}
	}
	m := NewMonitor(b, MonitorOptions{PollInterval: time.Millisecond})
	srv := httptest.NewServer(NewServer(m))
	defer srv.Close()

	const producers, perProducer = 4, 250
	var wg sync.WaitGroup
	for g := 0; g < producers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tp, err := b.OpenTopic(provenance.TopicExecutions)
			if err != nil {
				t.Error(err)
				return
			}
			p := tp.NewProducer(mofka.ProducerOptions{BatchSize: 8})
			for i := 0; i < perProducer; i++ {
				key := fmt.Sprintf("load-%d-%04d", g, i)
				if err := p.Push(exec(key, fmt.Sprintf("w%d", g), float64(i), float64(i)+1), nil); err != nil {
					t.Error(err)
					return
				}
			}
			if err := p.Flush(); err != nil {
				t.Error(err)
			}
		}(g)
	}
	stopReaders := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stopReaders:
					return
				default:
				}
				for _, path := range []string{"/snapshot", "/metrics"} {
					res, err := http.Get(srv.URL + path)
					if err == nil {
						_, _ = io.Copy(io.Discard, res.Body)
						_ = res.Body.Close()
					}
				}
			}
		}()
	}
	wg.Wait()
	sum := m.Finish(nil, 100)
	close(stopReaders)
	readers.Wait()
	if want := int64(producers * perProducer); sum.Tasks != want {
		t.Fatalf("tasks = %d, want %d", sum.Tasks, want)
	}
	// And the live result still equals a canonical replay.
	replay := NewAggregator(AggregatorOptions{})
	if err := ReplayBroker(b, replay); err != nil {
		t.Fatal(err)
	}
	replay.SetWall(100)
	if !reflect.DeepEqual(stripped(sum), stripped(replay.Snapshot())) {
		t.Fatal("live summary diverged from canonical replay under concurrency")
	}
}

func TestWALTailerFollowsGrowingDir(t *testing.T) {
	dir := t.TempDir()
	b, err := mofka.NewDurableBroker(mofka.Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	seedBroker(t, b, 20)
	if err := b.Sync(); err != nil {
		t.Fatal(err)
	}

	tail, err := TailWAL(dir, TailOptions{Interval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Stop()
	if s := tail.Snapshot(); s.Tasks != 20 {
		t.Fatalf("initial tail tasks = %d", s.Tasks)
	}

	// The dir grows (same broker keeps writing); the tailer catches up.
	seedBroker(t, b, 15)
	if err := b.Sync(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for tail.Snapshot().Tasks != 35 {
		if time.Now().After(deadline) {
			t.Fatalf("tailer stuck at %d tasks", tail.Snapshot().Tasks)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	// Post-close, the tailer's snapshot equals a direct replay of the dir.
	want, err := ReplayDataDir(dir, AggregatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tail.Refresh(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripped(tail.Snapshot()), stripped(want)) {
		t.Fatal("tailer snapshot != direct replay")
	}
}

func TestTailWALRejectsNonDataDir(t *testing.T) {
	if _, err := TailWAL(t.TempDir(), TailOptions{}); err == nil {
		t.Fatal("expected error for a non-data-dir")
	}
}

func TestAggregatorRecoveryLane(t *testing.T) {
	a := NewAggregator(AggregatorOptions{})
	warn := func(kind dask.WarningKind, at sim.Time, worker, msg string) {
		a.IngestEvent(provenance.TopicWarnings, 0, provenance.WarningEvent(dask.Warning{
			Kind: kind, Worker: worker, At: at, Message: msg,
		}))
	}
	// Out-of-order ingest, plus a non-recovery warning that must stay out of
	// the lane.
	warn(dask.WarnTaskRescheduled, sim.Seconds(12), "tcp://n1:40001", "mid-03")
	warn(dask.WarnGC, sim.Seconds(5), "tcp://n0:40000", "")
	warn(dask.WarnWorkerLost, sim.Seconds(10), "tcp://n1:40001", "missed heartbeats")
	warn(dask.WarnWorkerRejoined, sim.Seconds(30), "tcp://n1:40001", "")

	s := a.Snapshot()
	if len(s.Recovery) != 3 {
		t.Fatalf("recovery lane has %d events, want 3: %+v", len(s.Recovery), s.Recovery)
	}
	wantKinds := []string{"worker_lost", "task_rescheduled", "worker_rejoined"}
	for i, ev := range s.Recovery {
		if ev.Kind != wantKinds[i] {
			t.Fatalf("recovery[%d] = %+v, want kind %s (sorted by time)", i, ev, wantKinds[i])
		}
	}
	if s.Recovery[0].At != 10 || s.Recovery[0].Worker != "tcp://n1:40001" {
		t.Fatalf("recovery[0] = %+v", s.Recovery[0])
	}
}

func TestAggregatorRecoveryLaneCapped(t *testing.T) {
	a := NewAggregator(AggregatorOptions{RecoveryEventCap: 2})
	for i := 0; i < 5; i++ {
		a.IngestEvent(provenance.TopicWarnings, 0, provenance.WarningEvent(dask.Warning{
			Kind: dask.WarnTaskRescheduled, At: sim.Seconds(float64(i)),
		}))
	}
	s := a.Snapshot()
	if len(s.Recovery) != 2 {
		t.Fatalf("capped lane has %d events, want 2", len(s.Recovery))
	}
	// The total warning count still reflects every event.
	if s.Warnings["task_rescheduled"] != 5 {
		t.Fatalf("warning histogram = %v", s.Warnings)
	}
}

// specEv builds one speculation event's metadata.
func specEv(kind, key string, wasted float64, at float64) mofka.Metadata {
	return provenance.SpeculationEventMeta(dask.SpeculationEvent{
		Kind: kind, Key: dask.TaskKey(key), Primary: "tcp://n0:40000",
		Duplicate: "tcp://n1:40002", Wasted: sim.Seconds(wasted), At: sim.Seconds(at),
	})
}

// TestAggregatorSpeculationLane feeds the speculation topic and checks the
// counters, the wasted-seconds accumulator, and the retry rate — and that
// the lane is order-independent across partitions like every other lane.
func TestAggregatorSpeculationLane(t *testing.T) {
	type fed struct {
		part int
		m    mofka.Metadata
	}
	events := []fed{
		{0, specEv(dask.SpecLaunched, "work-01", 0, 1)},
		{1, specEv(dask.SpecLaunched, "work-02", 0, 1.5)},
		{0, specEv(dask.SpecWon, "work-01", 0, 3)},
		{1, specEv(dask.SpecCancelled, "work-01", 2.5, 3)},
		{0, specEv(dask.SpecFailed, "work-02", 0, 4)},
		{1, specEv(dask.SpecPromoted, "work-03", 0, 5)},
		{0, specEv(dask.SpecRetry, "", 0, 6)},
		{1, specEv(dask.SpecRetry, "", 0, 6.5)},
		{0, specEv(dask.SpecBudgetExhausted, "", 0, 7)},
	}
	feed := func(order []int) Summary {
		a := NewAggregator(AggregatorOptions{})
		for _, i := range order {
			a.IngestEvent(provenance.TopicSpeculation, events[i].part, events[i].m)
		}
		a.SetWall(10)
		return a.Snapshot()
	}
	var seq, alt []int
	for i := range events {
		seq = append(seq, i)
	}
	for _, wantPart := range []int{1, 0} {
		for i, e := range events {
			if e.part == wantPart {
				alt = append(alt, i)
			}
		}
	}
	s1, s2 := feed(seq), feed(alt)
	if !reflect.DeepEqual(s1.Speculation, s2.Speculation) {
		t.Fatalf("speculation lane differs across consumption orders:\n%+v\nvs\n%+v",
			s1.Speculation, s2.Speculation)
	}
	sp := s1.Speculation
	if sp == nil {
		t.Fatal("speculation lane missing from summary")
	}
	if sp.Launched != 2 || sp.Won != 1 || sp.Cancelled != 1 || sp.Failed != 1 ||
		sp.Promoted != 1 || sp.Retries != 2 || sp.BudgetExhausted != 1 {
		t.Fatalf("speculation counters = %+v", sp)
	}
	if sp.WastedSeconds != 2.5 {
		t.Fatalf("wasted seconds = %v, want 2.5", sp.WastedSeconds)
	}
	if sp.RetryRate != 2.0/10 {
		t.Fatalf("retry rate = %v, want 0.2", sp.RetryRate)
	}

	// Runs with no speculation events leave the lane absent entirely.
	a := NewAggregator(AggregatorOptions{})
	a.IngestEvent(provenance.TopicExecutions, 0, exec("load-0001", "w0", 0, 1))
	if s := a.Snapshot(); s.Speculation != nil {
		t.Fatalf("speculation lane present without events: %+v", s.Speculation)
	}
}

// TestStragglerDetectorAdvisor exercises the exported MAD-model advisor the
// scheduler's speculation tick consults: quiet below the bar, flagging an
// elapsed runtime far beyond the prefix's distribution, and never retracting
// a verdict as elapsed grows.
func TestStragglerDetectorAdvisor(t *testing.T) {
	d := NewStragglerDetector(AnomalyConfig{})
	// Too few samples: never a straggler.
	for i := 0; i < 4; i++ {
		d.Observe("work", 1.0)
	}
	if d.Straggler("work", 100) {
		t.Fatal("flagged with too few samples")
	}
	for i := 0; i < 40; i++ {
		d.Observe("work", 1.0+0.01*float64(i%5))
	}
	if d.Straggler("work", 1.05) {
		t.Fatal("flagged a typical duration")
	}
	if !d.Straggler("work", 10) {
		t.Fatal("did not flag a 10x runtime")
	}
	if d.Straggler("other", 10) {
		t.Fatal("flagged a prefix never observed")
	}
	// Monotone in elapsed: once a straggler, always a straggler.
	if !d.Straggler("work", 20) {
		t.Fatal("verdict retracted as elapsed grew")
	}
}
