package live

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"taskprov/internal/dask"
	"taskprov/internal/mofka"
	"taskprov/internal/provenance"
	"taskprov/internal/sim"
)

// TestAggregatorClusterHealthLane: warnings carrying the cluster_ kind
// prefix land in their own sorted lane, separate from the worker recovery
// lane and still counted in the warning histogram.
func TestAggregatorClusterHealthLane(t *testing.T) {
	a := NewAggregator(AggregatorOptions{})
	warn := func(kind dask.WarningKind, at sim.Time, worker, msg string) {
		a.IngestEvent(provenance.TopicWarnings, 0, provenance.WarningEvent(dask.Warning{
			Kind: kind, Worker: worker, At: at, Message: msg,
		}))
	}
	warn("cluster_leader_elected", sim.Seconds(6), "broker-1", "warnings[0] epoch=2")
	warn("cluster_broker_dead", sim.Seconds(6), "broker-0", "killed")
	warn(dask.WarnWorkerLost, sim.Seconds(7), "tcp://n1:40001", "missed heartbeats")
	warn("cluster_broker_rejoined", sim.Seconds(9), "broker-0", "incarnation 2")

	s := a.Snapshot()
	if len(s.ClusterHealth) != 3 {
		t.Fatalf("cluster lane has %d events, want 3: %+v", len(s.ClusterHealth), s.ClusterHealth)
	}
	// Sorted by (at, kind): the two t=6 events order by kind.
	wantKinds := []string{"cluster_broker_dead", "cluster_leader_elected", "cluster_broker_rejoined"}
	for i, ev := range s.ClusterHealth {
		if ev.Kind != wantKinds[i] {
			t.Fatalf("cluster[%d] = %+v, want kind %s", i, ev, wantKinds[i])
		}
	}
	// The worker recovery lane holds only the worker event, and vice versa.
	if len(s.Recovery) != 1 || s.Recovery[0].Kind != "worker_lost" {
		t.Fatalf("recovery lane = %+v", s.Recovery)
	}
	if s.Warnings["cluster_broker_dead"] != 1 {
		t.Fatalf("warning histogram = %v", s.Warnings)
	}

	srv := httptest.NewServer(NewServer(staticSource{s}))
	defer srv.Close()
	res, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(res.Body)
	_ = res.Body.Close()
	if !strings.Contains(string(body), `taskprov_live_cluster_events_total{kind="cluster_broker_dead"} 1`) {
		t.Fatalf("metrics missing cluster counter:\n%s", body)
	}
}

// staticSource serves a fixed Summary (for exercising the HTTP rendering of
// fields the monitor only fills under specific conditions).
type staticSource struct{ s Summary }

func (s staticSource) Snapshot() Summary { return s.s }
func (staticSource) SubscribeAnomalies() (<-chan Anomaly, func()) {
	return make(chan Anomaly), func() {}
}

// TestConsumerLagSurfaced: the monitor samples mofka.Consumer.Lag per
// topic/partition into snapshots and /metrics — a sweep leaves a chunk that
// is not whole yet as lag — and drops entries back to nothing once Finish
// drains the backlog (so a finished run's Summary carries no lag map).
func TestConsumerLagSurfaced(t *testing.T) {
	b := mofka.NewStandaloneBroker()
	m := NewMonitor(b, MonitorOptions{})
	tp, err := b.OpenOrCreateTopic(mofka.TopicConfig{Name: provenance.TopicExecutions, Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	p := tp.NewProducer(mofka.ProducerOptions{BatchSize: 1})
	for i := 0; i < 10; i++ {
		if err := p.Push(exec("t-%03d", "w0", float64(i), float64(i)+0.5), nil); err != nil {
			t.Fatal(err)
		}
	}

	if n := m.Sweep(); n != 0 {
		t.Fatalf("a sweep ingested %d events of chunks that are not whole", n)
	}
	lag := m.Snapshot().ConsumerLag
	var total uint64
	for key, n := range lag {
		if !strings.HasPrefix(key, provenance.TopicExecutions+"/") {
			t.Fatalf("lag key %q not topic/partition-shaped", key)
		}
		total += n
	}
	if total != 10 {
		t.Fatalf("total lag = %d from %v, want 10", total, lag)
	}

	srv := httptest.NewServer(NewServer(m))
	res, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(res.Body)
	_ = res.Body.Close()
	srv.Close()
	if !strings.Contains(string(body), `taskprov_live_consumer_lag{topic="task-executions",partition=`) {
		t.Fatalf("metrics missing consumer lag gauge:\n%s", body)
	}

	// Drain; zero-lag entries disappear entirely.
	if sum := m.Finish(nil, 10); sum.Tasks != 10 {
		t.Fatalf("Finish ingested %d executions, want 10", sum.Tasks)
	}
	if lag := m.Snapshot().ConsumerLag; lag != nil {
		t.Fatalf("lag map survives a full drain: %v", lag)
	}
}
