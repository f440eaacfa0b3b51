package core

import (
	"strings"
	"testing"

	"taskprov/internal/dask"
	mcluster "taskprov/internal/mofka/cluster"
	"taskprov/internal/provenance"
)

// clusterSession is testSession targeting a 3-broker, RF=2 sharded Mofka
// cluster instead of a standalone broker.
func clusterSession(seed uint64) SessionConfig {
	cfg := testSession(seed)
	cfg.ClusterBrokers = 3
	cfg.ClusterReplication = 2
	return cfg
}

// clusterRun executes the crash workflow against the cluster, optionally
// with a chaos spec, and fails the test on any run or graph error.
func clusterRun(t *testing.T, seed uint64, chaosSpec string) *RunArtifacts {
	t.Helper()
	cfg := clusterSession(seed)
	cfg.ChaosSpec = chaosSpec
	wf := &crashWorkflow{width: 32}
	art, err := Run(cfg, wf)
	if err != nil {
		t.Fatal(err)
	}
	if wf.graphErr != "" {
		t.Fatalf("graph erred: %s", wf.graphErr)
	}
	return art
}

// drainJSON drains a topic from the artifact broker and returns each event's
// stored metadata (canonical JSON), so two runs' streams compare event for
// event.
func drainJSON(t *testing.T, art *RunArtifacts, topic string) []string {
	t.Helper()
	out, err := provenance.Drain(art.Broker, topic, func(b []byte) (string, error) { return string(b), nil })
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestClusterSessionBasic: a run published through a sharded cluster yields
// the same analyzable artifacts as a single-broker run — the merged read
// view serves every topic, the Table I counters come out right, and the
// live monitor's Summary is produced from the view.
func TestClusterSessionBasic(t *testing.T) {
	cfg := clusterSession(7)
	cfg.LiveMonitor = true
	wf := &crashWorkflow{width: 16}
	art, err := Run(cfg, wf)
	if err != nil {
		t.Fatal(err)
	}
	if art.Cluster == nil {
		t.Fatal("no cluster handle in artifacts")
	}
	if art.Broker == nil {
		t.Fatal("no merged read view")
	}
	tasks, err := art.DistinctTasks()
	if err != nil || tasks != 2*16+1 {
		t.Fatalf("tasks = %d, %v", tasks, err)
	}
	graphs, err := art.TaskGraphs()
	if err != nil || graphs != 1 {
		t.Fatalf("graphs = %d, %v", graphs, err)
	}
	if art.Meta.Instrumentation.ClusterBrokers != 3 || art.Meta.Instrumentation.ClusterReplication != 2 {
		t.Fatalf("cluster shape missing from metadata: %+v", art.Meta.Instrumentation)
	}
	if art.Live == nil {
		t.Fatal("no live summary")
	}
	if art.Live.Events == 0 || art.Live.Tasks == 0 {
		t.Fatalf("live summary empty: %+v", art.Live)
	}
	// A healthy run records no failover provenance.
	if len(art.Live.ClusterHealth) != 0 {
		t.Fatalf("unexpected cluster events on a healthy run: %+v", art.Live.ClusterHealth)
	}
}

// TestClusterSessionValidate: impossible configurations fail up front with
// clear errors instead of mid-run.
func TestClusterSessionValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*SessionConfig)
	}{
		{"negative batch", func(c *SessionConfig) { c.MofkaBatchSize = -1 }},
		{"absurd batch", func(c *SessionConfig) { c.MofkaBatchSize = 1<<20 + 1 }},
		{"negative dxt segments", func(c *SessionConfig) { c.DXTBufferSegments = -1 }},
		{"negative brokers", func(c *SessionConfig) { c.ClusterBrokers = -1 }},
		{"replication without brokers", func(c *SessionConfig) { c.ClusterReplication = 2 }},
		{"quorum without brokers", func(c *SessionConfig) { c.ClusterQuorum = 2 }},
		{"replication over brokers", func(c *SessionConfig) { c.ClusterBrokers = 2; c.ClusterReplication = 3 }},
		{"quorum over replication", func(c *SessionConfig) { c.ClusterBrokers = 3; c.ClusterReplication = 2; c.ClusterQuorum = 3 }},
		{"too many brokers", func(c *SessionConfig) { c.ClusterBrokers = 65 }},
		{"live http with cluster", func(c *SessionConfig) {
			c.ClusterBrokers = 3
			c.LiveMonitor = true
			c.LiveHTTPAddr = "127.0.0.1:0"
		}},
	}
	for _, tc := range cases {
		cfg := testSession(1)
		tc.mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, cfg)
		}
	}
	if err := clusterSession(1).Validate(); err != nil {
		t.Errorf("valid cluster config rejected: %v", err)
	}
	// The chaos broker directive needs a cluster to aim at.
	cfg := testSession(1)
	cfg.ChaosSpec = "broker node=0 at=2s"
	if _, err := Run(cfg, &crashWorkflow{width: 4}); err == nil {
		t.Error("broker chaos without ClusterBrokers was accepted")
	}
}

// TestClusterChaosFailover is the cluster acceptance scenario: a 3-broker
// RF=2 cluster loses broker 0 mid-workflow (chaos-scheduled at a virtual
// time) and gets it back 3 virtual seconds later. The run must complete,
// no acknowledged event may be lost, and every post-mortem view must be
// identical to a no-crash run of the same seed — the producers buffer
// through the outage and replay through the healed replicas.
func TestClusterChaosFailover(t *testing.T) {
	const spec = "broker node=0 at=3s restart=3s"
	crash := clusterRun(t, 21, spec)
	baseline := clusterRun(t, 21, "")

	// Zero acknowledged-event loss: every provenance topic matches the
	// no-crash run event for event (the views perfrecup builds are pure
	// functions of these streams, so view equality follows).
	for _, topic := range []string{provenance.TopicTaskMeta, provenance.TopicTransitions, provenance.TopicExecutions, provenance.TopicTransfers, provenance.TopicGraphs, provenance.TopicSteals} {
		got := drainJSON(t, crash, topic)
		want := drainJSON(t, baseline, topic)
		if len(got) != len(want) {
			t.Fatalf("%s: %d events under chaos, %d without (acknowledged loss or duplication)", topic, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: event %d differs:\n%s\n%s", topic, i, got[i], want[i])
			}
		}
	}

	// The failover story is on the warnings topic: broker death, leader
	// elections away from the dead node, the rejoin, and replica catch-up.
	metas, err := provenance.Drain(crash.Broker, provenance.TopicWarnings, provenance.DecodeWarning)
	if err != nil {
		t.Fatal(err)
	}
	kinds := make(map[dask.WarningKind]int)
	var daskWarns []dask.Warning
	for _, w := range metas {
		kinds[w.Kind]++
		if !strings.HasPrefix(string(w.Kind), "cluster_") && w.Kind != dask.WarnProducerDegraded {
			daskWarns = append(daskWarns, w)
		}
	}
	if kinds[mcluster.EventBrokerDead] != 1 {
		t.Fatalf("broker_dead events = %d, want 1 (kinds: %v)", kinds[mcluster.EventBrokerDead], kinds)
	}
	if kinds[mcluster.EventBrokerRejoined] != 1 {
		t.Fatalf("broker_rejoined events = %d, want 1 (kinds: %v)", kinds[mcluster.EventBrokerRejoined], kinds)
	}
	if kinds[mcluster.EventLeaderElected] == 0 {
		t.Fatalf("no leader elections recorded (kinds: %v)", kinds)
	}
	// No worker was harmed: the dask-level warning stream matches baseline.
	bmetas, err := provenance.Drain(baseline.Broker, provenance.TopicWarnings, provenance.DecodeWarning)
	if err != nil {
		t.Fatal(err)
	}
	var baseWarns []dask.Warning
	for _, w := range bmetas {
		if !strings.HasPrefix(string(w.Kind), "cluster_") && w.Kind != dask.WarnProducerDegraded {
			baseWarns = append(baseWarns, w)
		}
	}
	if len(daskWarns) != len(baseWarns) {
		t.Fatalf("dask warnings: %d under chaos, %d without", len(daskWarns), len(baseWarns))
	}
	for i := range daskWarns {
		if daskWarns[i] != baseWarns[i] {
			t.Fatalf("dask warning %d differs:\n%+v\n%+v", i, daskWarns[i], baseWarns[i])
		}
	}
}

// TestClusterChaosDeterministicTimeline: the same seed and chaos spec must
// reproduce the identical failover timeline — every cluster health event,
// including its virtual timestamp, epoch, and detail string.
func TestClusterChaosDeterministicTimeline(t *testing.T) {
	const spec = "broker node=0 at=3s restart=3s"
	a := clusterRun(t, 21, spec).Cluster.Events()
	b := clusterRun(t, 21, spec).Cluster.Events()
	if len(a) == 0 {
		t.Fatal("no cluster events recorded")
	}
	if len(a) != len(b) {
		t.Fatalf("timeline lengths differ across identical runs: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("cluster event %d differs:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}
