package core

import (
	"testing"

	"taskprov/internal/dask"
	"taskprov/internal/provenance"
)

// proxyReplayTopics is every provenance stream this session records (the
// anomalies topic only exists when online detection is enabled); the
// deterministic-replay regression compares all of them.
var proxyReplayTopics = []string{
	provenance.TopicTaskMeta, provenance.TopicTransitions, provenance.TopicExecutions, provenance.TopicTransfers,
	provenance.TopicWarnings, provenance.TopicHeartbeats, provenance.TopicSteals, provenance.TopicGraphs, provenance.TopicProxy,
}

// TestProxySessionDeterministicReplay: the same seeded session with the
// pass-by-reference data plane enabled must reproduce byte-identical
// provenance streams, topic for topic — publish/resolve/free interleavings
// and resident-bytes snapshots included.
func TestProxySessionDeterministicReplay(t *testing.T) {
	run := func() *RunArtifacts {
		cfg := testSession(9)
		cfg.Dask.ProxyThresholdBytes = 1 << 17
		wf := &crashWorkflow{width: 16}
		art, err := Run(cfg, wf)
		if err != nil {
			t.Fatal(err)
		}
		if wf.graphErr != "" {
			t.Fatalf("graph erred: %s", wf.graphErr)
		}
		return art
	}
	a, b := run(), run()
	for _, topic := range proxyReplayTopics {
		ja, jb := drainJSON(t, a, topic), drainJSON(t, b, topic)
		if len(ja) != len(jb) {
			t.Fatalf("topic %s: %d vs %d events across identical runs", topic, len(ja), len(jb))
		}
		for i := range ja {
			if ja[i] != jb[i] {
				t.Fatalf("topic %s event %d differs:\n%s\n%s", topic, i, ja[i], jb[i])
			}
		}
	}
	// The proxy plane actually engaged: the streams being identical would be
	// vacuous if nothing was proxied.
	if n := len(drainJSON(t, a, provenance.TopicProxy)); n == 0 {
		t.Fatal("no proxy events recorded")
	}
}

// TestProxyClusterChaosAcceptance is the end-to-end acceptance run: a
// 3-broker replicated Mofka cluster records a proxy-enabled session whose
// chaos spec kills a worker mid-run. The graph must still complete — no
// acknowledged result lost — with the victim's keys recomputed and
// republished under new owners, and the store's resident footprint must
// return to the fault-free baseline (every orphaned blob freed or
// reclaimed).
func TestProxyClusterChaosAcceptance(t *testing.T) {
	run := func(chaosSpec string) []dask.ProxyEvent {
		cfg := clusterSession(31)
		cfg.Dask.ProxyThresholdBytes = 1 << 17
		cfg.ChaosSpec = chaosSpec
		wf := &crashWorkflow{width: 32}
		art, err := Run(cfg, wf)
		if err != nil {
			t.Fatal(err)
		}
		if wf.graphErr != "" {
			t.Fatalf("graph erred under %q: %s", chaosSpec, wf.graphErr)
		}
		evs, err := provenance.Drain(new(provenance.Decoder), art.Broker, provenance.TopicProxy, (*provenance.Decoder).ProxyEvent)
		if err != nil {
			t.Fatal(err)
		}
		return evs
	}

	tally := func(evs []dask.ProxyEvent) (resident int64, publishes int) {
		for _, e := range evs {
			switch e.Op {
			case dask.ProxyOpPublish:
				resident += e.Bytes
				publishes++
			case dask.ProxyOpFree, dask.ProxyOpReclaim:
				resident -= e.Bytes
			}
		}
		return resident, publishes
	}

	baseRes, basePubs := tally(run(""))
	chaosRes, chaosPubs := tally(run("kill worker=2 at=6s restart=4s"))

	if basePubs == 0 {
		t.Fatal("baseline run published nothing through the proxy store")
	}
	if chaosPubs <= basePubs {
		t.Fatalf("chaos run published %d blobs, baseline %d — lost keys were not republished",
			chaosPubs, basePubs)
	}
	if chaosRes != baseRes {
		t.Fatalf("resident bytes after chaos = %d, baseline = %d — orphaned blobs leaked",
			chaosRes, baseRes)
	}
}
