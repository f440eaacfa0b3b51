package cluster

import (
	"fmt"
	"sync/atomic"

	"taskprov/internal/mofka"
)

// ClusterTopic is a handle on a cluster-wide topic — the counterpart of
// *mofka.Topic for sharded deployments. It satisfies mofka.BusTopic.
type ClusterTopic struct {
	c     *Cluster
	name  string
	parts int
}

// producerSeq is the global producer-id source; ids only need to be unique
// within a process, and a plain counter keeps them deterministic.
var producerSeq atomic.Uint64

// NewProducer creates a replicated producer for the topic: mofka.Producer's
// batching, degraded-mode buffering and statistics, over a sink that lands
// each sealed batch with a quorum append. The batch's sequence number makes
// the retry idempotent — replicas that already hold it acknowledge without
// re-appending — so a retry across a leader change neither loses nor
// duplicates events. The sink is the submit half of the quorum append: it
// returns with the commit that completes once the quorum's fsyncs have
// returned, which the producer keeps, as it does a standalone partition's,
// and waits for in Flush and Close — so it ships batch n+1 while batch n
// awaits its quorum.
func (t *ClusterTopic) NewProducer(opts mofka.ProducerOptions) *mofka.Producer {
	id := fmt.Sprintf("producer-%d", producerSeq.Add(1))
	return mofka.NewProducer(t.parts, opts, func(part int, seq uint64, metas [][]byte) (*mofka.Commit, error) {
		return t.c.submit(t.name, part, id, seq, metas)
	})
}

// Bus adapts the cluster to the mofka.Bus interface, so internal/core can
// collect provenance into a cluster exactly as it does into a single
// broker.
func (c *Cluster) Bus() mofka.Bus { return clusterBus{c} }

type clusterBus struct{ *Cluster }

func (cb clusterBus) EnsureTopic(cfg mofka.TopicConfig) (mofka.BusTopic, error) {
	return cb.Cluster.EnsureTopic(cfg)
}
