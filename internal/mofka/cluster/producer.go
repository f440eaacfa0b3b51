package cluster

import (
	"errors"
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
	// Per-partition cached fencing epoch (0 = unknown). The producer never
	// runs its sink concurrently, so the cache needs no lock of its own.
	epochs := make([]uint64, t.parts)
	return mofka.NewProducer(t.parts, opts, func(part int, seq uint64, metas [][]byte) (*mofka.Commit, error) {
		cur, commit, err := t.c.submitRefreshing(t.name, part, id, seq, epochs[part], metas)
		epochs[part] = cur
		return commit, err
	})
}

// maxFenceRefreshes bounds how often one append follows a stale route to a
// fresh epoch before reporting ErrFenced to its caller.
const maxFenceRefreshes = 5

// submitRefreshing is submit for callers that follow the route: ErrFenced
// means the epoch they hold is stale, not that the append failed, so it is
// retried at once with the current epoch that rides on the error return. An
// append still fenced after maxFenceRefreshes tries is an election storm;
// the caller gets the ErrFenced and treats it as any other failed attempt.
func (c *Cluster) submitRefreshing(topic string, part int, producer string, seq, epoch uint64, metas [][]byte) (cur uint64, commit *mofka.Commit, err error) {
	for refreshes := 0; ; refreshes++ {
		cur, commit, err = c.submit(topic, part, producer, seq, epoch, metas)
		if !errors.Is(err, ErrFenced) || refreshes >= maxFenceRefreshes {
			return cur, commit, err
		}
		epoch = cur
	}
}

// Bus adapts the cluster to the mofka.Bus interface, so internal/core can
// collect provenance into a cluster exactly as it does into a single
// broker.
func (c *Cluster) Bus() mofka.Bus { return clusterBus{c} }

type clusterBus struct{ *Cluster }

func (cb clusterBus) EnsureTopic(cfg mofka.TopicConfig) (mofka.BusTopic, error) {
	return cb.Cluster.EnsureTopic(cfg)
}
