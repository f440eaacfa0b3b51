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

// PartitionCount returns the topic's partition count.
func (t *ClusterTopic) PartitionCount() int { return t.parts }

// producerSeq is the global producer-id source; ids only need to be unique
// within a process, and a plain counter keeps them deterministic.
var producerSeq atomic.Uint64

// NewProducer creates a replicated producer for the topic: mofka.Producer's
// batching, degraded-mode buffering and statistics, over a sink that lands
// each sealed batch with a quorum append. The batch's sequence number makes
// the retry idempotent — replicas that already hold it acknowledge without
// re-appending — so a retry across a leader change neither loses nor
// duplicates events. The sink returns once the quorum holds the batch
// durably, so it has no commit for the producer to wait on: the overlap of
// the replicas' fsyncs is inside the append, not across batches.
func (t *ClusterTopic) NewProducer(opts mofka.ProducerOptions) *mofka.Producer {
	t.c.mu.Lock()
	var valid mofka.Validator
	if ts, ok := t.c.topics[t.name]; ok {
		valid = ts.cfg.Validator
	}
	t.c.mu.Unlock()
	id := fmt.Sprintf("producer-%d", producerSeq.Add(1))
	// Per-partition cached fencing epoch (0 = unknown). The producer never
	// runs its sink concurrently, so the cache needs no lock of its own.
	epochs := make([]uint64, t.parts)
	return mofka.NewProducer(t.parts, valid, opts, func(part int, seq uint64, metas, datas [][]byte) (*mofka.Commit, error) {
		cur, err := t.c.appendRefreshing(t.name, part, id, seq, epochs[part], metas, datas)
		epochs[part] = cur
		return nil, err
	})
}

// maxFenceRefreshes bounds how often one append follows a stale route to a
// fresh epoch before reporting ErrFenced to its caller.
const maxFenceRefreshes = 5

// appendRefreshing is Append for callers that follow the route: ErrFenced
// means the epoch they hold is stale, not that the append failed, so it is
// retried at once with the current epoch that rides on the error return. An
// append still fenced after maxFenceRefreshes tries is an election storm;
// the caller gets the ErrFenced and treats it as any other failed attempt.
func (c *Cluster) appendRefreshing(topic string, part int, producer string, seq, epoch uint64, metas, datas [][]byte) (cur uint64, err error) {
	for refreshes := 0; ; refreshes++ {
		cur, err = c.Append(topic, part, producer, seq, epoch, metas, datas)
		if !errors.Is(err, ErrFenced) || refreshes >= maxFenceRefreshes {
			return cur, err
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
