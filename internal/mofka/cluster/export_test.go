package cluster

import "taskprov/internal/mofka"

// NodeBroker returns node i's broker (nil for no such node): what tests
// inspect and fault one replica through.
func (c *Cluster) NodeBroker(i int) *mofka.Broker {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i < 0 || i >= len(c.nodes) {
		return nil
	}
	return c.nodes[i].broker
}

// placementView describes where one partition lives and how far it is
// acknowledged.
type placementView struct {
	Topic     string
	Partition int
	Replicas  []int // rank order; [0] is preferred leader
	Leader    int   // current leader node id, -1 if none
	Epoch     uint64
	Acked     uint64
}

// placement returns the current placement of every partition, sorted by
// (topic, partition).
func (c *Cluster) placement() []placementView {
	c.mu.Lock()
	var parts []*partState
	for _, ts := range c.topicStatesLocked() {
		parts = append(parts, ts.parts...)
	}
	c.mu.Unlock()
	var out []placementView
	for _, ps := range parts {
		ps.mu.Lock()
		out = append(out, placementView{
			Topic:     ps.topic,
			Partition: ps.index,
			Replicas:  append([]int(nil), ps.replicas...),
			Leader:    ps.leader,
			Epoch:     ps.epoch,
			Acked:     ps.acked,
		})
		ps.mu.Unlock()
	}
	return out
}

// submitWait is a quorum append its caller waits out: submit, then the wait
// for the quorum's fsyncs.
func (c *Cluster) submitWait(topic string, part int, producer string, seq uint64, metas [][]byte) error {
	commit, err := c.submit(topic, part, producer, seq, metas)
	if err != nil {
		return err
	}
	return commit.Wait()
}

// readAcked returns up to max events of the partition's acknowledged prefix
// from offset from, read off its leader without settling what is in flight:
// what a reader of the cluster may see at this moment, which tests hold the
// read view and the post-mortem open to.
func (c *Cluster) readAcked(topic string, part int, from uint64, max int) ([]mofka.Event, error) {
	ps, err := c.partition(topic, part)
	if err != nil {
		return nil, err
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if from >= ps.acked {
		return nil, nil
	}
	b, ok := c.brokerOf(ps.leader)
	if ps.leader < 0 || !ok {
		return nil, ErrUnavailable
	}
	if avail := ps.acked - from; uint64(max) > avail {
		max = int(avail)
	}
	return b.Service().Pull(ps.topic, ps.index, from, max)
}
