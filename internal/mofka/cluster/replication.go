package cluster

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"taskprov/internal/mofka"
)

// topicState is the cluster-level view of one topic: its creation config
// plus per-partition replication state. Node brokers hold the actual event
// data; topicState holds who leads, what is acknowledged, and producer
// sequence bookkeeping.
type topicState struct {
	cfg   mofka.TopicConfig
	parts []*partState
}

// partState is the replication state of one partition. ps.mu serializes
// appends, reads, elections, and catch-up for the partition; it is always
// acquired before (never while holding) the cluster-wide c.mu.
type partState struct {
	topic string
	index int

	mu       sync.Mutex
	replicas []int // node ids, rendezvous rank order; [0] is preferred leader
	leader   int   // current leader node id, -1 when no replica is alive
	// epoch is the leadership term: every leadership change bumps it, and
	// the partition's health events report it.
	epoch uint64
	// alive is aliveReplicas' result, reused from one call to the next.
	alive []int

	// acked is the acknowledged high-water mark, what Read and Length serve:
	// consumers see [0, acked). It advances only as quorum appends settle, in
	// submit order.
	acked uint64
	// ends holds each replica's log-end, by rank: what its log will hold once
	// everything submitted to it has committed. Submit moves it and lock-step
	// compares it; unknownEnd means it is probed, once nothing is in flight.
	ends []uint64
	// inflight holds the quorum appends submitted and not yet settled, in
	// submit order.
	inflight []*quorumAppend
	// broken marks the replicas an fsync failed on since they last restarted:
	// their log refuses every append, and their acknowledgements stop
	// counting. Lazily allocated.
	broken map[int]bool

	// applied tracks, per replica node and producer id, the highest
	// replicated batch sequence number — the dedup table that makes
	// producer retries across leader changes exactly-once per replica.
	applied map[int]map[string]uint64

	// trustedLen records, per dead replica node, the acknowledged high-water
	// mark at the moment the node was declared dead: the longest prefix of
	// that node's log guaranteed consistent with the survivors. Anything the
	// node holds beyond it is an unacknowledged tail whose offsets the
	// cluster may have reused for quorum-acknowledged events, so a restart
	// truncates the rejoining log here before the replica re-enters donor
	// selection. Lazily allocated; entries are consumed by RestartBroker.
	trustedLen map[int]uint64
}

// appliedSeq returns the highest applied sequence for (node, producer).
func (ps *partState) appliedSeq(node int, producer string) uint64 {
	if m := ps.applied[node]; m != nil {
		return m[producer]
	}
	return 0
}

func (ps *partState) setApplied(node int, producer string, seq uint64) {
	m := ps.applied[node]
	if m == nil {
		m = make(map[string]uint64)
		ps.applied[node] = m
	}
	if seq > m[producer] {
		m[producer] = seq
	}
}

// copyApplied replaces dst's dedup table with a deep copy of src's — called
// after a full catch-up, when dst holds exactly src's prefix.
func (ps *partState) copyApplied(dst, src int) {
	m := make(map[string]uint64, len(ps.applied[src]))
	for k, v := range ps.applied[src] {
		m[k] = v
	}
	ps.applied[dst] = m
}

// unknownEnd is the log-end of a replica that has to be probed.
const unknownEnd = math.MaxUint64

// forgetEnds marks every replica's log-end unknown.
func (ps *partState) forgetEnds() {
	for i := range ps.ends {
		ps.ends[i] = unknownEnd
	}
}

// setEnd records replica node's log-end.
func (ps *partState) setEnd(node int, n uint64) { ps.ends[rankOf(ps.replicas, node)] = n }

// logEndLocked returns replica node's log-end, probing it when it is
// unknown: once everything in flight on the partition has settled, what the
// replica has committed is all its log holds. Caller holds ps.mu.
func (c *Cluster) logEndLocked(ps *partState, b *mofka.Broker, node int) uint64 {
	if n := ps.ends[rankOf(ps.replicas, node)]; n != unknownEnd {
		return n
	}
	c.settleLocked(ps, nil)
	n := ps.lengthOn(b)
	ps.setEnd(node, n)
	return n
}

// lengthOn probes b's log of the partition. The probe cannot fail on a
// member holding the topic, and every member holds every topic the cluster
// registered (EnsureTopic and RestartBroker create them under c.mu); a broker
// without the topic holds none of its events: 0.
func (ps *partState) lengthOn(b *mofka.Broker) uint64 {
	p, err := partitionOf(b, ps.topic, ps.index)
	if err != nil {
		return 0
	}
	return p.Length()
}

// partitionOf returns b's partition part of topic.
func partitionOf(b *mofka.Broker, topic string, part int) (*mofka.Partition, error) {
	t, err := b.OpenTopic(topic)
	if err != nil {
		return nil, err
	}
	return t.Partition(part)
}

// EnsureTopic opens the topic cluster-wide, creating it if absent: the
// replica set of every partition is computed by rendezvous hashing over the
// members and fixed for the topic's lifetime, and the topic is created on
// every node broker (nodes outside a partition's replica set simply keep that
// partition empty). It is created and registered under c.mu, so a broker that
// RestartBroker publishes either gets it here or finds the topic registered
// and creates it itself: every member holds every topic the cluster placed.
func (c *Cluster) EnsureTopic(cfg mofka.TopicConfig) (*ClusterTopic, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("%w: empty topic name", mofka.ErrInvalidEvent)
	}
	if cfg.Partitions < 0 || cfg.Partitions > mofka.MaxPartitions {
		return nil, fmt.Errorf("%w: topic %s: partition count %d out of range [0,%d]",
			mofka.ErrInvalidEvent, cfg.Name, cfg.Partitions, mofka.MaxPartitions)
	}
	if cfg.Partitions == 0 {
		cfg.Partitions = 1
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	if ts, ok := c.topics[cfg.Name]; ok {
		if ts.cfg.Partitions != cfg.Partitions {
			return nil, fmt.Errorf("%w: topic %s exists with %d partitions, requested %d",
				mofka.ErrTopicExists, cfg.Name, ts.cfg.Partitions, cfg.Partitions)
		}
		return &ClusterTopic{c: c, name: cfg.Name, parts: cfg.Partitions}, nil
	}
	for i, n := range c.nodes {
		if _, err := n.broker.OpenOrCreateTopic(cfg); err != nil {
			return nil, fmt.Errorf("cluster: create %s on node %d: %w", cfg.Name, i, err)
		}
	}
	c.topics[cfg.Name] = c.buildTopicStateLocked(cfg, len(c.nodes))
	return &ClusterTopic{c: c, name: cfg.Name, parts: cfg.Partitions}, nil
}

// buildTopicStateLocked computes placement for a new topic. Caller holds
// c.mu.
func (c *Cluster) buildTopicStateLocked(cfg mofka.TopicConfig, nodes int) *topicState {
	ts := &topicState{cfg: cfg}
	for i := 0; i < cfg.Partitions; i++ {
		set := replicaSet(cfg.Name, i, nodes, c.cfg.ReplicationFactor)
		leader := -1
		for _, r := range set {
			if c.nodes[r].alive {
				leader = r
				break
			}
		}
		ps := &partState{
			topic:    cfg.Name,
			index:    i,
			replicas: set,
			leader:   leader,
			epoch:    1,
			alive:    make([]int, 0, len(set)),
			ends:     make([]uint64, len(set)),
			applied:  make(map[int]map[string]uint64),
		}
		ps.forgetEnds()
		ts.parts = append(ts.parts, ps)
	}
	return ts
}

func (c *Cluster) partition(topic string, part int) (*partState, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ts, ok := c.topics[topic]
	if !ok {
		return nil, fmt.Errorf("%w: %s", mofka.ErrNoTopic, topic)
	}
	if part < 0 || part >= len(ts.parts) {
		return nil, fmt.Errorf("%w: %s[%d]", mofka.ErrNoPartition, topic, part)
	}
	return ts.parts[part], nil
}

// brokerOf returns node id's broker and liveness.
func (c *Cluster) brokerOf(id int) (*mofka.Broker, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if id < 0 || id >= len(c.nodes) {
		return nil, false
	}
	return c.nodes[id].broker, c.nodes[id].alive
}

// submit replicates one producer batch into (topic, part) with quorum
// acknowledgement: it returns once every decision about the batch is taken,
// with the commit that completes once the quorum's fsyncs have returned (see
// submitLocked). producer/seq implement idempotent retry: a batch the cluster
// has already applied to a replica is acknowledged there without
// re-appending, so producers may retry freely across failures and leader
// changes. Every batch goes to the partition's leader of the moment, read
// under ps.mu, so a producer holds no route of its own. producer=="" skips
// sequence tracking.
func (c *Cluster) submit(topic string, part int, producer string, seq uint64, metas [][]byte) (*mofka.Commit, error) {
	ps, err := c.partition(topic, part)
	if err != nil {
		return nil, err
	}
	ps.mu.Lock()
	commit, evs, err := c.submitLocked(ps, producer, seq, metas)
	ps.mu.Unlock()
	c.health.emit(evs)
	return commit, err
}

// submitLocked takes every decision of a quorum append on the caller's
// goroutine, in a fixed order — election, availability, dedup, lock-step or
// lagging — and the health events with their timestamps. The
// batch goes to the leader and then to the followers in rank order, and
// nothing waits for an fsync: each replica's broker fsyncs on its own
// goroutine, so the replicas' fsyncs overlap with each other and with the
// caller's next batch. Lock-step compares log-ends, which submit keeps; only
// a lagging follower waits, healed to the leader's full prefix once what is
// in flight has committed.
//
// Fewer than a quorum of replicas taking the batch refuses the append with
// ErrUnavailable. Otherwise the commit returned completes once their fsyncs
// have returned, behind every append submitted to the partition before it;
// all it can add to what submit decided is a failed fsync. A nil commit is
// an append that settled at once. Caller holds ps.mu.
func (c *Cluster) submitLocked(ps *partState, producer string, seq uint64, metas [][]byte) (*mofka.Commit, []Event, error) {
	var evs []Event
	if c.IsClosed() {
		return nil, nil, ErrClosed
	}
	// A partition whose replicas all died has no leader: elect before
	// appending, in case one came back, and append to whichever leader comes
	// out of it. With none, the partition is unavailable and producers back
	// off.
	if ps.leader < 0 || !c.nodeAlive(ps.leader) {
		evs = append(evs, c.electLocked(ps)...)
		if ps.leader < 0 || !c.nodeAlive(ps.leader) {
			return nil, evs, ErrUnavailable
		}
	}
	alive := ps.aliveReplicas(c)
	if len(alive) < c.cfg.Quorum {
		evs = append(evs, Event{
			Kind: EventUnderReplicated, Node: ps.leader, Topic: ps.topic, Partition: ps.index,
			Epoch: ps.epoch, At: c.cfg.NowSeconds(),
			Detail: fmt.Sprintf("%d alive of %d replicas, quorum %d", len(alive), len(ps.replicas), c.cfg.Quorum),
		})
		return nil, evs, ErrUnavailable
	}

	leaderBroker, _ := c.brokerOf(ps.leader)
	batch := uint64(len(metas))
	leaderEnd := c.logEndLocked(ps, leaderBroker, ps.leader)

	// Leader first. Dedup: a retried batch the leader already holds is
	// acknowledged without re-appending.
	q := &quorumAppend{}
	q.acks = q.inline[:0]
	leaderHas := producer != "" && ps.appliedSeq(ps.leader, producer) >= seq
	var leaderCommit *mofka.Commit
	var admitted mofka.Admitted
	if !leaderHas {
		// The batch is admitted once, before any replica stores it, and
		// every replica that takes it directly stores that admitted batch.
		var err error
		if admitted, err = ps.admitOn(leaderBroker, metas); err == nil {
			leaderCommit, err = ps.storeTo(leaderBroker, ps.leader, admitted)
		}
		if err != nil {
			return nil, evs, fmt.Errorf("cluster: leader %d append %s[%d]: %w", ps.leader, ps.topic, ps.index, err)
		}
		leaderEnd += batch
		if producer != "" {
			ps.setApplied(ps.leader, producer, seq)
		}
	}
	q.acks = append(q.acks, replicaAck{ps.leader, leaderCommit})
	q.end = leaderEnd

	// Followers, rank order. A follower in lockstep takes the batch
	// directly; a lagging one (it missed an earlier quorum-failed batch, or
	// it just rejoined) is first healed to the leader's full prefix —
	// preserving prefix consistency — which delivers this batch too, once the
	// leader's commit has made it readable there.
	var leaderErr error
	for _, r := range alive {
		if r == ps.leader {
			continue
		}
		b, ok := c.brokerOf(r)
		if !ok {
			continue
		}
		if producer != "" && ps.appliedSeq(r, producer) >= seq {
			q.acks = append(q.acks, replicaAck{node: r})
			continue
		}
		end := c.logEndLocked(ps, b, r)
		if !leaderHas && end == leaderEnd-batch {
			if fc, err := ps.storeTo(b, r, admitted); err == nil {
				q.acks = append(q.acks, replicaAck{r, fc})
				if producer != "" {
					ps.setApplied(r, producer, seq)
				}
			}
			continue
		}
		if leaderErr = leaderCommit.Wait(); leaderErr != nil {
			break // reported below
		}
		copied, err := c.syncReplicaLocked(ps, r, ps.leader, leaderEnd)
		if err != nil {
			continue
		}
		if copied > 0 {
			evs = append(evs, Event{
				Kind: EventCatchUp, Node: r, Topic: ps.topic, Partition: ps.index,
				Epoch: ps.epoch, At: c.cfg.NowSeconds(),
				Detail: fmt.Sprintf("copied %d events from node %d", copied, ps.leader),
			})
		}
		if producer != "" {
			ps.setApplied(r, producer, seq)
		}
		q.acks = append(q.acks, replicaAck{node: r})
	}

	// Refused or not, the batch is in flight wherever it was taken, and
	// settles in its turn.
	q.refused = leaderErr != nil || len(q.acks) < c.cfg.Quorum
	commit, err := c.trackLocked(ps, q)
	switch {
	case leaderErr != nil:
		return nil, evs, fmt.Errorf("cluster: leader %d append %s[%d]: %w", ps.leader, ps.topic, ps.index, leaderErr)
	case q.refused:
		evs = append(evs, Event{
			Kind: EventUnderReplicated, Node: ps.leader, Topic: ps.topic, Partition: ps.index,
			Epoch: ps.epoch, At: c.cfg.NowSeconds(),
			Detail: fmt.Sprintf("append reached %d of %d quorum acks", len(q.acks), c.cfg.Quorum),
		})
		return nil, evs, ErrUnavailable
	}
	return commit, evs, err
}

// admitOn runs admission over a batch on b's partition (see
// mofka.Partition.Admit).
func (ps *partState) admitOn(b *mofka.Broker, metas [][]byte) (mofka.Admitted, error) {
	p, err := partitionOf(b, ps.topic, ps.index)
	if err != nil {
		return mofka.Admitted{}, err
	}
	return p.Admit(metas)
}

// storeTo stores an admitted batch on replica node's partition, b's, and
// moves the replica's log-end past it. Its offsets are fixed here; what it
// returns is the commit to wait for (see mofka.Partition.Submit). Caller
// holds ps.mu.
func (ps *partState) storeTo(b *mofka.Broker, node int, a mofka.Admitted) (*mofka.Commit, error) {
	p, err := partitionOf(b, ps.topic, ps.index)
	if err != nil {
		return nil, err
	}
	commit, err := p.Store(a)
	if err == nil {
		ps.ends[rankOf(ps.replicas, node)] += uint64(a.Len())
	}
	return commit, err
}

// quorumAppend is one batch between the two halves of a quorum append: in
// flight on the replicas counted at submit, whose fsyncs settle it.
type quorumAppend struct {
	acks   []replicaAck // the replicas counted at submit; [0] is the leader
	inline [3]replicaAck
	end    uint64 // the leader's log-end with the batch: acknowledged when it settles
	// refused is an append submit already failed: settling it only confirms
	// the replicas it reached.
	refused bool
	commit  *mofka.Commit // what its appender waits on; nil when refused
	settled bool          // guarded by ps.mu
}

// replicaAck is one replica's acknowledgement of a batch: pending on its
// commit, or (nil) durable when counted — a dedup, a catch-up.
type replicaAck struct {
	node   int
	commit *mofka.Commit
}

// waits reports whether any replica's commit is still to be waited for.
func (q *quorumAppend) waits() bool {
	for _, a := range q.acks {
		if a.commit != nil {
			return true
		}
	}
	return false
}

// trackLocked hands a submitted append to settlement. One with nothing to
// wait for and nothing ahead of it settles at once — an in-memory cluster, a
// log that does not fsync per batch. Any other joins the partition's
// in-flight appends; unless it was refused, it gets the commit its appender
// waits on and a goroutine that settles it once its replicas' fsyncs have
// returned. Each waits on a batch staged on a replica's log, so a
// partition's staging bound also bounds them. Caller holds ps.mu.
func (c *Cluster) trackLocked(ps *partState, q *quorumAppend) (*mofka.Commit, error) {
	if len(ps.inflight) == 0 && !q.waits() {
		return nil, c.settle(ps, q)
	}
	if !q.refused {
		q.commit = mofka.NewCommit()
		c.settlers.Add(1)
		go c.settleWhenCommitted(ps, q)
	}
	ps.inflight = append(ps.inflight, q)
	return q.commit, nil
}

// settleWhenCommitted waits, holding no lock, until q's replicas have
// committed, then settles the partition's appends up to q.
func (c *Cluster) settleWhenCommitted(ps *partState, q *quorumAppend) {
	defer c.settlers.Done()
	for _, a := range q.acks {
		_ = a.commit.Wait() // the outcome is read where q settles
	}
	ps.mu.Lock()
	if !q.settled {
		c.settleLocked(ps, q)
	}
	ps.mu.Unlock()
}

// settleLocked settles the partition's in-flight appends in submit order, up
// to and including last — all of them when last is nil — waiting for their
// replicas' commits. Whatever reads settled state (a length probe, an
// election, a catch-up, a kill's or a restart's watermark) calls it first.
// Caller holds ps.mu, which the broker commits it waits for never need.
func (c *Cluster) settleLocked(ps *partState, last *quorumAppend) {
	for len(ps.inflight) > 0 {
		q := ps.inflight[0]
		n := copy(ps.inflight, ps.inflight[1:])
		ps.inflight[n] = nil
		ps.inflight = ps.inflight[:n]
		err := c.settle(ps, q)
		if q.commit != nil {
			q.commit.Complete(err)
		}
		if q == last {
			return
		}
	}
}

// settle is the second half of q, in its turn: its replicas' commits have
// returned. A replica whose fsync failed is broken from then on, and only
// replicas that are not count. A quorum of them acknowledges the leader's log
// up to q's end (every acking follower was in lockstep or fully healed, so it
// holds the leader's entire prefix); anything less is the append's error.
// Caller holds ps.mu.
func (c *Cluster) settle(ps *partState, q *quorumAppend) error {
	q.settled = true
	acks := 0
	var leaderErr, fsyncErr error
	for i, a := range q.acks {
		if err := a.commit.Wait(); err != nil {
			if ps.broken == nil {
				ps.broken = make(map[int]bool)
			}
			ps.broken[a.node] = true
			if i == 0 {
				leaderErr = err
			}
			if fsyncErr == nil {
				fsyncErr = err
			}
		} else if !ps.broken[a.node] {
			acks++
		}
	}
	switch {
	case q.refused:
		return nil
	case leaderErr != nil:
		return fmt.Errorf("cluster: leader %d append %s[%d]: %w", q.acks[0].node, ps.topic, ps.index, leaderErr)
	case acks < c.cfg.Quorum:
		return errors.Join(fmt.Errorf("%w: %s[%d]: append reached %d of %d quorum acks",
			ErrUnavailable, ps.topic, ps.index, acks, c.cfg.Quorum), fsyncErr)
	}
	if q.end > ps.acked {
		ps.acked = q.end
	}
	return nil
}

// aliveReplicas returns the partition's alive replica node ids in rank
// order, in ps.alive: the next call overwrites it, and nothing that holds
// the result calls again. Caller holds ps.mu.
func (ps *partState) aliveReplicas(c *Cluster) []int {
	ps.alive = ps.alive[:0]
	for _, r := range ps.replicas {
		if c.nodeAlive(r) {
			ps.alive = append(ps.alive, r)
		}
	}
	return ps.alive
}

// syncReplicaLocked has dst store the partition's events from donor in
// catchUpBatch chunks until dst holds the donor's prefix [0, want), and
// adopts the donor's dedup table. dst's current length is read fresh here,
// once what is in flight has settled, rather than trusted from the caller — a
// stale or defaulted value would re-append events dst already holds,
// duplicating them. Caller holds ps.mu. Returns the number of events copied.
func (c *Cluster) syncReplicaLocked(ps *partState, dst, donor int, want uint64) (uint64, error) {
	dstBroker, _ := c.brokerOf(dst)
	donorBroker, _ := c.brokerOf(donor)
	c.settleLocked(ps, nil)
	ps.setEnd(dst, unknownEnd)
	dstLog, err := partitionOf(dstBroker, ps.topic, ps.index)
	if err != nil {
		return 0, err
	}
	donorLog, err := partitionOf(donorBroker, ps.topic, ps.index)
	if err != nil {
		return 0, err
	}
	have := dstLog.Length()
	var copied uint64
	for have < want {
		n := int(want - have)
		if n > catchUpBatch {
			n = catchUpBatch
		}
		// The donor's stored documents, shared: dst frames them in the
		// form the donor stores and keeps their bytes under its own index.
		batch := donorLog.Stored(have, n)
		if batch.Len() == 0 {
			break
		}
		commit, err := dstLog.Store(batch)
		if err == nil {
			err = commit.Wait()
		}
		if err != nil {
			return copied, err
		}
		have += uint64(batch.Len())
		copied += uint64(batch.Len())
	}
	ps.setEnd(dst, have)
	if copied > 0 || have == want {
		ps.copyApplied(dst, donor)
	}
	return copied, nil
}

// electLocked reconciles a partition after a membership change: the
// highest-ranked alive replica becomes leader, the new leader is healed
// from the longest surviving log (leader-first appends mean a dead leader's
// unacknowledged tail — and only that tail — can be lost), and the other
// survivors are healed from the new leader. Leadership changes bump the
// partition's epoch, the term its health events report. Caller holds
// ps.mu; returned events must be emitted after the lock is released.
func (c *Cluster) electLocked(ps *partState) []Event {
	var evs []Event
	now := c.cfg.NowSeconds()
	// Reconciliation reads settled state: every log-end is probed afresh
	// once what is in flight has committed.
	c.settleLocked(ps, nil)
	ps.forgetEnds()
	alive := ps.aliveReplicas(c)
	if len(alive) == 0 {
		if ps.leader >= 0 {
			ps.leader = -1
			ps.epoch++
			evs = append(evs, Event{
				Kind: EventUnderReplicated, Node: -1, Topic: ps.topic, Partition: ps.index,
				Epoch: ps.epoch, At: now, Detail: "no alive replicas",
			})
		}
		return evs
	}

	// Longest surviving log is the catch-up donor: it holds every
	// acknowledged event (acked events live on >= quorum replicas, and
	// replica logs are prefix-consistent).
	donor, donorLen := -1, uint64(0)
	for _, r := range alive {
		b, _ := c.brokerOf(r)
		n := ps.lengthOn(b)
		ps.setEnd(r, n)
		if donor < 0 || n > donorLen {
			donor, donorLen = r, n
		}
	}

	newLeader := alive[0]
	healed := 1 // the donor holds its own full prefix
	if newLeader != donor {
		copied, err := c.syncReplicaLocked(ps, newLeader, donor, donorLen)
		if err == nil {
			healed++
			if copied > 0 {
				evs = append(evs, Event{
					Kind: EventCatchUp, Node: newLeader, Topic: ps.topic, Partition: ps.index,
					Epoch: ps.epoch, At: now,
					Detail: fmt.Sprintf("copied %d events from node %d", copied, donor),
				})
			}
		} else {
			// The preferred leader cannot be healed right now; lead from the
			// donor instead so acknowledged data stays serveable.
			newLeader = donor
		}
	}
	for _, r := range alive {
		if r == newLeader || r == donor {
			continue
		}
		copied, err := c.syncReplicaLocked(ps, r, newLeader, donorLen)
		if err != nil {
			continue
		}
		healed++
		if copied > 0 {
			evs = append(evs, Event{
				Kind: EventCatchUp, Node: r, Topic: ps.topic, Partition: ps.index,
				Epoch: ps.epoch, At: now,
				Detail: fmt.Sprintf("copied %d events from node %d", copied, newLeader),
			})
		}
	}

	if newLeader != ps.leader {
		ps.epoch++
		ps.leader = newLeader
		evs = append(evs, Event{
			Kind: EventLeaderElected, Node: newLeader, Topic: ps.topic, Partition: ps.index,
			Epoch: ps.epoch, At: now,
			Detail: fmt.Sprintf("rank %d of %v", rankOf(ps.replicas, newLeader), ps.replicas),
		})
	}
	if len(alive) < c.cfg.Quorum {
		evs = append(evs, Event{
			Kind: EventUnderReplicated, Node: newLeader, Topic: ps.topic, Partition: ps.index,
			Epoch: ps.epoch, At: now,
			Detail: fmt.Sprintf("%d alive of %d replicas, quorum %d", len(alive), len(ps.replicas), c.cfg.Quorum),
		})
	} else if healed >= c.cfg.Quorum && donorLen > ps.acked {
		// The donor's full prefix now provably lives on >= quorum replicas
		// (the donor plus every replica healed to it this round): the
		// reconciled log is acknowledged. Replicas that could not be healed
		// do not count toward the quorum.
		ps.acked = donorLen
	}
	return evs
}

func rankOf(replicas []int, node int) int {
	for i, r := range replicas {
		if r == node {
			return i
		}
	}
	return -1
}

// recoverTopics rebuilds cluster topic state after reopening a durable
// cluster: each node broker has already replayed its own WAL; the cluster
// recomputes placement (a pure function, so it matches the original run),
// reconciles replica divergence left by the crash, and acknowledges the
// longest recovered prefix.
func (c *Cluster) recoverTopics() error {
	c.mu.Lock()
	names := make(map[string]mofka.TopicConfig)
	for _, n := range c.nodes {
		for _, name := range n.broker.Topics() {
			if _, ok := names[name]; ok {
				continue
			}
			t, err := n.broker.OpenTopic(name)
			if err != nil {
				c.mu.Unlock()
				return err
			}
			names[name] = t.Config()
		}
	}
	sortedNames := make([]string, 0, len(names))
	for name := range names {
		sortedNames = append(sortedNames, name)
	}
	sort.Strings(sortedNames)
	states := make([]*topicState, 0, len(sortedNames))
	for _, name := range sortedNames {
		for _, n := range c.nodes {
			if _, err := n.broker.OpenOrCreateTopic(names[name]); err != nil {
				c.mu.Unlock()
				return err
			}
		}
		ts := c.buildTopicStateLocked(names[name], len(c.nodes))
		c.topics[name] = ts
		states = append(states, ts)
	}
	c.mu.Unlock()

	var evs []Event
	for _, ts := range states {
		for _, ps := range ts.parts {
			ps.mu.Lock()
			evs = append(evs, c.electLocked(ps)...)
			ps.mu.Unlock()
		}
	}
	c.health.emit(evs)
	return nil
}

// ReadView materializes the cluster's acknowledged state as a standalone
// in-memory broker: every topic and every partition's acknowledged prefix. Post-run
// analysis (perfrecup views, the live monitor's final replay,
// provenance.Records) works on the view unchanged — the cluster looks exactly
// like the single broker those tools were built for. What is in flight
// settles first, so the view is the same whenever the fsyncs returned.
// Appends to the view stay in the view, and nothing the cluster does
// afterwards reaches it.
func (c *Cluster) ReadView() (*mofka.Broker, error) {
	view := mofka.NewStandaloneBroker()
	c.mu.Lock()
	states := c.topicStatesLocked()
	c.mu.Unlock()

	for _, ts := range states {
		vt, err := view.CreateTopic(ts.cfg)
		if err != nil {
			return nil, err
		}
		for _, ps := range ts.parts {
			vp, err := vt.Partition(ps.index)
			if err != nil {
				return nil, err
			}
			ps.mu.Lock()
			c.settleLocked(ps, nil)
			err = c.viewLocked(ps, vp)
			ps.mu.Unlock()
			if err != nil {
				return nil, err
			}
		}
	}

	return view, nil
}

// viewLocked gives vp, a partition of a read view, the acknowledged prefix of
// ps. The leader's committed documents are shared, not stored again
// (mofka.Partition.ShareFrom): one copy of each event per replica, whatever
// reads it. Caller holds ps.mu, after settleLocked.
func (c *Cluster) viewLocked(ps *partState, vp *mofka.Partition) error {
	if ps.acked == 0 {
		return nil
	}
	if ps.leader < 0 {
		return ErrUnavailable
	}
	b, _ := c.brokerOf(ps.leader)
	lp, err := partitionOf(b, ps.topic, ps.index)
	if err != nil {
		return err
	}
	return vp.ShareFrom(lp, ps.acked)
}

// topicStatesLocked returns every topic's state in name order: what acts on
// all topics goes in it, so that no map order reaches a member, a view or a
// failover timeline. Caller holds c.mu.
func (c *Cluster) topicStatesLocked() []*topicState {
	out := make([]*topicState, 0, len(c.topics))
	for _, ts := range c.topics {
		out = append(out, ts)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].cfg.Name < out[j].cfg.Name })
	return out
}
