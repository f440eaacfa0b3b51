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
	epoch    uint64

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
func (c *Cluster) logEndLocked(ps *partState, rep replica, node int) (uint64, error) {
	if n := ps.ends[rankOf(ps.replicas, node)]; n != unknownEnd {
		return n, nil
	}
	c.settleLocked(ps, nil)
	n, err := rep.PartitionLength(ps.topic, ps.index)
	if err != nil {
		return 0, err
	}
	ps.setEnd(node, n)
	return n, nil
}

// EnsureTopic opens the topic cluster-wide, creating it if absent: the
// replica set of every partition is computed by rendezvous hashing over the
// current membership and fixed for the topic's lifetime, and the topic is
// created on every node broker (nodes outside a partition's replica set
// simply keep that partition empty).
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
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	if ts, ok := c.topics[cfg.Name]; ok {
		if ts.cfg.Partitions != cfg.Partitions {
			c.mu.Unlock()
			return nil, fmt.Errorf("%w: topic %s exists with %d partitions, requested %d",
				mofka.ErrTopicExists, cfg.Name, ts.cfg.Partitions, cfg.Partitions)
		}
		c.mu.Unlock()
		return &ClusterTopic{c: c, name: cfg.Name, parts: cfg.Partitions}, nil
	}
	nodes := len(c.nodes)
	reps := make([]replica, nodes)
	for i, n := range c.nodes {
		reps[i] = n.rep
	}
	ts := c.buildTopicStateLocked(cfg, nodes)
	c.mu.Unlock()

	// Create the topic on every member outside c.mu (remote members mean a
	// network round-trip per node).
	for i, rep := range reps {
		if err := rep.CreateTopic(cfg); err != nil {
			return nil, fmt.Errorf("cluster: create %s on node %d: %w", cfg.Name, i, err)
		}
	}

	c.mu.Lock()
	if existing, ok := c.topics[cfg.Name]; ok {
		ts = existing // lost a create race; both computed identical placement
	} else {
		c.topics[cfg.Name] = ts
	}
	c.mu.Unlock()
	return &ClusterTopic{c: c, name: cfg.Name, parts: ts.cfg.Partitions}, nil
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
			ends:     make([]uint64, len(set)),
			applied:  make(map[int]map[string]uint64),
		}
		ps.forgetEnds()
		ts.parts = append(ts.parts, ps)
	}
	return ts
}

// Topics lists cluster topic names in sorted order.
func (c *Cluster) Topics() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.topics))
	for n := range c.topics {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Topic returns a handle for an existing cluster topic.
func (c *Cluster) Topic(name string) (*ClusterTopic, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ts, ok := c.topics[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", mofka.ErrNoTopic, name)
	}
	return &ClusterTopic{c: c, name: name, parts: ts.cfg.Partitions}, nil
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

// replicaOf returns node id's replica handle and liveness.
func (c *Cluster) replicaOf(id int) (replica, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if id < 0 || id >= len(c.nodes) {
		return replica{}, false
	}
	return c.nodes[id].rep, c.nodes[id].alive
}

// Append replicates one producer batch into (topic, part) with quorum
// acknowledgement and returns once it is acknowledged: submit, then the wait
// for the quorum's fsyncs. producer/seq implement idempotent retry: a batch
// the cluster has already applied to a replica is acknowledged there without
// re-appending, so producers may retry freely across failures and leader
// changes. epoch is the producer's cached fencing epoch; a stale value
// fails with ErrFenced and the current epoch is returned for the retry.
// producer=="" skips sequence tracking (non-idempotent raw appends).
//
// The returned epoch is always the partition's current epoch.
func (c *Cluster) Append(topic string, part int, producer string, seq uint64, epoch uint64, metas [][]byte) (uint64, error) {
	cur, commit, err := c.submit(topic, part, producer, seq, epoch, metas)
	if err != nil {
		return cur, err
	}
	return cur, commit.Wait()
}

// submit is the first half of Append: it returns once every decision about
// the batch is taken, with the wait for the quorum's fsyncs (see
// submitLocked).
func (c *Cluster) submit(topic string, part int, producer string, seq, epoch uint64, metas [][]byte) (uint64, *mofka.Commit, error) {
	ps, err := c.partition(topic, part)
	if err != nil {
		return 0, nil, err
	}
	ps.mu.Lock()
	cur, commit, evs, err := c.submitLocked(ps, producer, seq, epoch, metas)
	ps.mu.Unlock()
	c.health.emit(evs)
	return cur, commit, err
}

// submitLocked takes every decision of a quorum append on the caller's
// goroutine, in a fixed order — fence, availability, dedup, lock-step or
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
func (c *Cluster) submitLocked(ps *partState, producer string, seq uint64, epoch uint64, metas [][]byte) (uint64, *mofka.Commit, []Event, error) {
	var evs []Event
	if c.IsClosed() {
		return ps.epoch, nil, nil, ErrClosed
	}
	if epoch != ps.epoch {
		return ps.epoch, nil, nil, fmt.Errorf("%w: have epoch %d, current %d", ErrFenced, epoch, ps.epoch)
	}
	// A leader that died without a detected failure (remote member crash
	// between sweeps) surfaces here: elect before appending. If no alive
	// leader exists even after the election, the partition is unavailable —
	// reported as such (not as a fence) so producers back off instead of
	// hot-looping on route refreshes.
	if ps.leader < 0 || !c.nodeAlive(ps.leader) {
		evs = append(evs, c.electLocked(ps)...)
		if ps.leader < 0 || !c.nodeAlive(ps.leader) {
			return ps.epoch, nil, evs, ErrUnavailable
		}
		return ps.epoch, nil, evs, fmt.Errorf("%w: leader changed", ErrFenced)
	}
	alive := ps.aliveReplicas(c)
	if len(alive) < c.cfg.Quorum {
		evs = append(evs, Event{
			Kind: EventUnderReplicated, Node: ps.leader, Topic: ps.topic, Partition: ps.index,
			Epoch: ps.epoch, At: c.cfg.NowSeconds(),
			Detail: fmt.Sprintf("%d alive of %d replicas, quorum %d", len(alive), len(ps.replicas), c.cfg.Quorum),
		})
		return ps.epoch, nil, evs, ErrUnavailable
	}

	leaderRep, _ := c.replicaOf(ps.leader)
	batch := uint64(len(metas))
	leaderEnd, err := c.logEndLocked(ps, leaderRep, ps.leader)
	if err != nil {
		return ps.epoch, nil, evs, err
	}

	// Leader first. Dedup: a retried batch the leader already holds is
	// acknowledged without re-appending.
	q := &quorumAppend{}
	q.acks = q.inline[:0]
	leaderHas := producer != "" && ps.appliedSeq(ps.leader, producer) >= seq
	var leaderCommit *mofka.Commit
	if !leaderHas {
		if leaderCommit, err = ps.submitTo(leaderRep, ps.leader, metas); err != nil {
			return ps.epoch, nil, evs, fmt.Errorf("cluster: leader %d append %s[%d]: %w", ps.leader, ps.topic, ps.index, err)
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
		rep, ok := c.replicaOf(r)
		if !ok {
			continue
		}
		if producer != "" && ps.appliedSeq(r, producer) >= seq {
			q.acks = append(q.acks, replicaAck{node: r})
			continue
		}
		end, err := c.logEndLocked(ps, rep, r)
		if err != nil {
			continue // replica unreachable: no ack
		}
		if !leaderHas && end == leaderEnd-batch {
			if fc, err := ps.submitTo(rep, r, metas); err == nil {
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
		return ps.epoch, nil, evs, fmt.Errorf("cluster: leader %d append %s[%d]: %w", ps.leader, ps.topic, ps.index, leaderErr)
	case q.refused:
		evs = append(evs, Event{
			Kind: EventUnderReplicated, Node: ps.leader, Topic: ps.topic, Partition: ps.index,
			Epoch: ps.epoch, At: c.cfg.NowSeconds(),
			Detail: fmt.Sprintf("append reached %d of %d quorum acks", len(q.acks), c.cfg.Quorum),
		})
		return ps.epoch, nil, evs, ErrUnavailable
	}
	return ps.epoch, commit, evs, err
}

// submitTo lands a batch on one replica and moves the replica's log-end past
// it. A local broker's service takes it in two halves: submitted here, with
// its commit to wait for. A remote member's push is synchronous, nothing left
// to wait for — and after a failed one, what its log holds is unknown.
// Caller holds ps.mu.
func (ps *partState) submitTo(rep replica, node int, metas [][]byte) (*mofka.Commit, error) {
	sub, halves := rep.Service.(mofka.BatchSubmitter)
	var commit *mofka.Commit
	var err error
	if halves {
		commit, err = sub.SubmitBatch(ps.topic, ps.index, metas)
	} else {
		err = rep.PushBatch(ps.topic, ps.index, metas)
	}
	i := rankOf(ps.replicas, node)
	switch {
	case err == nil:
		ps.ends[i] += uint64(len(metas))
	case !halves:
		ps.ends[i] = unknownEnd
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
// commit, or (nil) durable when counted — a dedup, a catch-up, a remote push.
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
// order. Caller holds ps.mu.
func (ps *partState) aliveReplicas(c *Cluster) []int {
	var out []int
	for _, r := range ps.replicas {
		if c.nodeAlive(r) {
			out = append(out, r)
		}
	}
	return out
}

// syncReplicaLocked copies the partition's events from donor to dst in
// catchUpBatch chunks until dst holds the donor's prefix [0, want), and
// adopts the donor's dedup table. dst's current length is probed fresh here,
// once what is in flight has settled, rather than trusted from the caller — a
// stale or defaulted value would re-append events dst already holds,
// duplicating them. Caller holds ps.mu. Returns the number of events copied.
func (c *Cluster) syncReplicaLocked(ps *partState, dst, donor int, want uint64) (uint64, error) {
	dstRep, ok := c.replicaOf(dst)
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrNoNode, dst)
	}
	donorRep, ok := c.replicaOf(donor)
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrNoNode, donor)
	}
	c.settleLocked(ps, nil)
	ps.setEnd(dst, unknownEnd)
	have, err := dstRep.PartitionLength(ps.topic, ps.index)
	if err != nil {
		return 0, err
	}
	var copied uint64
	for have < want {
		n := int(want - have)
		if n > catchUpBatch {
			n = catchUpBatch
		}
		evs, err := donorRep.Pull(ps.topic, ps.index, have, n)
		if err != nil {
			return copied, err
		}
		if len(evs) == 0 {
			break
		}
		if err := dstRep.PushBatch(ps.topic, ps.index, metadataOf(evs)); err != nil {
			return copied, err
		}
		have += uint64(len(evs))
		copied += uint64(len(evs))
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
// fencing epoch, invalidating every producer's cached route. Caller holds
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
	// replica logs are prefix-consistent). A replica whose length probe
	// fails is excluded from donor selection, leadership, and healing this
	// round — treating a failed probe as length 0 would re-append the
	// donor's whole prefix onto data the replica already holds.
	donor, donorLen := -1, uint64(0)
	lengths := make(map[int]uint64, len(alive))
	for _, r := range alive {
		rep, _ := c.replicaOf(r)
		n, err := rep.PartitionLength(ps.topic, ps.index)
		if err != nil {
			continue
		}
		lengths[r] = n
		ps.setEnd(r, n)
		if donor < 0 || n > donorLen {
			donor, donorLen = r, n
		}
	}
	if donor < 0 {
		return evs
	}

	newLeader := -1
	for _, r := range alive {
		if _, ok := lengths[r]; ok {
			newLeader = r
			break
		}
	}
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
		if _, ok := lengths[r]; !ok {
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
		// reconciled log is acknowledged. Replicas that could not be probed
		// or healed do not count toward the quorum.
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

// Read returns up to max events of the partition's acknowledged prefix
// starting at offset from. Unacknowledged leader-only suffixes are never
// visible to consumers — they could be lost in a failover.
func (c *Cluster) Read(topic string, part int, from uint64, max int) ([]mofka.Event, error) {
	ps, err := c.partition(topic, part)
	if err != nil {
		return nil, err
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return c.readLocked(ps, from, max)
}

func (c *Cluster) readLocked(ps *partState, from uint64, max int) ([]mofka.Event, error) {
	if from >= ps.acked {
		return nil, nil
	}
	if ps.leader < 0 {
		return nil, ErrUnavailable
	}
	rep, ok := c.replicaOf(ps.leader)
	if !ok {
		return nil, ErrUnavailable
	}
	if avail := ps.acked - from; uint64(max) > avail {
		max = int(avail)
	}
	return rep.Pull(ps.topic, ps.index, from, max)
}

// Length returns the partition's acknowledged length — what consumers can
// observe.
func (c *Cluster) Length(topic string, part int) (uint64, error) {
	ps, err := c.partition(topic, part)
	if err != nil {
		return 0, err
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.acked, nil
}

// CommitCursor durably records a consumer's next-unread offset on every
// alive replica of the partition, so the cursor survives any single broker
// loss exactly as the events do.
func (c *Cluster) CommitCursor(consumer, topic string, part int, next uint64) error {
	ps, err := c.partition(topic, part)
	if err != nil {
		return err
	}
	ps.mu.Lock()
	alive := ps.aliveReplicas(c)
	ps.mu.Unlock()
	committed := 0
	var firstErr error
	for _, r := range alive {
		rep, ok := c.replicaOf(r)
		if !ok {
			continue
		}
		if err := rep.Commit(consumer, topic, part, next); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		committed++
	}
	if committed == 0 {
		if firstErr != nil {
			return firstErr
		}
		return ErrUnavailable
	}
	return nil
}

// LoadCursor returns a consumer's committed next-unread offset: the maximum
// across the partition's alive replicas (commits land on all of them; a
// replica that was dead during a commit reports a stale value).
func (c *Cluster) LoadCursor(consumer, topic string, part int) uint64 {
	ps, err := c.partition(topic, part)
	if err != nil {
		return 0
	}
	ps.mu.Lock()
	alive := ps.aliveReplicas(c)
	ps.mu.Unlock()
	var max uint64
	for _, r := range alive {
		rep, ok := c.replicaOf(r)
		if !ok {
			continue
		}
		if n, err := rep.Cursor(consumer, topic, part); err == nil && n > max {
			max = n
		}
	}
	return max
}

// recoverTopics rebuilds cluster topic state after reopening a durable
// cluster: each node broker has already replayed its own WAL; the cluster
// recomputes placement (a pure function, so it matches the original run),
// reconciles replica divergence left by the crash, and acknowledges the
// longest recovered prefix.
func (c *Cluster) recoverTopics() error {
	c.mu.Lock()
	nodes := len(c.nodes)
	names := make(map[string]mofka.TopicConfig)
	for _, n := range c.nodes {
		if n.local == nil {
			continue
		}
		for _, name := range n.local.Topics() {
			if _, ok := names[name]; ok {
				continue
			}
			t, err := n.local.OpenTopic(name)
			if err != nil {
				c.mu.Unlock()
				return err
			}
			names[name] = t.Config()
		}
	}
	reps := make([]replica, nodes)
	for i, n := range c.nodes {
		reps[i] = n.rep
	}
	sortedNames := make([]string, 0, len(names))
	for name := range names {
		sortedNames = append(sortedNames, name)
	}
	sort.Strings(sortedNames)
	states := make([]*topicState, 0, len(sortedNames))
	for _, name := range sortedNames {
		ts := c.buildTopicStateLocked(names[name], nodes)
		c.topics[name] = ts
		states = append(states, ts)
	}
	c.mu.Unlock()

	var evs []Event
	for _, ts := range states {
		for _, rep := range reps {
			if err := rep.CreateTopic(ts.cfg); err != nil {
				return err
			}
		}
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
// in-memory broker: every topic, every partition's acknowledged prefix, and
// every committed cursor. Post-run analysis (perfrecup views, the live
// monitor's final replay, provenance.Records) works on the view unchanged —
// the cluster looks exactly like the single broker those tools were built
// for. What is in flight settles first, so the view is the same whenever
// the fsyncs returned. Appends to the view stay in the view, and nothing
// the cluster does afterwards reaches it.
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

	// Cursors: merge every node's committed cursors (max wins) into the view.
	c.mu.Lock()
	locals := make([]*mofka.Broker, 0, len(c.nodes))
	for _, n := range c.nodes {
		if n.alive && n.local != nil {
			locals = append(locals, n.local)
		}
	}
	c.mu.Unlock()
	var cursors []mofka.CursorEntry
	for _, b := range locals {
		cursors = append(cursors, b.Cursors()...)
	}
	// In key order, each key's largest offset first: the one committed.
	sort.Slice(cursors, func(i, j int) bool {
		a, b := cursors[i], cursors[j]
		if a.Consumer != b.Consumer {
			return a.Consumer < b.Consumer
		}
		if a.Topic != b.Topic {
			return a.Topic < b.Topic
		}
		if a.Partition != b.Partition {
			return a.Partition < b.Partition
		}
		return a.Next > b.Next
	})
	for i, cur := range cursors {
		if i > 0 {
			if prev := cursors[i-1]; prev.Consumer == cur.Consumer && prev.Topic == cur.Topic && prev.Partition == cur.Partition {
				continue // a smaller offset of the key committed just before
			}
		}
		if err := view.CommitCursor(cur.Consumer, cur.Topic, cur.Partition, cur.Next); err != nil {
			return nil, err
		}
	}
	return view, nil
}

// viewLocked gives vp, a partition of a read view, the acknowledged prefix of
// ps. A local leader's committed documents are shared, not stored again
// (mofka.Partition.ShareFrom): one copy of each event per replica, whatever
// reads it. A remote member's events exist in this process only as they
// arrive over the wire, so a partition it leads is pulled a catch-up batch at
// a time and admitted into vp like any other outside bytes. Caller holds
// ps.mu, after settleLocked.
func (c *Cluster) viewLocked(ps *partState, vp *mofka.Partition) error {
	if ps.acked > 0 && ps.leader >= 0 {
		if local := c.NodeBroker(ps.leader); local != nil {
			t, err := local.OpenTopic(ps.topic)
			if err != nil {
				return err
			}
			lp, err := t.Partition(ps.index)
			if err != nil {
				return err
			}
			return vp.ShareFrom(lp, ps.acked)
		}
	}
	var from uint64
	for {
		evs, err := c.readLocked(ps, from, catchUpBatch)
		if err != nil || len(evs) == 0 {
			return err
		}
		if err := vp.Append(metadataOf(evs), nil); err != nil {
			return err
		}
		from += uint64(len(evs))
	}
}

// metadataOf returns the events' metadata: the batch that stores them again.
func metadataOf(evs []mofka.Event) [][]byte {
	metas := make([][]byte, len(evs))
	for i, ev := range evs {
		metas[i] = ev.Metadata
	}
	return metas
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
