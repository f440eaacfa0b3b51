package cluster

import (
	"fmt"
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
	acked    uint64 // acknowledged high-water mark: consumers see [0, acked)

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
		ts.parts = append(ts.parts, &partState{
			topic:    cfg.Name,
			index:    i,
			replicas: set,
			leader:   leader,
			epoch:    1,
			applied:  make(map[int]map[string]uint64),
		})
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
// acknowledgement. producer/seq implement idempotent retry: a batch the
// cluster has already applied to a replica is acknowledged there without
// re-appending, so producers may retry freely across failures and leader
// changes. epoch is the producer's cached fencing epoch; a stale value
// fails with ErrFenced and the current epoch is returned for the retry.
// producer=="" skips sequence tracking (non-idempotent raw appends).
//
// The returned epoch is always the partition's current epoch.
func (c *Cluster) Append(topic string, part int, producer string, seq uint64, epoch uint64, metas, datas [][]byte) (uint64, error) {
	ps, err := c.partition(topic, part)
	if err != nil {
		return 0, err
	}
	ps.mu.Lock()
	curEpoch, evs, err := c.appendLocked(ps, producer, seq, epoch, metas, datas)
	ps.mu.Unlock()
	c.health.emit(evs)
	return curEpoch, err
}

func (c *Cluster) appendLocked(ps *partState, producer string, seq uint64, epoch uint64, metas, datas [][]byte) (uint64, []Event, error) {
	var evs []Event
	if c.IsClosed() {
		return ps.epoch, nil, ErrClosed
	}
	if epoch != ps.epoch {
		return ps.epoch, nil, fmt.Errorf("%w: have epoch %d, current %d", ErrFenced, epoch, ps.epoch)
	}
	// A leader that died without a detected failure (remote member crash
	// between sweeps) surfaces here: elect before appending. If no alive
	// leader exists even after the election, the partition is unavailable —
	// reported as such (not as a fence) so producers back off instead of
	// hot-looping on route refreshes.
	if ps.leader < 0 || !c.nodeAlive(ps.leader) {
		evs = append(evs, c.electLocked(ps)...)
		if ps.leader < 0 || !c.nodeAlive(ps.leader) {
			return ps.epoch, evs, ErrUnavailable
		}
		return ps.epoch, evs, fmt.Errorf("%w: leader changed", ErrFenced)
	}
	alive := ps.aliveReplicas(c)
	if len(alive) < c.cfg.Quorum {
		evs = append(evs, Event{
			Kind: EventUnderReplicated, Node: ps.leader, Topic: ps.topic, Partition: ps.index,
			Epoch: ps.epoch, At: c.cfg.NowSeconds(),
			Detail: fmt.Sprintf("%d alive of %d replicas, quorum %d", len(alive), len(ps.replicas), c.cfg.Quorum),
		})
		return ps.epoch, evs, ErrUnavailable
	}

	leaderRep, _ := c.replicaOf(ps.leader)
	batch := uint64(len(metas))

	// The batch is submitted to the leader and then to the lock-step
	// followers, in rank order, and only then waited for on all of them: each
	// replica's broker fsyncs on its own goroutine, so the replicas' fsyncs
	// overlap and the append costs one fsync latency, not one per replica.
	// Every decision — dedup, fault, fence, lock-step or lagging — is made at
	// submit, in the order it always was; waiting decides nothing.
	//
	// Lengths are the settled ones, read before anything is submitted: every
	// appendLocked waits for what it submitted before it returns, so nothing
	// is in flight on this partition now, whereas a length probed after a
	// submit may or may not count that batch yet.
	leaderLen, err := leaderRep.PartitionLength(ps.topic, ps.index)
	if err != nil {
		return ps.epoch, evs, err
	}

	// Leader first. Dedup: a retried batch the leader already holds is
	// acknowledged without re-appending.
	leaderHas := producer != "" && ps.appliedSeq(ps.leader, producer) >= seq
	var leaderCommit *mofka.Commit
	if !leaderHas {
		if leaderCommit, err = submitBatch(leaderRep, ps.topic, ps.index, metas, datas); err != nil {
			return ps.epoch, evs, fmt.Errorf("cluster: leader %d append %s[%d]: %w", ps.leader, ps.topic, ps.index, err)
		}
		leaderLen += batch
	}

	// Followers, rank order. A follower in lockstep takes the batch
	// directly; a lagging one (it missed an earlier quorum-failed batch, or
	// it just rejoined) is first healed to the leader's full prefix —
	// preserving prefix consistency — which delivers this batch too, once the
	// leader's commit has made it readable there.
	type submitted struct {
		node   int
		commit *mofka.Commit
	}
	var inFlight []submitted
	acks := 0
	for _, r := range alive {
		if r == ps.leader {
			continue
		}
		rep, ok := c.replicaOf(r)
		if !ok {
			continue
		}
		if producer != "" && ps.appliedSeq(r, producer) >= seq {
			acks++
			continue
		}
		flen, err := rep.PartitionLength(ps.topic, ps.index)
		if err != nil {
			continue // replica unreachable: no ack
		}
		if !leaderHas && flen == leaderLen-batch {
			if fc, err := submitBatch(rep, ps.topic, ps.index, metas, datas); err == nil {
				inFlight = append(inFlight, submitted{r, fc})
			}
			continue
		}
		if leaderCommit.Wait() != nil {
			break // reported below
		}
		copied, err := c.syncReplicaLocked(ps, r, ps.leader, leaderLen)
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
		acks++
	}

	// Nothing submitted is left in flight past this point, whatever the
	// outcome.
	err = leaderCommit.Wait()
	for _, s := range inFlight {
		if s.commit.Wait() != nil {
			continue
		}
		if producer != "" {
			ps.setApplied(s.node, producer, seq)
		}
		acks++
	}
	if err != nil {
		return ps.epoch, evs, fmt.Errorf("cluster: leader %d append %s[%d]: %w", ps.leader, ps.topic, ps.index, err)
	}
	if !leaderHas && producer != "" {
		ps.setApplied(ps.leader, producer, seq)
	}
	acks++

	if acks < c.cfg.Quorum {
		evs = append(evs, Event{
			Kind: EventUnderReplicated, Node: ps.leader, Topic: ps.topic, Partition: ps.index,
			Epoch: ps.epoch, At: c.cfg.NowSeconds(),
			Detail: fmt.Sprintf("append reached %d of %d quorum acks", acks, c.cfg.Quorum),
		})
		return ps.epoch, evs, ErrUnavailable
	}
	// Quorum holds the leader's entire prefix (every acking follower was
	// either in lockstep or fully healed), so the whole leader log is now
	// acknowledged.
	if leaderLen > ps.acked {
		ps.acked = leaderLen
	}
	return ps.epoch, evs, nil
}

// submitBatch lands a batch on one replica's log: submitted, to be waited
// for, where the replica's service has the two halves (a local broker); a
// synchronous push otherwise (a remote member), with nothing left to wait for.
func submitBatch(rep replica, topic string, part int, metas, datas [][]byte) (*mofka.Commit, error) {
	if sub, ok := rep.Service.(mofka.BatchSubmitter); ok {
		return sub.SubmitBatch(topic, part, metas, datas)
	}
	return nil, rep.PushBatch(topic, part, metas, datas)
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
// CatchUpBatch chunks until dst holds the donor's prefix [0, want), and
// adopts the donor's dedup table. dst's current length is probed fresh here
// rather than trusted from the caller — a stale or defaulted value would
// re-append events dst already holds, duplicating them. Caller holds ps.mu.
// Returns the number of events copied.
func (c *Cluster) syncReplicaLocked(ps *partState, dst, donor int, want uint64) (uint64, error) {
	dstRep, ok := c.replicaOf(dst)
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrNoNode, dst)
	}
	donorRep, ok := c.replicaOf(donor)
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrNoNode, donor)
	}
	have, err := dstRep.PartitionLength(ps.topic, ps.index)
	if err != nil {
		return 0, err
	}
	var copied uint64
	for have < want {
		n := int(want - have)
		if n > c.cfg.CatchUpBatch {
			n = c.cfg.CatchUpBatch
		}
		evs, err := donorRep.Pull(ps.topic, ps.index, have, n, true)
		if err != nil {
			return copied, err
		}
		if len(evs) == 0 {
			break
		}
		metas := make([][]byte, len(evs))
		datas := make([][]byte, len(evs))
		for i, ev := range evs {
			metas[i] = ev.Metadata
			datas[i] = ev.Data
		}
		if err := dstRep.PushBatch(ps.topic, ps.index, metas, datas); err != nil {
			return copied, err
		}
		have += uint64(len(evs))
		copied += uint64(len(evs))
	}
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
func (c *Cluster) Read(topic string, part int, from uint64, max int, withData bool) ([]mofka.Event, error) {
	ps, err := c.partition(topic, part)
	if err != nil {
		return nil, err
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return c.readLocked(ps, from, max, withData)
}

func (c *Cluster) readLocked(ps *partState, from uint64, max int, withData bool) ([]mofka.Event, error) {
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
	return rep.Pull(ps.topic, ps.index, from, max, withData)
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
// monitor's final replay, provenance.Drain) works on the view unchanged —
// the cluster looks exactly like the single broker those tools were built
// for.
func (c *Cluster) ReadView() (*mofka.Broker, error) {
	view := mofka.NewStandaloneBroker()
	c.mu.Lock()
	states := make([]*topicState, 0, len(c.topics))
	for _, ts := range c.topics {
		states = append(states, ts)
	}
	c.mu.Unlock()

	for _, ts := range states {
		cfg := ts.cfg
		vt, err := view.CreateTopic(cfg)
		if err != nil {
			return nil, err
		}
		for _, ps := range ts.parts {
			vp, err := vt.Partition(ps.index)
			if err != nil {
				return nil, err
			}
			ps.mu.Lock()
			var from uint64
			for {
				evs, err := c.readLocked(ps, from, c.cfg.CatchUpBatch, true)
				if err != nil {
					ps.mu.Unlock()
					return nil, err
				}
				if len(evs) == 0 {
					break
				}
				metas := make([][]byte, len(evs))
				datas := make([][]byte, len(evs))
				for i, ev := range evs {
					metas[i] = ev.Metadata
					datas[i] = ev.Data
				}
				if err := vp.Append(metas, datas); err != nil {
					ps.mu.Unlock()
					return nil, err
				}
				from += uint64(len(evs))
			}
			ps.mu.Unlock()
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
	type ckey struct {
		consumer, topic string
		part            int
	}
	cursors := make(map[ckey]uint64)
	for _, b := range locals {
		for _, cur := range b.Cursors() {
			k := ckey{cur.Consumer, cur.Topic, cur.Partition}
			if cur.Next > cursors[k] {
				cursors[k] = cur.Next
			}
		}
	}
	for k, next := range cursors {
		if err := view.CommitCursor(k.consumer, k.topic, k.part, next); err != nil {
			return nil, err
		}
	}
	return view, nil
}
