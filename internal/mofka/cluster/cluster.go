// Package cluster turns the single-broker Mofka reimplementation into a
// sharded, replicated deployment inside one process: topic partitions are
// placed across N broker nodes by rendezvous hashing, every partition has a
// leader plus a configurable number of follower replicas, appends are
// acknowledged only after a quorum of replicas has them (each replica
// persisting through its own broker — and therefore its own WAL when the node
// is durable), and a killed broker fails over to the surviving replicas with
// incarnation-fenced catch-up from their logs.
//
// The design center is the same as the rest of the repo: determinism first.
// Placement is a pure function of (topic, partition, node id); failover is
// triggered synchronously, by a chaos-injected kill, and runs one
// election/catch-up routine; health events are emitted in a fixed order
// outside all locks. The same seed and chaos plan therefore reproduce the
// identical failover timeline. Every member is a broker of this process: the
// cluster has no remote members and no failure detector of its own.
//
// Consistency contract: an acknowledged append is present on at least
// Quorum replicas, appends within one partition are prefix-consistent
// across replicas (followers are healed to the leader's prefix before any
// new batch lands on them), and consumers only ever observe the
// acknowledged prefix. Unacknowledged suffixes can be lost with a crashed
// leader; producers retry them through the new leader with the same
// sequence number, and per-replica sequence tracking makes the retry
// exactly-once per replica.
package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"taskprov/internal/mofka"
	"taskprov/internal/mofka/wal"
)

// Errors reported by the cluster API.
var (
	// ErrUnavailable: the partition has no alive replica set large enough
	// to reach quorum; appends fail and producers buffer.
	ErrUnavailable = errors.New("cluster: partition unavailable (quorum unreachable)")
	// ErrClosed: the cluster has been shut down.
	ErrClosed = errors.New("cluster: closed")
	// ErrNoNode: the addressed broker node does not exist.
	ErrNoNode = errors.New("cluster: no such broker node")
)

// Config describes a cluster deployment.
type Config struct {
	// Brokers is the number of broker nodes (default 3).
	Brokers int
	// ReplicationFactor is the number of replicas per partition, leader
	// included (default 2, capped at the node count).
	ReplicationFactor int
	// Quorum is the number of replica acknowledgements an append needs
	// before it is acknowledged to the producer. Default is a majority of
	// the replication factor (RF/2+1).
	Quorum int

	// DataDir, when set, makes every node durable: node i keeps a
	// standard broker data directory under <DataDir>/node-<NN>, and
	// cluster.json at the root records the deployment shape. Reopening a
	// cluster on an existing DataDir recovers every node's log and heals
	// replica divergence (a kill -9 mid-append leaves laggards); a reopen
	// whose effective shape (brokers, replication factor, quorum) differs
	// is refused.
	DataDir string
	// WAL tunes the per-node durable logs.
	WAL wal.Options

	// NowSeconds timestamps health events (virtual seconds inside a
	// simulation, seconds since cluster start otherwise).
	NowSeconds func() float64
}

// catchUpBatch is the event batch size used when healing a lagging replica
// from a donor.
const catchUpBatch = 256

func (c Config) withDefaults() Config {
	if c.Brokers <= 0 {
		c.Brokers = 3
	}
	if c.ReplicationFactor <= 0 {
		c.ReplicationFactor = 2
	}
	if c.ReplicationFactor > c.Brokers {
		c.ReplicationFactor = c.Brokers
	}
	if c.Quorum <= 0 {
		c.Quorum = c.ReplicationFactor/2 + 1
	}
	if c.Quorum > c.ReplicationFactor {
		c.Quorum = c.ReplicationFactor
	}
	return c
}

// Validate rejects impossible deployment shapes with a clear error before
// any node is built.
func (c Config) Validate() error {
	if c.Brokers < 0 || c.Brokers > 64 {
		return fmt.Errorf("cluster: broker count %d out of range [1,64]", c.Brokers)
	}
	if c.ReplicationFactor < 0 {
		return fmt.Errorf("cluster: negative replication factor %d", c.ReplicationFactor)
	}
	if c.Brokers > 0 && c.ReplicationFactor > c.Brokers {
		return fmt.Errorf("cluster: replication factor %d exceeds broker count %d", c.ReplicationFactor, c.Brokers)
	}
	if c.Quorum < 0 {
		return fmt.Errorf("cluster: negative quorum %d", c.Quorum)
	}
	rf := c.ReplicationFactor
	if rf == 0 {
		rf = 2
	}
	if c.Brokers > 0 && rf > c.Brokers {
		rf = c.Brokers
	}
	if c.Quorum > rf {
		return fmt.Errorf("cluster: quorum %d exceeds replication factor %d", c.Quorum, rf)
	}
	return nil
}

// node is one broker member of the cluster.
type node struct {
	id          int
	broker      *mofka.Broker
	alive       bool
	incarnation uint64
}

// Cluster is a sharded, replicated Mofka deployment. All methods are safe
// for concurrent use.
type Cluster struct {
	cfg Config

	mu     sync.Mutex
	nodes  []*node
	topics map[string]*topicState
	closed bool

	health *healthLog

	// settlers counts the goroutines that settle quorum appends once their
	// replicas' fsyncs have returned; Close waits for them.
	settlers sync.WaitGroup
}

// New builds (or, when Config.DataDir already holds a cluster, reopens) a
// cluster with Config.Brokers nodes. Reopening recovers every node's
// durable log and heals replica divergence before the cluster is returned.
func New(cfg Config) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	c := &Cluster{
		cfg:    cfg,
		topics: make(map[string]*topicState),
		health: newHealthLog(),
	}
	if c.cfg.NowSeconds == nil {
		start := time.Now()
		c.cfg.NowSeconds = func() float64 { return time.Since(start).Seconds() }
	}
	reopen := false
	if cfg.DataDir != "" {
		shape, existing, err := loadClusterMeta(cfg.DataDir)
		if err != nil {
			return nil, err
		}
		if existing {
			if shape.Brokers != cfg.Brokers || shape.ReplicationFactor != cfg.ReplicationFactor || shape.Quorum != cfg.Quorum {
				return nil, fmt.Errorf("cluster: %s was deployed with %d brokers rf=%d quorum=%d, reopened with %d rf=%d quorum=%d",
					cfg.DataDir, shape.Brokers, shape.ReplicationFactor, shape.Quorum, cfg.Brokers, cfg.ReplicationFactor, cfg.Quorum)
			}
			reopen = true
		} else if err := writeClusterMeta(cfg.DataDir, clusterMeta{
			Brokers: cfg.Brokers, ReplicationFactor: cfg.ReplicationFactor, Quorum: cfg.Quorum,
		}); err != nil {
			return nil, err
		}
	}
	for i := 0; i < cfg.Brokers; i++ {
		b, err := c.openBroker(i)
		if err != nil {
			_ = c.Close()
			return nil, fmt.Errorf("cluster: node %d: %w", i, err)
		}
		c.nodes = append(c.nodes, &node{id: i, broker: b, alive: true})
	}
	if reopen {
		if err := c.recoverTopics(); err != nil {
			_ = c.Close()
			return nil, err
		}
	}
	return c, nil
}

// openBroker opens node i's broker: empty in memory, or recovered from its
// directory under DataDir.
func (c *Cluster) openBroker(i int) (*mofka.Broker, error) {
	if c.cfg.DataDir == "" {
		return mofka.NewStandaloneBroker(), nil
	}
	return mofka.NewDurableBroker(mofka.Options{DataDir: nodeDir(c.cfg.DataDir, i), WAL: c.cfg.WAL})
}

// Replicas returns the replica set of a partition, preferred leader first:
// what tests that kill a partition's leader or fault its follower pick the
// node by. Nil for an unknown partition.
func (c *Cluster) Replicas(topic string, part int) []int {
	ps, err := c.partition(topic, part)
	if err != nil {
		return nil
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return append([]int(nil), ps.replicas...)
}

func (c *Cluster) node(id int) (*node, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if id < 0 || id >= len(c.nodes) {
		return nil, fmt.Errorf("%w: %d", ErrNoNode, id)
	}
	return c.nodes[id], nil
}

func (c *Cluster) nodeAlive(id int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if id < 0 || id >= len(c.nodes) {
		return false
	}
	return c.nodes[id].alive
}

// KillBroker crashes node id: the member is marked dead, every partition it
// led fails over to the highest-ranked surviving replica, and survivors are
// healed to a common prefix. A durable node's broker is abandoned un-closed —
// exactly what a kill -9 leaves behind — so a later RestartBroker exercises
// torn-tail recovery.
func (c *Cluster) KillBroker(id int) error {
	n, err := c.node(id)
	if err != nil {
		return err
	}
	c.mu.Lock()
	alive := n.alive
	c.mu.Unlock()
	if !alive {
		return fmt.Errorf("cluster: broker %d already dead", id)
	}
	c.failNode(id, "killed")
	return nil
}

// failNode marks a node dead and fails over every partition that referenced
// it. Idempotent.
func (c *Cluster) failNode(id int, reason string) {
	c.mu.Lock()
	if c.closed || id < 0 || id >= len(c.nodes) || !c.nodes[id].alive {
		c.mu.Unlock()
		return
	}
	c.nodes[id].alive = false
	parts := c.partitionsOfLocked(id)
	c.mu.Unlock()

	evs := []Event{{
		Kind: EventBrokerDead, Node: id, At: c.cfg.NowSeconds(),
		Detail: reason,
	}}
	for _, ps := range parts {
		ps.mu.Lock()
		// Freeze the dead node's trustworthy prefix before reconciliation:
		// everything it holds beyond the acknowledged watermark — taken once
		// what is in flight has settled — is an unreplicated tail that must
		// not survive a later restart.
		c.settleLocked(ps, nil)
		if ps.trustedLen == nil {
			ps.trustedLen = make(map[int]uint64)
		}
		ps.trustedLen[id] = ps.acked
		evs = append(evs, c.electLocked(ps)...)
		ps.mu.Unlock()
	}
	c.health.emit(evs)
}

// RestartBroker reboots a previously killed node: a durable node reopens its
// data directory (recovering the WAL, truncating torn tails), an in-memory
// node comes back empty. The node rejoins with a bumped incarnation, is
// caught up from the current leaders, and — because leadership is rank-based
// and deterministic — resumes leading the partitions it ranks highest for.
func (c *Cluster) RestartBroker(id int) error {
	n, err := c.node(id)
	if err != nil {
		return err
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	if n.alive {
		c.mu.Unlock()
		return fmt.Errorf("cluster: broker %d is alive", id)
	}
	old := n.broker
	inc := n.incarnation + 1
	c.mu.Unlock()

	// Abandon the crashed broker instance and rebuild from disk (or empty).
	// A durable one's old handle is closed first so segment files are not
	// double-owned.
	if c.cfg.DataDir != "" {
		_ = old.Close() // crash path; recovery re-reads disk
	}
	b, err := c.openBroker(id)
	if err != nil {
		return fmt.Errorf("cluster: restart node %d: %w", id, err)
	}

	// The new broker gets every registered topic before it is published, in
	// one critical section with the publication, so no probe or append finds
	// a member without a topic the cluster placed.
	c.mu.Lock()
	for _, ts := range c.topicStatesLocked() {
		if _, err := b.OpenOrCreateTopic(ts.cfg); err != nil {
			c.mu.Unlock()
			_ = b.Close() // the node stays dead; its error is the one reported
			return fmt.Errorf("cluster: restart node %d: %w", id, err)
		}
	}
	n.broker = b
	n.alive = true
	n.incarnation = inc
	parts := c.partitionsOfLocked(id)
	c.mu.Unlock()

	evs := []Event{{
		Kind: EventBrokerRejoined, Node: id, At: c.cfg.NowSeconds(),
		Detail: fmt.Sprintf("incarnation %d", inc),
	}}
	for _, ps := range parts {
		ps.mu.Lock()
		c.settleLocked(ps, nil)
		delete(ps.broken, id) // a new broker, whose log takes appends again
		// A durable restart can resurrect a tail the dead node appended but
		// the cluster never acknowledged (quorum-failed batches, batches the
		// producer later dropped). The cluster may have since reused those
		// offsets for quorum-acknowledged events on the new leader — the
		// current acknowledged watermark can be at or past the resurrected
		// tail's end, so log length alone cannot reveal the divergence. The
		// node's log is trustworthy only up to the watermark frozen when it
		// was declared dead: clamp the rejoined log there and discard the
		// replica's now-untrustworthy dedup state before it enters donor
		// selection; catch-up from the current leader re-delivers the rest.
		cut := ps.acked
		if t, ok := ps.trustedLen[id]; ok && t < cut {
			cut = t
		}
		delete(ps.trustedLen, id)
		if ln := ps.lengthOn(b); ln > cut {
			p, terr := partitionOf(b, ps.topic, ps.index)
			if terr == nil {
				terr = p.TruncateTo(cut)
			}
			if terr != nil {
				ps.mu.Unlock()
				return fmt.Errorf("cluster: restart node %d: truncate %s[%d]: %w", id, ps.topic, ps.index, terr)
			}
			delete(ps.applied, id)
			evs = append(evs, Event{
				Kind: EventLogTruncated, Node: id, Topic: ps.topic, Partition: ps.index,
				Epoch: ps.epoch, At: c.cfg.NowSeconds(),
				Detail: fmt.Sprintf("dropped %d unacknowledged events beyond offset %d", ln-cut, cut),
			})
		}
		evs = append(evs, c.electLocked(ps)...)
		ps.mu.Unlock()
	}
	c.health.emit(evs)
	return nil
}

// partitionsOfLocked returns every partition whose replica set includes
// node id, in (topic, index) order so failover walks partitions in a
// deterministic order. Caller holds c.mu.
func (c *Cluster) partitionsOfLocked(id int) []*partState {
	var out []*partState
	for _, ts := range c.topicStatesLocked() {
		for _, ps := range ts.parts {
			if rankOf(ps.replicas, id) >= 0 {
				out = append(out, ps)
			}
		}
	}
	return out
}

// SetAppendFault installs an append fault hook on every node's broker — the cluster counterpart of mofka.Broker.SetAppendFault, used by
// the chaos controller's "wal" directive. A fault on the leader fails the
// quorum append (the batch stays queued at the producer); a fault on a
// follower just costs that replica's acknowledgement.
func (c *Cluster) SetAppendFault(f func(topic string, partition int) error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, n := range c.nodes {
		n.broker.SetAppendFault(f)
	}
}

// Sync forces every alive durable node's logs to stable storage.
func (c *Cluster) Sync() error {
	c.mu.Lock()
	brokers := make([]*mofka.Broker, 0, len(c.nodes))
	for _, n := range c.nodes {
		if n.alive {
			brokers = append(brokers, n.broker)
		}
	}
	c.mu.Unlock()
	var firstErr error
	for _, b := range brokers {
		if err := b.Sync(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Close shuts every node down (flushing and fsyncing durable logs), waits
// for the quorum appends in flight to settle, and marks the cluster closed.
// Idempotent.
func (c *Cluster) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	nodes := append([]*node(nil), c.nodes...)
	c.mu.Unlock()
	var firstErr error
	for _, n := range nodes {
		if err := n.broker.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	c.settlers.Wait()
	return firstErr
}

// IsClosed reports whether Close has been called.
func (c *Cluster) IsClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}
