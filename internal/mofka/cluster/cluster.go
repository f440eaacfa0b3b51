// Package cluster turns the single-broker Mofka reimplementation into a
// sharded, replicated deployment: topic partitions are placed across N
// broker nodes by rendezvous hashing, every partition has a leader plus a
// configurable number of follower replicas, appends are acknowledged only
// after a quorum of replicas has them (each replica persisting through its
// own broker — and therefore its own WAL when the node is durable), and SSG
// membership drives automatic leader failover with incarnation-fenced
// catch-up from the surviving replicas' logs.
//
// The design center is the same as the rest of the repo: determinism first.
// Placement is a pure function of (topic, partition, node id); failover is
// triggered either synchronously (chaos-injected kills, the simulation path)
// or by SSG heartbeat timeouts (the daemon path), and both funnel through
// the same election/catch-up routine; health events are emitted in a fixed
// order outside all locks. The same seed and chaos plan therefore reproduce
// the identical failover timeline.
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
	"io"
	"sync"
	"time"

	"taskprov/internal/mochi/ssg"
	"taskprov/internal/mofka"
	"taskprov/internal/mofka/wal"
)

// Errors reported by the cluster API.
var (
	// ErrUnavailable: the partition has no alive replica set large enough
	// to reach quorum; appends fail and producers buffer.
	ErrUnavailable = errors.New("cluster: partition unavailable (quorum unreachable)")
	// ErrFenced: the append carried a stale leadership epoch. The producer
	// must refresh its route and retry with the same sequence number.
	ErrFenced = errors.New("cluster: fenced by newer leadership epoch")
	// ErrClosed: the cluster has been shut down.
	ErrClosed = errors.New("cluster: closed")
	// ErrNoNode: the addressed broker node does not exist.
	ErrNoNode = errors.New("cluster: no such broker node")
)

// Config describes a cluster deployment.
type Config struct {
	// Brokers is the number of local broker nodes (default 3). Remote
	// members joined through the RPC gateway add to this.
	Brokers int
	// ReplicationFactor is the number of replicas per partition, leader
	// included (default 2, capped at the node count).
	ReplicationFactor int
	// Quorum is the number of replica acknowledgements an append needs
	// before it is acknowledged to the producer. Default is a majority of
	// the replication factor (RF/2+1).
	Quorum int

	// DataDir, when set, makes every local node durable: node i keeps a
	// standard broker data directory under <DataDir>/node-<NN>, and
	// cluster.json at the root records the deployment shape. Reopening a
	// cluster on an existing DataDir recovers every node's log and heals
	// replica divergence (a kill -9 mid-append leaves laggards).
	DataDir string
	// WAL tunes the per-node durable logs.
	WAL wal.Options

	// SSG tunes the membership group's failure detection (heartbeat
	// timeouts for the daemon path).
	SSG ssg.Config
	// Clock is the liveness clock for SSG bookkeeping. Default time.Now.
	Clock func() time.Time
	// NowSeconds timestamps health events (virtual seconds inside a
	// simulation, seconds since cluster start otherwise).
	NowSeconds func() float64

	// CatchUpBatch is the event batch size used when healing a lagging
	// replica from a donor. Default 256.
	CatchUpBatch int
}

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
	if c.Clock == nil {
		c.Clock = time.Now
	}
	if c.CatchUpBatch <= 0 {
		c.CatchUpBatch = 256
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

// replica is one member's copy of the event store: the log service every
// deployment speaks, plus what shuts the member down. A local node's is its
// broker's view, a joined member's a mofka.Remote over its connection; the
// replication layer drives both through the same nine operations and cannot
// tell which it holds.
type replica struct {
	mofka.Service
	io.Closer
}

// node is one broker member of the cluster.
type node struct {
	id          int
	addr        string // "" for local nodes
	rep         replica
	local       *mofka.Broker // nil for remote members
	member      ssg.MemberID
	alive       bool
	incarnation uint64
}

// Cluster is a sharded, replicated Mofka deployment. All methods are safe
// for concurrent use.
type Cluster struct {
	cfg   Config
	group *ssg.Group
	start time.Time

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
// cluster with Config.Brokers local nodes. Reopening recovers every node's
// durable log and heals replica divergence before the cluster is returned.
func New(cfg Config) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	c := &Cluster{
		cfg:    cfg,
		group:  ssg.NewGroup("mofka-cluster", cfg.SSG),
		start:  cfg.Clock(),
		topics: make(map[string]*topicState),
		health: newHealthLog(),
	}
	if c.cfg.NowSeconds == nil {
		c.cfg.NowSeconds = func() float64 { return c.cfg.Clock().Sub(c.start).Seconds() }
	}
	reopen := false
	if cfg.DataDir != "" {
		shape, existing, err := loadClusterMeta(cfg.DataDir)
		if err != nil {
			return nil, err
		}
		if existing {
			if shape.Brokers != cfg.Brokers || shape.ReplicationFactor != cfg.ReplicationFactor {
				return nil, fmt.Errorf("cluster: %s was deployed with %d brokers rf=%d, reopened with %d rf=%d",
					cfg.DataDir, shape.Brokers, shape.ReplicationFactor, cfg.Brokers, cfg.ReplicationFactor)
			}
			reopen = true
		} else if err := writeClusterMeta(cfg.DataDir, clusterMeta{
			Brokers: cfg.Brokers, ReplicationFactor: cfg.ReplicationFactor, Quorum: cfg.Quorum,
		}); err != nil {
			return nil, err
		}
	}
	for i := 0; i < cfg.Brokers; i++ {
		if _, err := c.addLocalNode(i); err != nil {
			_ = c.Close()
			return nil, err
		}
	}
	if reopen {
		if err := c.recoverTopics(); err != nil {
			_ = c.Close()
			return nil, err
		}
	}
	return c, nil
}

// addLocalNode builds local node i (durable when DataDir is set) and joins
// it to the membership group.
func (c *Cluster) addLocalNode(i int) (*node, error) {
	var b *mofka.Broker
	var err error
	if c.cfg.DataDir == "" {
		b = mofka.NewStandaloneBroker()
	} else {
		b, err = mofka.NewDurableBroker(mofka.Options{DataDir: nodeDir(c.cfg.DataDir, i), WAL: c.cfg.WAL})
		if err != nil {
			return nil, fmt.Errorf("cluster: node %d: %w", i, err)
		}
	}
	n := &node{
		id:    i,
		rep:   replica{b.Service(), b},
		local: b,
		alive: true,
	}
	n.member = c.group.Join(fmt.Sprintf("broker-%d", i), c.cfg.Clock())
	c.mu.Lock()
	c.nodes = append(c.nodes, n)
	c.mu.Unlock()
	return n, nil
}

// Brokers returns the current member count (local + joined remotes).
func (c *Cluster) Brokers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.nodes)
}

// AliveBrokers returns the ids of currently alive members in id order.
func (c *Cluster) AliveBrokers() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []int
	for _, n := range c.nodes {
		if n.alive {
			out = append(out, n.id)
		}
	}
	return out
}

// NodeBroker returns local node i's broker (nil for remote members): what
// ReadView shares a local leader's events from, and what tests inspect and
// fault one replica through.
func (c *Cluster) NodeBroker(i int) *mofka.Broker {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i < 0 || i >= len(c.nodes) {
		return nil
	}
	return c.nodes[i].local
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

// Heartbeat records liveness for every alive local node; the daemon's
// sweeper calls it each interval (remote members heartbeat through the ping
// RPC).
func (c *Cluster) Heartbeat() {
	now := c.cfg.Clock()
	c.mu.Lock()
	members := make([]ssg.MemberID, 0, len(c.nodes))
	for _, n := range c.nodes {
		if n.alive && n.local != nil {
			members = append(members, n.member)
		}
	}
	c.mu.Unlock()
	for _, m := range members {
		c.group.Heartbeat(m, now)
	}
}

// Sweep advances SSG failure detection to now. Members the group declares
// dead fail over exactly as chaos-killed ones do. Returns the number of
// membership state changes.
func (c *Cluster) Sweep(now time.Time) int {
	changes := c.group.Sweep(now)
	if changes == 0 {
		return 0
	}
	// The group marks members Suspect/Dead; reconcile cluster liveness with
	// it and fail over partitions led by newly dead members.
	for _, m := range c.group.Members() {
		if m.State != ssg.Dead {
			continue
		}
		if id, ok := c.nodeByMember(m.ID); ok && c.nodeAlive(id) {
			c.failNode(id, "heartbeat timeout")
		}
	}
	return changes
}

func (c *Cluster) nodeByMember(m ssg.MemberID) (int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, n := range c.nodes {
		if n.member == m {
			return n.id, true
		}
	}
	return 0, false
}

// KillBroker crashes node id: the member is marked dead in the SSG group
// (EventFail), every partition it led fails over to the highest-ranked
// surviving replica, and survivors are healed to a common prefix. A durable
// node's broker is abandoned un-closed — exactly what a kill -9 leaves
// behind — so a later RestartBroker exercises torn-tail recovery.
func (c *Cluster) KillBroker(id int) error {
	n, err := c.node(id)
	if err != nil {
		return err
	}
	c.mu.Lock()
	if !n.alive {
		c.mu.Unlock()
		return fmt.Errorf("cluster: broker %d already dead", id)
	}
	c.mu.Unlock()
	c.group.Fail(n.member, c.cfg.Clock())
	c.failNode(id, "killed")
	return nil
}

// failNode marks a node dead and fails over every partition that referenced
// it. Idempotent; safe from both the chaos path and the SSG sweep path.
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

// RestartBroker reboots a previously killed local node: a durable node
// reopens its data directory (recovering the WAL, truncating torn tails),
// an in-memory node comes back empty. The node rejoins the membership group
// with a bumped incarnation, is caught up from the current leaders, and —
// because leadership is rank-based and deterministic — resumes leading the
// partitions it ranks highest for.
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
	if n.local == nil {
		c.mu.Unlock()
		return fmt.Errorf("cluster: broker %d is a remote member; restart it from its own process", id)
	}
	old := n.local
	inc := n.incarnation + 1
	c.mu.Unlock()

	// Abandon the crashed broker instance and rebuild from disk (or empty).
	var b *mofka.Broker
	if c.cfg.DataDir == "" {
		b = mofka.NewStandaloneBroker()
	} else {
		// Close the old handle first so segment files are not double-owned.
		_ = old.Close() // crash path; recovery re-reads disk
		b, err = mofka.NewDurableBroker(mofka.Options{DataDir: nodeDir(c.cfg.DataDir, id), WAL: c.cfg.WAL})
		if err != nil {
			return fmt.Errorf("cluster: restart node %d: %w", id, err)
		}
	}

	// Join the membership group first, then publish the node mutation in one
	// critical section: the sweeper goroutine reads n.member and n.alive
	// under c.mu and must never observe a half-updated node.
	rep := replica{b.Service(), b}
	member := c.group.Join(fmt.Sprintf("broker-%d#%d", id, inc), c.cfg.Clock())
	c.mu.Lock()
	n.local = b
	n.rep = rep
	n.member = member
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
		// The rejoined replica must know the topic before catch-up appends.
		if err := rep.CreateTopic(c.topicConfig(ps.topic)); err != nil {
			ps.mu.Unlock()
			return fmt.Errorf("cluster: restart node %d: %w", id, err)
		}
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
		if ln, lerr := rep.PartitionLength(ps.topic, ps.index); lerr == nil && ln > cut {
			if terr := truncateLocal(b, ps.topic, ps.index, cut); terr != nil {
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

// truncateLocal drops b's events of (topic, part) with offset >= n. Only the
// restart path needs it — RestartBroker rejects remote members — so it is
// not an operation of the log service.
func truncateLocal(b *mofka.Broker, topic string, part int, n uint64) error {
	t, err := b.OpenTopic(topic)
	if err != nil {
		return err
	}
	p, err := t.Partition(part)
	if err != nil {
		return err
	}
	return p.TruncateTo(n)
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

func (c *Cluster) topicConfig(name string) mofka.TopicConfig {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ts, ok := c.topics[name]; ok {
		return ts.cfg
	}
	return mofka.TopicConfig{Name: name, Partitions: 1}
}

// SetAppendFault installs an append fault hook on every local node's
// broker — the cluster counterpart of mofka.Broker.SetAppendFault, used by
// the chaos controller's "wal" directive. A fault on the leader fails the
// quorum append (the batch stays queued at the producer); a fault on a
// follower just costs that replica's acknowledgement.
func (c *Cluster) SetAppendFault(f func(topic string, partition int) error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, n := range c.nodes {
		if n.local != nil {
			n.local.SetAppendFault(f)
		}
	}
}

// Sync forces every alive durable node's logs to stable storage.
func (c *Cluster) Sync() error {
	c.mu.Lock()
	brokers := make([]*mofka.Broker, 0, len(c.nodes))
	for _, n := range c.nodes {
		if n.alive && n.local != nil {
			brokers = append(brokers, n.local)
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
		if err := n.rep.Close(); err != nil && firstErr == nil {
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

// RunSweeper drives Heartbeat+Sweep with wall-clock time every interval
// until stop is closed — the daemon-mode failure detector. Remote members
// are pinged each interval; a member whose ping fails stops receiving
// heartbeats and times out through SSG.
func (c *Cluster) RunSweeper(interval time.Duration, stop <-chan struct{}) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case now := <-t.C:
			c.Heartbeat()
			c.pingRemotes(now)
			c.Sweep(now)
		case <-stop:
			return
		}
	}
}

func (c *Cluster) pingRemotes(now time.Time) {
	c.mu.Lock()
	type probe struct {
		member ssg.MemberID
		rep    replica
	}
	var probes []probe
	for _, n := range c.nodes {
		if n.alive && n.local == nil {
			probes = append(probes, probe{n.member, n.rep})
		}
	}
	c.mu.Unlock()
	for _, p := range probes {
		if p.rep.Ping() == nil {
			c.group.Heartbeat(p.member, now)
		}
	}
}
