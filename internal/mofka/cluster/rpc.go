package cluster

import (
	"encoding/json"
	"fmt"
	"time"

	"taskprov/internal/mochi/mercury"
	"taskprov/internal/mofka"
)

// The gateway exposes a cluster on a Mercury endpoint as the same
// mofka.Service a standalone broker is served as, so an unmodified
// mofka.Remote client talks to a clustered mofkad transparently.
// Cluster-aware clients get additional RPCs: "cluster.join" registers
// another broker process as a replica member, "cluster.info" reports
// membership and placement, and pushes may carry producer/seq/epoch fields
// for idempotent retry.

// Cluster-specific RPC names.
const (
	rpcJoin   = "cluster.join"
	rpcInfo   = "cluster.info"
	rpcHealth = "cluster.health"
)

type joinRequest struct {
	Address string `json:"address"`
}

type joinResponse struct {
	Node int `json:"node"`
}

// InfoResponse describes a cluster to status tooling.
type InfoResponse struct {
	Brokers   int             `json:"brokers"`
	Alive     []int           `json:"alive"`
	Topics    []string        `json:"topics"`
	Placement []PlacementView `json:"placement"`
}

// Service returns the cluster as a mofka.Service: pushes replicate with
// quorum acknowledgement, pulls and lengths serve the acknowledged prefix,
// cursor commits land on every alive replica.
func (c *Cluster) Service() mofka.Service { return clusterService{c} }

type clusterService struct{ c *Cluster }

func (s clusterService) CreateTopic(cfg mofka.TopicConfig) error {
	_, err := s.c.EnsureTopic(cfg)
	return err
}

func (s clusterService) Topics() ([]string, error) { return s.c.Topics(), nil }

func (s clusterService) TopicInfo(name string) (int, uint64, error) {
	t, err := s.c.Topic(name)
	if err != nil {
		return 0, 0, err
	}
	var events uint64
	for p := 0; p < t.PartitionCount(); p++ {
		n, err := s.c.Length(name, p)
		if err != nil {
			return 0, 0, err
		}
		events += n
	}
	return t.PartitionCount(), events, nil
}

func (s clusterService) PushBatch(topic string, part int, metas, datas [][]byte) error {
	_, err := s.PushFenced(topic, part, "", 0, 0, metas, datas)
	return err
}

// PushFenced is the push mofka.Serve hands a request's producer, seq and
// epoch fields to. Epoch-less clients (plain mofka.Remote) always take the
// current route — epoch 0 is never current, so the first try only learns it —
// and have no fence-retry semantics of their own, so an election that lands
// mid-push is absorbed here. Their retries are not idempotent, which matches
// the single-broker contract they were written against.
func (s clusterService) PushFenced(topic string, part int, producer string, seq, epoch uint64, metas, datas [][]byte) (uint64, error) {
	if epoch == 0 {
		return s.c.appendRefreshing(topic, part, producer, seq, epoch, metas, datas)
	}
	return s.c.Append(topic, part, producer, seq, epoch, metas, datas)
}

func (s clusterService) Pull(topic string, part int, from uint64, max int, withData bool) ([]mofka.Event, error) {
	return s.c.Read(topic, part, from, max, withData)
}

func (s clusterService) Commit(consumer, topic string, part int, next uint64) error {
	return s.c.CommitCursor(consumer, topic, part, next)
}

func (s clusterService) Cursor(consumer, topic string, part int) (uint64, error) {
	return s.c.LoadCursor(consumer, topic, part), nil
}

func (s clusterService) PartitionLength(topic string, part int) (uint64, error) {
	return s.c.Length(topic, part)
}

func (s clusterService) Ping() error {
	if s.c.IsClosed() {
		return ErrClosed
	}
	return nil
}

// RegisterRPCs exposes the cluster on a Mercury endpoint: the log service,
// and the RPCs only a cluster has.
func (c *Cluster) RegisterRPCs(ep *mercury.Endpoint) {
	mofka.Serve(ep, c.Service())
	ep.Register(rpcJoin, func(req []byte) ([]byte, error) {
		var jr joinRequest
		if err := json.Unmarshal(req, &jr); err != nil {
			return nil, err
		}
		id, err := c.AddRemote(jr.Address)
		if err != nil {
			return nil, err
		}
		return json.Marshal(joinResponse{Node: id})
	})
	ep.Register(rpcInfo, func([]byte) ([]byte, error) {
		return json.Marshal(InfoResponse{
			Brokers:   c.Brokers(),
			Alive:     c.AliveBrokers(),
			Topics:    c.Topics(),
			Placement: c.Placement(),
		})
	})
	ep.Register(rpcHealth, func([]byte) ([]byte, error) {
		return json.Marshal(c.Events())
	})
}

// AddRemote registers a broker process reachable at addr as a new cluster
// member. The member participates in placement for topics created after it
// joins (existing replica sets are fixed at topic creation). Its liveness
// is probed by ping on every sweep; a member that stops answering times out
// through SSG and fails over like a local crash.
func (c *Cluster) AddRemote(addr string) (int, error) {
	if addr == "" {
		return 0, fmt.Errorf("cluster: join needs an address")
	}
	cl, err := mercury.Dial(addr)
	if err != nil {
		return 0, fmt.Errorf("cluster: dial %s: %w", addr, err)
	}
	return c.addMember(addr, replica{mofka.NewRemote(cl), cl})
}

// addMember is AddRemote once the member's log service is in hand, however
// it is reached.
func (c *Cluster) addMember(addr string, rep replica) (int, error) {
	if err := rep.Ping(); err != nil {
		_ = rep.Close() // probe failed; connection is dead anyway
		return 0, fmt.Errorf("cluster: probe %s: %w", addr, err)
	}

	// Join the membership group before publishing the node: the sweeper
	// goroutine reads n.member under c.mu, so the node must be fully formed
	// when it becomes visible in c.nodes.
	member := c.group.Join(addr, c.cfg.Clock())
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.group.Leave(member)
		_ = rep.Close()
		return 0, ErrClosed
	}
	id := len(c.nodes)
	n := &node{id: id, addr: addr, rep: rep, alive: true, member: member}
	c.nodes = append(c.nodes, n)
	// Replicate existing topic definitions so the member can serve future
	// catch-up reads and cursor commits for topics it will host.
	cfgs := make([]mofka.TopicConfig, 0, len(c.topics))
	for _, ts := range c.topics {
		cfgs = append(cfgs, ts.cfg)
	}
	c.mu.Unlock()
	for _, cfg := range cfgs {
		if err := rep.CreateTopic(cfg); err != nil {
			return id, fmt.Errorf("cluster: replicate topic %s to %s: %w", cfg.Name, addr, err)
		}
	}
	c.health.emit([]Event{{
		Kind: EventBrokerRejoined, Node: id, Topic: "", Partition: -1,
		At: c.cfg.NowSeconds(), Detail: fmt.Sprintf("remote member %s joined", addr),
	}})
	return id, nil
}

// JoinRemote is the client side of "cluster.join": a broker process that
// wants to become a member of the cluster behind gatewayAddr announces its
// own RPC address and returns its assigned node id.
func JoinRemote(gatewayAddr, selfAddr string, timeout time.Duration) (int, error) {
	cl, err := mercury.Dial(gatewayAddr)
	if err != nil {
		return 0, err
	}
	defer func() { _ = cl.Close() }()
	if timeout > 0 {
		cl.SetTimeout(timeout)
	}
	req, err := json.Marshal(joinRequest{Address: selfAddr})
	if err != nil {
		return 0, err
	}
	resp, err := cl.Call(rpcJoin, req)
	if err != nil {
		return 0, err
	}
	var jr joinResponse
	if err := json.Unmarshal(resp, &jr); err != nil {
		return 0, err
	}
	return jr.Node, nil
}
