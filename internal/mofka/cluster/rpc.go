package cluster

import (
	"encoding/json"
	"fmt"
	"time"

	"taskprov/internal/mochi/mercury"
	"taskprov/internal/mofka"
)

// The gateway exposes a cluster on a Mercury endpoint under the same RPC
// names a standalone broker uses ("mofka.push", "mofka.pull", ...), so an
// unmodified mofka.Remote client talks to a clustered mofkad transparently:
// pushes replicate with quorum acknowledgement, pulls serve the
// acknowledged prefix, cursor commits replicate to every alive replica.
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

// gatewayPushRequest is wire-compatible with the broker's push request; the
// extra fields are absent (zero) when a plain mofka.Remote pushes.
type gatewayPushRequest struct {
	Topic     string            `json:"topic"`
	Partition int               `json:"partition"`
	Metas     []json.RawMessage `json:"metas"`
	Datas     [][]byte          `json:"datas"`
	Producer  string            `json:"producer,omitempty"`
	Seq       uint64            `json:"seq,omitempty"`
	Epoch     uint64            `json:"epoch,omitempty"`
}

type gatewayPushResponse struct {
	Epoch uint64 `json:"epoch"`
}

type gatewayPullRequest struct {
	Topic     string `json:"topic"`
	Partition int    `json:"partition"`
	From      uint64 `json:"from"`
	Max       int    `json:"max"`
	WithData  bool   `json:"with_data"`
}

type gatewayPullResponse struct {
	Events []mofka.Event `json:"events"`
}

type gatewayCursorRequest struct {
	Consumer  string `json:"consumer"`
	Topic     string `json:"topic"`
	Partition int    `json:"partition"`
	Next      uint64 `json:"next"`
}

type gatewayTopicInfo struct {
	Name       string `json:"name"`
	Partitions int    `json:"partitions"`
	Events     uint64 `json:"events"`
}

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

// RegisterRPCs exposes the cluster on a Mercury endpoint.
func (c *Cluster) RegisterRPCs(ep *mercury.Endpoint) {
	ep.Register("mofka.create_topic", func(req []byte) ([]byte, error) {
		var cfg mofka.TopicConfig
		if err := json.Unmarshal(req, &cfg); err != nil {
			return nil, err
		}
		if _, err := c.EnsureTopic(cfg); err != nil {
			return nil, err
		}
		return []byte(`{}`), nil
	})
	ep.Register("mofka.topics", func([]byte) ([]byte, error) {
		return json.Marshal(c.Topics())
	})
	ep.Register("mofka.topic_info", func(req []byte) ([]byte, error) {
		var name string
		if err := json.Unmarshal(req, &name); err != nil {
			return nil, err
		}
		t, err := c.Topic(name)
		if err != nil {
			return nil, err
		}
		var events uint64
		for p := 0; p < t.PartitionCount(); p++ {
			n, err := c.Length(name, p)
			if err != nil {
				return nil, err
			}
			events += n
		}
		return json.Marshal(gatewayTopicInfo{Name: name, Partitions: t.PartitionCount(), Events: events})
	})
	ep.Register("mofka.push", func(req []byte) ([]byte, error) {
		var pr gatewayPushRequest
		if err := json.Unmarshal(req, &pr); err != nil {
			return nil, err
		}
		metas := make([][]byte, len(pr.Metas))
		for i, m := range pr.Metas {
			metas[i] = m
		}
		// Epoch-less clients (plain mofka.Remote) always take the current
		// route — epoch 0 is never current, so the first try only learns it —
		// and have no fence-retry semantics of their own, so an election that
		// lands mid-push is absorbed here. Their retries are not idempotent,
		// which matches the single-broker contract they were written against.
		appendBatch := c.Append
		if pr.Epoch == 0 {
			appendBatch = c.appendRefreshing
		}
		cur, err := appendBatch(pr.Topic, pr.Partition, pr.Producer, pr.Seq, pr.Epoch, metas, pr.Datas)
		if err != nil {
			return nil, err
		}
		return json.Marshal(gatewayPushResponse{Epoch: cur})
	})
	ep.Register("mofka.pull", func(req []byte) ([]byte, error) {
		var pr gatewayPullRequest
		if err := json.Unmarshal(req, &pr); err != nil {
			return nil, err
		}
		evs, err := c.Read(pr.Topic, pr.Partition, pr.From, pr.Max, pr.WithData)
		if err != nil {
			return nil, err
		}
		return json.Marshal(gatewayPullResponse{Events: evs})
	})
	ep.Register("mofka.commit", func(req []byte) ([]byte, error) {
		var cr gatewayCursorRequest
		if err := json.Unmarshal(req, &cr); err != nil {
			return nil, err
		}
		if err := c.CommitCursor(cr.Consumer, cr.Topic, cr.Partition, cr.Next); err != nil {
			return nil, err
		}
		return []byte(`{}`), nil
	})
	ep.Register("mofka.cursor", func(req []byte) ([]byte, error) {
		var cr gatewayCursorRequest
		if err := json.Unmarshal(req, &cr); err != nil {
			return nil, err
		}
		return json.Marshal(c.LoadCursor(cr.Consumer, cr.Topic, cr.Partition))
	})
	ep.Register("mofka.partition_info", func(req []byte) ([]byte, error) {
		var pr gatewayPullRequest
		if err := json.Unmarshal(req, &pr); err != nil {
			return nil, err
		}
		n, err := c.Length(pr.Topic, pr.Partition)
		if err != nil {
			return nil, err
		}
		return json.Marshal(n)
	})
	ep.Register("mofka.ping", func([]byte) ([]byte, error) {
		if c.IsClosed() {
			return nil, ErrClosed
		}
		return []byte(`{}`), nil
	})
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
	rep, err := dialReplica(addr)
	if err != nil {
		return 0, fmt.Errorf("cluster: dial %s: %w", addr, err)
	}
	if err := rep.ping(); err != nil {
		_ = rep.close() // probe failed; connection is dead anyway
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
		_ = rep.close()
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
		if err := rep.ensureTopic(cfg); err != nil {
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

// Info fetches cluster membership/placement from a gateway — the client
// side of "cluster.info".
func Info(gatewayAddr string, timeout time.Duration) (*InfoResponse, error) {
	cl, err := mercury.Dial(gatewayAddr)
	if err != nil {
		return nil, err
	}
	defer func() { _ = cl.Close() }()
	if timeout > 0 {
		cl.SetTimeout(timeout)
	}
	resp, err := cl.Call(rpcInfo, []byte(`{}`))
	if err != nil {
		return nil, err
	}
	var info InfoResponse
	if err := json.Unmarshal(resp, &info); err != nil {
		return nil, err
	}
	return &info, nil
}
