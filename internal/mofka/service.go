package mofka

import (
	"encoding/json"
	"fmt"

	"taskprov/internal/mochi/mercury"
)

// Service is the event log as every deployment offers it: seven operations,
// the same whether they land on one broker (Broker.Service), on a sharded,
// replicated cluster (cluster.Cluster.Service), or cross the wire to either
// (Remote). Serve exposes any Service on a Mercury endpoint; consumers, the
// cluster's replication layer and tailers are written against the interface
// and cannot tell which deployment answers.
//
// It is the read side and the wire. A session's own publish path does not go
// through it: a Producer binds straight to its deployment's append (see Bus).
type Service interface {
	// CreateTopic opens the topic, creating it if absent.
	CreateTopic(cfg TopicConfig) error
	// Topics lists topic names in sorted order.
	Topics() ([]string, error)
	// TopicInfo returns a topic's partition count.
	TopicInfo(name string) (partitions int, err error)
	// PushBatch appends a batch of events to one partition.
	PushBatch(topic string, partition int, metas [][]byte) error
	// Pull returns up to max events of one partition from offset from on.
	Pull(topic string, partition int, from uint64, max int) ([]Event, error)
	// PartitionLength returns the number of events a consumer can observe in
	// one partition.
	PartitionLength(topic string, partition int) (uint64, error)
	// Ping fails once the deployment has shut down.
	Ping() error
}

// BatchSubmitter is what a Service adds when a push has two halves (see
// Partition.Submit): SubmitBatch returns once the batch is admitted and its
// offsets are fixed, with the wait for its commit. PushBatch on such a
// service is SubmitBatch followed by the wait. A caller that lands one batch
// on several logs — the cluster's quorum append — submits to all of them
// before it waits on any, so their fsyncs run side by side.
type BatchSubmitter interface {
	SubmitBatch(topic string, partition int, metas [][]byte) (*Commit, error)
}

// fencedPusher is what a Service adds when its pushes can carry a producer
// id, a batch sequence number and a leadership epoch (the cluster's
// idempotent, fenced append). Serve hands such a service the three fields of
// the push request and answers with the epoch it returns.
type fencedPusher interface {
	PushFenced(topic string, partition int, producer string, seq, epoch uint64, metas [][]byte) (current uint64, err error)
}

// The RPC names and wire structs of the seven operations: Serve decodes them,
// Remote encodes them, nothing else spells them.
const (
	rpcCreateTopic = "mofka.create_topic"
	rpcTopics      = "mofka.topics"
	rpcTopicInfo   = "mofka.topic_info"
	rpcPush        = "mofka.push"
	rpcPull        = "mofka.pull"
	rpcPartInfo    = "mofka.partition_info"
	rpcPing        = "mofka.ping"
)

// pushRequest's last three fields are the fenced push's; a plain client
// leaves them zero and they stay off the wire.
type pushRequest struct {
	Topic     string            `json:"topic"`
	Partition int               `json:"partition"`
	Metas     []json.RawMessage `json:"metas"`
	Producer  string            `json:"producer,omitempty"`
	Seq       uint64            `json:"seq,omitempty"`
	Epoch     uint64            `json:"epoch,omitempty"`
}

type pushResponse struct {
	Epoch uint64 `json:"epoch"`
}

type pullRequest struct {
	Topic     string `json:"topic"`
	Partition int    `json:"partition"`
	From      uint64 `json:"from"`
	Max       int    `json:"max"`
}

type pullResponse struct {
	Events []Event `json:"events"`
}

// partitionRequest names one partition: a length probe's request.
type partitionRequest struct {
	Topic     string `json:"topic"`
	Partition int    `json:"partition"`
}

type topicInfo struct {
	Name       string `json:"name"`
	Partitions int    `json:"partitions"`
}

// Serve exposes svc on a Mercury endpoint, which mercury.Serve puts on TCP
// for the standalone daemon (cmd/mofkad) and a cluster's members.
func Serve(ep *mercury.Endpoint, svc Service) {
	ep.Register(rpcCreateTopic, handler(func(cfg TopicConfig) (any, error) {
		return nil, svc.CreateTopic(cfg)
	}))
	ep.Register(rpcTopics, func([]byte) ([]byte, error) {
		return reply(svc.Topics())
	})
	ep.Register(rpcTopicInfo, handler(func(name string) (any, error) {
		parts, err := svc.TopicInfo(name)
		return topicInfo{Name: name, Partitions: parts}, err
	}))
	fenced, _ := svc.(fencedPusher)
	ep.Register(rpcPush, handler(func(pr pushRequest) (any, error) {
		metas := make([][]byte, len(pr.Metas))
		for i, m := range pr.Metas {
			metas[i] = m
		}
		if fenced == nil {
			return nil, svc.PushBatch(pr.Topic, pr.Partition, metas)
		}
		cur, err := fenced.PushFenced(pr.Topic, pr.Partition, pr.Producer, pr.Seq, pr.Epoch, metas)
		return pushResponse{Epoch: cur}, err
	}))
	ep.Register(rpcPull, handler(func(pr pullRequest) (any, error) {
		evs, err := svc.Pull(pr.Topic, pr.Partition, pr.From, pr.Max)
		return pullResponse{Events: evs}, err
	}))
	ep.Register(rpcPartInfo, handler(func(pr partitionRequest) (any, error) {
		return svc.PartitionLength(pr.Topic, pr.Partition)
	}))
	ep.Register(rpcPing, func([]byte) ([]byte, error) {
		return reply(nil, svc.Ping())
	})
}

// handler is the Mercury handler that decodes the request into a Req, runs h
// and encodes what it answers.
func handler[Req any](h func(Req) (any, error)) mercury.Handler {
	return func(req []byte) ([]byte, error) {
		var r Req
		if err := json.Unmarshal(req, &r); err != nil {
			return nil, err
		}
		return reply(h(r))
	}
}

// reply encodes a handler's answer: the error if there is one, the empty
// object for an operation that returns nothing else.
func reply(resp any, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	if resp == nil {
		return []byte(`{}`), nil
	}
	return json.Marshal(resp)
}

// Service returns the broker as a Service.
func (b *Broker) Service() Service { return brokerService{b} }

type brokerService struct{ b *Broker }

func (s brokerService) partition(topic string, partition int) (*Partition, error) {
	t, err := s.b.OpenTopic(topic)
	if err != nil {
		return nil, err
	}
	return t.Partition(partition)
}

func (s brokerService) CreateTopic(cfg TopicConfig) error {
	_, err := s.b.OpenOrCreateTopic(cfg)
	return err
}

func (s brokerService) Topics() ([]string, error) { return s.b.Topics(), nil }

func (s brokerService) TopicInfo(name string) (int, error) {
	t, err := s.b.OpenTopic(name)
	if err != nil {
		return 0, err
	}
	return t.Partitions(), nil
}

func (s brokerService) PushBatch(topic string, partition int, metas [][]byte) error {
	c, err := s.SubmitBatch(topic, partition, metas)
	if err != nil {
		return err
	}
	return c.Wait()
}

func (s brokerService) SubmitBatch(topic string, partition int, metas [][]byte) (*Commit, error) {
	p, err := s.partition(topic, partition)
	if err != nil {
		return nil, err
	}
	return p.Submit(metas)
}

func (s brokerService) Pull(topic string, partition int, from uint64, max int) ([]Event, error) {
	p, err := s.partition(topic, partition)
	if err != nil {
		return nil, err
	}
	return p.read(from, max), nil
}

func (s brokerService) PartitionLength(topic string, partition int) (uint64, error) {
	p, err := s.partition(topic, partition)
	if err != nil {
		return 0, err
	}
	return p.Length(), nil
}

func (s brokerService) Ping() error {
	if s.b.IsClosed() {
		return ErrClosed
	}
	return nil
}

// Remote is the Service at the far end of a Mercury caller: whatever Serve
// exposed there, a broker or a cluster gateway.
type Remote struct {
	c mercury.Caller
}

var _ Service = (*Remote)(nil)

// NewRemote wraps a Mercury caller as a Mofka client.
func NewRemote(c mercury.Caller) *Remote { return &Remote{c: c} }

func (r *Remote) call(rpc string, req, resp any) error {
	reqb, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("mofka: encode %s: %w", rpc, err)
	}
	respb, err := r.c.Call(rpc, reqb)
	if err != nil {
		return err
	}
	if resp == nil {
		return nil
	}
	return json.Unmarshal(respb, resp)
}

// CreateTopic creates (or opens) a topic on the remote broker.
func (r *Remote) CreateTopic(cfg TopicConfig) error {
	return r.call(rpcCreateTopic, cfg, nil)
}

// Topics lists remote topics.
func (r *Remote) Topics() ([]string, error) {
	var out []string
	err := r.call(rpcTopics, struct{}{}, &out)
	return out, err
}

// TopicInfo returns a topic's partition count.
func (r *Remote) TopicInfo(name string) (partitions int, err error) {
	var info topicInfo
	err = r.call(rpcTopicInfo, name, &info)
	return info.Partitions, err
}

// PushBatch appends a batch of events to one partition.
func (r *Remote) PushBatch(topic string, partition int, metas [][]byte) error {
	pr := pushRequest{Topic: topic, Partition: partition}
	for _, m := range metas {
		pr.Metas = append(pr.Metas, m)
	}
	return r.call(rpcPush, pr, nil)
}

// Pull fetches up to max events of one partition starting at offset from.
func (r *Remote) Pull(topic string, partition int, from uint64, max int) ([]Event, error) {
	var resp pullResponse
	err := r.call(rpcPull, pullRequest{Topic: topic, Partition: partition, From: from, Max: max}, &resp)
	return resp.Events, err
}

// PartitionLength returns the number of events in one remote partition.
func (r *Remote) PartitionLength(topic string, partition int) (uint64, error) {
	var n uint64
	err := r.call(rpcPartInfo, partitionRequest{Topic: topic, Partition: partition}, &n)
	return n, err
}

// Ping probes remote liveness; the cluster gateway's failure detector calls
// it on every sweep.
func (r *Remote) Ping() error {
	return r.call(rpcPing, struct{}{}, nil)
}
