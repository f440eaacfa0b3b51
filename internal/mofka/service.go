package mofka

import (
	"encoding/json"
	"fmt"

	"taskprov/internal/mochi/mercury"
)

// Service is the event log as a reader sees it: four operations, the same
// whether they land on a broker (Broker.Service) — a run's own, or a finished
// log opened post-mortem, a cluster's merged into one — or cross the wire to
// one (Remote). Serve exposes any Service on a Mercury endpoint; the
// one-pass reader of taskprov watch -broker (live.ReplayService) is written
// against the interface and cannot tell which answers.
//
// It is the read side and the wire. A session publishes straight into its own
// deployment: a Producer binds to its broker's or cluster's append (see Bus),
// and no event crosses a process boundary on its way in.
type Service interface {
	// Topics lists topic names in sorted order.
	Topics() ([]string, error)
	// TopicInfo returns a topic's partition count.
	TopicInfo(name string) (partitions int, err error)
	// Pull returns up to max events of one partition from offset from on.
	Pull(topic string, partition int, from uint64, max int) ([]Event, error)
	// PartitionLength returns the number of events a consumer can observe in
	// one partition.
	PartitionLength(topic string, partition int) (uint64, error)
}

// The RPC names and wire structs of the four operations: Serve decodes them,
// Remote encodes them, nothing else spells them.
const (
	rpcTopics    = "mofka.topics"
	rpcTopicInfo = "mofka.topic_info"
	rpcPull      = "mofka.pull"
	rpcPartInfo  = "mofka.partition_info"
)

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
// for the daemon (cmd/mofkad).
func Serve(ep *mercury.Endpoint, svc Service) {
	ep.Register(rpcTopics, func([]byte) ([]byte, error) {
		return reply(svc.Topics())
	})
	ep.Register(rpcTopicInfo, handler(func(name string) (any, error) {
		parts, err := svc.TopicInfo(name)
		return topicInfo{Name: name, Partitions: parts}, err
	}))
	ep.Register(rpcPull, handler(func(pr pullRequest) (any, error) {
		evs, err := svc.Pull(pr.Topic, pr.Partition, pr.From, pr.Max)
		return pullResponse{Events: evs}, err
	}))
	ep.Register(rpcPartInfo, handler(func(pr partitionRequest) (any, error) {
		return svc.PartitionLength(pr.Topic, pr.Partition)
	}))
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

// reply encodes a handler's answer, or its error.
func reply(resp any, err error) ([]byte, error) {
	if err != nil {
		return nil, err
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

func (s brokerService) Topics() ([]string, error) { return s.b.Topics(), nil }

func (s brokerService) TopicInfo(name string) (int, error) {
	t, err := s.b.OpenTopic(name)
	if err != nil {
		return 0, err
	}
	return t.Partitions(), nil
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

// Remote is the Service at the far end of a Mercury caller: whatever Serve
// exposed there.
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
	return json.Unmarshal(respb, resp)
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
