package mofka

// Bus is the event-log deployment a run publishes its provenance through,
// with the lifecycle its owner drives. Two implementations exist: a
// standalone Broker (via Broker.Bus) and a sharded, replicated cluster
// (internal/mofka/cluster). Defining the interface here — in the leaf
// package both sides already import — lets internal/core target either
// deployment without an import cycle and without branching on which it got.
//
// A Bus is owned and in-process: its producers bind straight to the
// deployment's append, with no request to encode. Service is the other seam —
// the seven operations anyone may speak to a log, its owner or not, over the
// wire or not.
type Bus interface {
	TopicOpener
	// SetAppendFault installs (nil clears) a hook that can fail appends, for
	// fault injection.
	SetAppendFault(f func(topic string, partition int) error)
	// Sync forces everything acknowledged so far to stable storage.
	Sync() error
	// ReadView returns a broker holding every acknowledged event, for the
	// analysis side. A standalone broker's view is the broker itself, live;
	// a cluster's is a snapshot of the moment.
	ReadView() (*Broker, error)
	// Close shuts the deployment down. Idempotent.
	Close() error
}

// TopicOpener is what a publisher needs of the log it writes to; every Bus
// is one.
type TopicOpener interface {
	// EnsureTopic opens the topic, creating it if absent.
	EnsureTopic(cfg TopicConfig) (BusTopic, error)
}

// BusTopic is one named event stream a publisher has opened. What differs
// between deployments is only the sink its producers' sealed batches ship
// through.
type BusTopic interface {
	// NewProducer creates a batching publisher for the topic.
	NewProducer(opts ProducerOptions) *Producer
}

// Bus adapts the broker to the Bus interface.
func (b *Broker) Bus() Bus { return brokerBus{b} }

type brokerBus struct{ *Broker }

func (bb brokerBus) EnsureTopic(cfg TopicConfig) (BusTopic, error) {
	t, err := bb.OpenOrCreateTopic(cfg)
	if err != nil {
		return nil, err
	}
	return t, nil
}

func (bb brokerBus) ReadView() (*Broker, error) { return bb.Broker, nil }
