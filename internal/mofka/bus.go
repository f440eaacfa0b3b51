package mofka

// Bus is the event-log deployment a run publishes its provenance through,
// with the lifecycle its owner drives. Two implementations exist: a
// standalone Broker (via Broker.Bus) and a sharded, replicated cluster
// (internal/mofka/cluster). Defining the interface here — in the leaf
// package both sides already import — lets internal/core target either
// deployment without an import cycle and without branching on which it got.
type Bus interface {
	// EnsureTopic opens the topic, creating it if absent.
	EnsureTopic(cfg TopicConfig) (BusTopic, error)
	// SetAppendFault installs (nil clears) a hook that can fail appends, for
	// fault injection.
	SetAppendFault(f func(topic string, partition int) error)
	// Sync forces everything acknowledged so far to stable storage.
	Sync() error
	// ReadView returns a broker holding every acknowledged event and
	// committed cursor, for the analysis side. A standalone broker's view is
	// the broker itself, live; a cluster's is a snapshot of the moment.
	ReadView() (*Broker, error)
	// Close shuts the deployment down. Idempotent.
	Close() error
}

// BusTopic is one named event stream reachable through a Bus.
type BusTopic interface {
	Name() string
	PartitionCount() int
	// Producer creates the topic's batching publisher. What differs between
	// deployments is only the sink its sealed batches ship through.
	Producer(opts ProducerOptions) *Producer
}

// Bus adapts the broker to the Bus interface.
func (b *Broker) Bus() Bus { return brokerBus{b} }

type brokerBus struct{ *Broker }

func (bb brokerBus) EnsureTopic(cfg TopicConfig) (BusTopic, error) {
	t, err := bb.OpenOrCreateTopic(cfg)
	if err != nil {
		return nil, err
	}
	return brokerBusTopic{t}, nil
}

func (bb brokerBus) ReadView() (*Broker, error) { return bb.Broker, nil }

type brokerBusTopic struct{ t *Topic }

func (bt brokerBusTopic) Name() string                            { return bt.t.Name() }
func (bt brokerBusTopic) PartitionCount() int                     { return bt.t.Partitions() }
func (bt brokerBusTopic) Producer(opts ProducerOptions) *Producer { return bt.t.NewProducer(opts) }
