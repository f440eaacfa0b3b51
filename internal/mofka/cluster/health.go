package cluster

import "sync"

// Health event kinds. Every kind carries the "cluster_" prefix so
// downstream consumers — the warnings-topic bridge in internal/core, the
// live monitor's cluster-health lane, perfrecup's cluster timeline — can
// select replication/failover provenance with one prefix match.
const (
	// EventBrokerDead: a broker member was declared dead (a chaos kill).
	// Detail carries the reason.
	EventBrokerDead = "cluster_broker_dead"
	// EventBrokerRejoined: a previously dead broker restarted and
	// rejoined with a bumped incarnation.
	EventBrokerRejoined = "cluster_broker_rejoined"
	// EventLeaderElected: a partition changed leaders; Epoch is the new
	// leadership term, Node the new leader.
	EventLeaderElected = "cluster_leader_elected"
	// EventCatchUp: a lagging replica was healed from a donor; Detail
	// carries "copied N events from node M".
	EventCatchUp = "cluster_catchup"
	// EventLogTruncated: a rejoining replica's unacknowledged divergent tail
	// was discarded before catch-up; Detail reports how many events were
	// dropped and the acknowledged offset the log was clamped to.
	EventLogTruncated = "cluster_log_truncated"
	// EventUnderReplicated: a partition's alive replica count fell below
	// quorum; appends fail with ErrUnavailable until a member returns.
	EventUnderReplicated = "cluster_under_replicated"
)

// Event is one cluster-health observation. Events are recorded in emission
// order; internal/core republishes them into the provenance warnings topic.
type Event struct {
	Kind      string  `json:"kind"`
	Node      int     `json:"node"`      // broker id, or new leader for elections; -1 when not node-scoped
	Topic     string  `json:"topic"`     // "" for node-scoped events
	Partition int     `json:"partition"` // -1 for node-scoped events
	Epoch     uint64  `json:"epoch"`     // leadership term for partition-scoped events
	At        float64 `json:"at"`        // seconds (virtual in simulations)
	Detail    string  `json:"detail"`
}

// healthLog accumulates events.
type healthLog struct {
	mu     sync.Mutex
	events []Event
}

func newHealthLog() *healthLog { return &healthLog{} }

func (h *healthLog) emit(evs []Event) {
	if len(evs) == 0 {
		return
	}
	h.mu.Lock()
	h.events = append(h.events, evs...)
	h.mu.Unlock()
}

func (h *healthLog) snapshot() []Event {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]Event(nil), h.events...)
}

// Events returns every health event recorded so far, in emission order.
func (c *Cluster) Events() []Event { return c.health.snapshot() }
