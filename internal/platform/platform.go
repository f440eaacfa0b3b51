// Package platform models the hardware layer of an HPC system for the
// characterization framework: compute nodes with per-node performance
// factors, a two-level switch fabric with distance-dependent latency, and
// NIC bandwidth sharing. It is calibrated loosely on ALCF Polaris (one
// 32-core AMD EPYC 7543P per node, Slingshot 11 NICs), the platform used in
// the paper's evaluation.
//
// The model's purpose is not cycle accuracy but exposing the paper's
// variability sources: which switch each allocated node landed on, node-to-
// node performance spread, and contention on shared links.
package platform

import (
	"fmt"

	"taskprov/internal/sim"
)

// Config describes a cluster model. The zero value is not useful; start from
// Polaris() and override fields. Its JSON form is the hardware layer of a
// run's metadata.json, durations in nanoseconds.
type Config struct {
	Name         string `json:"platform"` // platform name recorded in provenance metadata
	Nodes        int    `json:"nodes"`    // number of allocated compute nodes
	CoresPerNode int    `json:"cores_per_node"`
	MemPerNode   int64  `json:"mem_per_node"` // bytes
	GPUsPerNode  int    `json:"gpus_per_node"`
	Switches     int    `json:"switches"` // leaf switches nodes are randomly attached to

	// Network timing. Latency is sampled per message with lognormal jitter
	// (LatencyCV); bandwidth is shared on the receiver NIC.
	IntraNodeLatency   sim.Time `json:"intra_node_latency_ns"`
	SameSwitchLatency  sim.Time `json:"same_switch_latency_ns"`
	CrossSwitchLatency sim.Time `json:"cross_switch_latency_ns"`
	LatencyCV          float64  `json:"latency_cv"`

	NICBandwidth       float64 `json:"nic_bandwidth"`        // bytes/s per node NIC (inter-node transfers)
	IntraNodeBandwidth float64 `json:"intra_node_bandwidth"` // bytes/s for on-node transfers (memory copy)
	BandwidthCV        float64 `json:"bandwidth_cv"`         // per-transfer multiplicative jitter

	// NodeSpeedCV spreads a per-node compute speed factor around 1.0,
	// modeling the paper's observation that "allocated nodes may vary in
	// performance".
	NodeSpeedCV float64 `json:"node_speed_cv"`

	// MessageOverhead is the fixed software cost added to every transfer
	// (serialization, event-loop dispatch).
	MessageOverhead sim.Time `json:"message_overhead_ns"`
}

// Polaris returns a configuration modeled on the ALCF Polaris system used in
// the paper: Slingshot 11 network, 32-core EPYC Milan nodes, 512 GB RAM.
func Polaris() Config {
	return Config{
		Name:               "polaris-sim",
		Nodes:              2,
		CoresPerNode:       32,
		MemPerNode:         512 << 30,
		GPUsPerNode:        4,
		Switches:           4,
		IntraNodeLatency:   sim.Microseconds(3),
		SameSwitchLatency:  sim.Microseconds(12),
		CrossSwitchLatency: sim.Microseconds(30),
		LatencyCV:          0.25,
		NICBandwidth:       20e9, // ~ a pair of Slingshot 11 adapters, derated
		IntraNodeBandwidth: 80e9,
		BandwidthCV:        0.15,
		NodeSpeedCV:        0.02,
		MessageOverhead:    sim.Microseconds(150),
	}
}

// Node is one allocated compute node.
type Node struct {
	ID       int
	Hostname string
	Switch   int     // leaf switch this node's NIC is attached to
	Speed    float64 // compute speed factor, ~1.0
	cluster  *Cluster
	nic      *sim.SharedServer // inbound NIC bandwidth
	mem      *sim.SharedServer // on-node copy bandwidth
}

// Cluster is an instantiated platform model bound to a simulation kernel.
type Cluster struct {
	cfg    Config
	kernel *sim.Kernel
	nodes  []*Node
	lat    *sim.RNG
	bw     *sim.RNG

	// linkFactor holds per-directed-link service-time multipliers installed
	// by fault injection: a factor f > 1 on (src, dst) makes every transfer
	// on that link take f times longer (degraded cable, congested uplink —
	// the gray-failure analogue of a kill). Factor 1 entries are removed.
	linkFactor map[[2]int]float64

	free []*transfer // messages past their latency hop, reused LIFO
}

// transfer is one message between its latency hop and the receiving server:
// what arrive needs, kept in a recycled struct so that a message costs no
// closure. arrive is the method value, bound once per struct.
type transfer struct {
	c      *Cluster
	server *sim.SharedServer
	bytes  float64
	done   func()
	arrive func()
}

// land hands the message to the receiving server, once its latency has passed.
func (t *transfer) land() {
	server, bytes, done := t.server, t.bytes, t.done
	t.done = nil // whatever it captured is not the free list's to keep
	t.c.free = append(t.c.free, t)
	server.Submit(bytes, done)
}

// New builds a cluster on kernel k. Node-to-switch placement and per-node
// speed factors are drawn from the kernel's seeded RNG: two runs with
// different seeds get different placements, which is one of the paper's
// principal sources of run-to-run variability.
func New(k *sim.Kernel, cfg Config) *Cluster {
	if cfg.Nodes <= 0 {
		panic("platform: config needs at least one node")
	}
	if cfg.Switches <= 0 {
		cfg.Switches = 1
	}
	c := &Cluster{
		cfg:    cfg,
		kernel: k,
		lat:    k.RNG("platform/latency"),
		bw:     k.RNG("platform/bandwidth"),
	}
	place := k.RNG("platform/placement")
	speed := k.RNG("platform/nodespeed")
	for i := 0; i < cfg.Nodes; i++ {
		sf := 1.0
		if cfg.NodeSpeedCV > 0 {
			sf = speed.Normal(1.0, cfg.NodeSpeedCV)
			if sf < 0.5 {
				sf = 0.5
			}
		}
		n := &Node{
			ID:       i,
			Hostname: fmt.Sprintf("nid%05d", 1000+place.Intn(4000)*10+i),
			Switch:   place.Intn(cfg.Switches),
			Speed:    sf,
			cluster:  c,
		}
		n.nic = sim.NewSharedServer(k, fmt.Sprintf("nic/%s", n.Hostname), cfg.NICBandwidth, 0)
		n.mem = sim.NewSharedServer(k, fmt.Sprintf("mem/%s", n.Hostname), cfg.IntraNodeBandwidth, 0)
		c.nodes = append(c.nodes, n)
	}
	return c
}

// Nodes returns the allocated nodes in ID order.
func (c *Cluster) Nodes() []*Node { return c.nodes }

// Node returns the node with the given ID.
func (c *Cluster) Node(id int) *Node { return c.nodes[id] }

// SetLinkFactor installs (or, with factor <= 1, clears) a service-time
// multiplier on the directed link src → dst. Transfers on a degraded link
// pay factor times the latency and move factor times the effective bytes,
// modeling a browned-out cable or congested switch uplink. Node IDs are
// validated by the caller (chaos arms these from a parsed plan).
func (c *Cluster) SetLinkFactor(src, dst int, factor float64) {
	key := [2]int{src, dst}
	if factor <= 1 {
		delete(c.linkFactor, key)
		return
	}
	if c.linkFactor == nil {
		c.linkFactor = make(map[[2]int]float64)
	}
	c.linkFactor[key] = factor
}

// LinkFactor reports the current multiplier on the directed link src → dst
// (1 when undegraded).
func (c *Cluster) LinkFactor(src, dst int) float64 {
	if f, ok := c.linkFactor[[2]int{src, dst}]; ok {
		return f
	}
	return 1
}

// latency samples the one-way message latency between two nodes.
func (c *Cluster) latency(from, to *Node) sim.Time {
	var base sim.Time
	switch {
	case from == to:
		base = c.cfg.IntraNodeLatency
	case from.Switch == to.Switch:
		base = c.cfg.SameSwitchLatency
	default:
		base = c.cfg.CrossSwitchLatency
	}
	return c.lat.JitterTime(base, c.cfg.LatencyCV)
}

// Transfer models moving size bytes from node `from` to node `to`; done (nil
// for none) is called once the last byte lands. Inter-node transfers share
// the receiver's NIC; intra-node transfers share the node's memory bandwidth.
// A zero-size transfer still pays latency and software overhead (matching
// small control messages).
func (c *Cluster) Transfer(from, to *Node, size int64, done func()) {
	lat := c.latency(from, to) + c.cfg.MessageOverhead
	server := to.nic
	if from == to {
		server = to.mem
	}
	bytes := float64(size)
	if c.cfg.BandwidthCV > 0 && bytes > 0 {
		// Jitter the effective transfer by inflating the work.
		bytes = c.bw.LogNormalMean(bytes, c.cfg.BandwidthCV)
	}
	if f := c.LinkFactor(from.ID, to.ID); f > 1 {
		lat = sim.Time(float64(lat) * f)
		bytes *= f
	}
	t := sim.PopFree(&c.free)
	if t == nil {
		t = &transfer{c: c}
		t.arrive = t.land
	}
	t.server, t.bytes, t.done = server, bytes, done
	c.kernel.After(lat, t.arrive)
}

// ComputeDuration scales a nominal task duration by the executing node's
// speed factor. Callers layer their own per-task noise on top.
func (n *Node) ComputeDuration(nominal sim.Time) sim.Time {
	return sim.Time(float64(nominal) / n.Speed)
}

// Describe returns the hardware metadata captured in the provenance chart's
// hardware-infrastructure layer (Fig. 1 of the paper): the model as built,
// and where its nodes landed.
func (c *Cluster) Describe() Description {
	d := Description{Config: c.cfg}
	for _, n := range c.nodes {
		d.NodeList = append(d.NodeList, NodeDescription{
			Hostname: n.Hostname, Switch: n.Switch, Speed: n.Speed,
		})
	}
	return d
}

// Description is the serializable hardware-layer metadata: the platform
// model, then the allocation drawn from it.
type Description struct {
	Config
	NodeList []NodeDescription `json:"node_list"`
}

// NodeDescription records one node's placement and measured speed factor.
type NodeDescription struct {
	Hostname string  `json:"hostname"`
	Switch   int     `json:"switch"`
	Speed    float64 `json:"speed"`
}
