package platform

import (
	"testing"

	"taskprov/internal/sim"
)

func TestNewClusterShape(t *testing.T) {
	k := sim.NewKernel(1)
	c := New(k, Polaris())
	if len(c.Nodes()) != 2 {
		t.Fatalf("nodes = %d, want 2", len(c.Nodes()))
	}
	for i, n := range c.Nodes() {
		if n.ID != i {
			t.Errorf("node %d has ID %d", i, n.ID)
		}
		if n.Hostname == "" {
			t.Errorf("node %d missing hostname", i)
		}
		if n.Switch < 0 || n.Switch >= c.cfg.Switches {
			t.Errorf("node %d switch %d out of range", i, n.Switch)
		}
		if n.Speed < 0.5 || n.Speed > 1.5 {
			t.Errorf("node %d speed %f implausible", i, n.Speed)
		}
	}
}

func TestPlacementVariesAcrossSeeds(t *testing.T) {
	cfg := Polaris()
	cfg.Nodes = 8
	distinct := map[int]bool{}
	for seed := uint64(0); seed < 16; seed++ {
		c := New(sim.NewKernel(seed), cfg)
		sig := 0
		for _, n := range c.Nodes() {
			sig = sig*cfg.Switches + n.Switch
		}
		distinct[sig] = true
	}
	if len(distinct) < 2 {
		t.Fatal("node placement identical across all seeds; variability source missing")
	}
}

func TestPlacementDeterministicForSeed(t *testing.T) {
	cfg := Polaris()
	cfg.Nodes = 8
	a := New(sim.NewKernel(42), cfg)
	b := New(sim.NewKernel(42), cfg)
	for i := range a.Nodes() {
		if a.Node(i).Switch != b.Node(i).Switch || a.Node(i).Hostname != b.Node(i).Hostname {
			t.Fatal("same seed produced different placement")
		}
	}
}

func TestTransferIntraVsInterNode(t *testing.T) {
	cfg := Polaris()
	cfg.LatencyCV = 0
	cfg.BandwidthCV = 0
	cfg.Switches = 1
	k := sim.NewKernel(1)
	c := New(k, cfg)
	var intra, inter sim.Time
	c.Transfer(c.Node(0), c.Node(0), 1<<30, func() { intra = k.Now() })
	c.Transfer(c.Node(0), c.Node(1), 1<<30, func() { inter = k.Now() })
	k.Run()
	if intra == 0 || inter == 0 {
		t.Fatal("transfers did not complete")
	}
	if intra >= inter {
		t.Fatalf("intra-node transfer (%v) not faster than inter-node (%v)", intra, inter)
	}
	// 1 GiB at 20 GB/s is ~54 ms; sanity-check the magnitude.
	if inter < sim.Milliseconds(40) || inter > sim.Milliseconds(80) {
		t.Fatalf("inter-node 1GiB transfer took %v, expected ~54ms", inter)
	}
}

func TestTransferZeroSizePaysLatencyOnly(t *testing.T) {
	cfg := Polaris()
	cfg.LatencyCV = 0
	k := sim.NewKernel(1)
	c := New(k, cfg)
	var e sim.Time
	c.Transfer(c.Node(0), c.Node(1), 0, func() { e = k.Now() })
	k.Run()
	want := cfg.MessageOverhead
	if e < want || e > want+cfg.CrossSwitchLatency*2 {
		t.Fatalf("zero-size transfer elapsed %v, want ~latency+overhead", e)
	}
}

func TestConcurrentTransfersShareNIC(t *testing.T) {
	cfg := Polaris()
	cfg.LatencyCV = 0
	cfg.BandwidthCV = 0
	k := sim.NewKernel(1)
	c := New(k, cfg)
	var alone sim.Time
	c.Transfer(c.Node(0), c.Node(1), 1<<30, func() { alone = k.Now() })
	k.Run()

	k2 := sim.NewKernel(1)
	c2 := New(k2, cfg)
	var with1, with2 sim.Time
	c2.Transfer(c2.Node(0), c2.Node(1), 1<<30, func() { with1 = k2.Now() })
	c2.Transfer(c2.Node(0), c2.Node(1), 1<<30, func() { with2 = k2.Now() })
	k2.Run()
	if with1 < alone*3/2 || with2 < alone*3/2 {
		t.Fatalf("concurrent transfers (%v, %v) not slowed vs alone (%v)", with1, with2, alone)
	}
}

func TestComputeDurationScalesBySpeed(t *testing.T) {
	k := sim.NewKernel(1)
	cfg := Polaris()
	cfg.NodeSpeedCV = 0
	c := New(k, cfg)
	n := c.Node(0)
	if d := n.ComputeDuration(sim.Second); d != sim.Second {
		t.Fatalf("speed=1 node scaled duration to %v", d)
	}
	n.Speed = 2
	if d := n.ComputeDuration(sim.Second); d != sim.Second/2 {
		t.Fatalf("speed=2 node duration %v, want 0.5s", d)
	}
}

func TestDescribeCapturesTopology(t *testing.T) {
	k := sim.NewKernel(3)
	cfg := Polaris()
	cfg.Nodes = 4
	c := New(k, cfg)
	d := c.Describe()
	if d.Name != cfg.Name || d.Nodes != 4 || len(d.NodeList) != 4 {
		t.Fatalf("Describe() = %+v", d)
	}
	if d.CoresPerNode != 32 || d.GPUsPerNode != 4 {
		t.Fatalf("Polaris description wrong: %+v", d)
	}
	for i, nd := range d.NodeList {
		if nd.Hostname != c.Node(i).Hostname || nd.Switch != c.Node(i).Switch {
			t.Fatalf("node %d description mismatch", i)
		}
	}
}

func TestLatencyDistanceOrdering(t *testing.T) {
	cfg := Polaris()
	cfg.LatencyCV = 0
	cfg.Nodes = 4
	// Force a deterministic topology for the assertion.
	k := sim.NewKernel(1)
	c := New(k, cfg)
	n := c.Nodes()
	n[0].Switch, n[1].Switch, n[2].Switch = 0, 0, 1
	same := c.latency(n[0], n[0])
	sw := c.latency(n[0], n[1])
	cross := c.latency(n[0], n[2])
	if !(same < sw && sw < cross) {
		t.Fatalf("latency ordering violated: intra=%v same-switch=%v cross=%v", same, sw, cross)
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-node config did not panic")
		}
	}()
	New(sim.NewKernel(1), Config{})
}

// TestTransferAllocatesNothing: a control-sized message — latency hop, then
// the receiving NIC — costs no malloc once the cluster, the kernel and the
// server have their recycled structs: the budget every scheduler/worker
// message of a run is held to.
func TestTransferAllocatesNothing(t *testing.T) {
	k := sim.NewKernel(1)
	c := New(k, Polaris())
	arrived := 0
	done := func() { arrived++ }
	send := func() {
		c.Transfer(c.Node(0), c.Node(1), 1024, done)
		c.Transfer(c.Node(1), c.Node(1), 1024, done)
		c.Transfer(c.Node(0), c.Node(1), 0, done)
		k.Run()
	}
	send() // warm-up: free lists and scratch reach their steady size
	arrived = 0
	if n := testing.AllocsPerRun(500, send); n != 0 {
		t.Errorf("three transfers to completion: %v allocs, budget 0", n)
	}
	if arrived != 3*501 {
		t.Errorf("%d of %d transfers arrived", arrived, 3*501)
	}
}

// TestSetLinkFactorSlowsOneDirection: a factor of 4 on src → dst makes a
// transfer on that link slower than the same transfer on the healthy
// dst → src link; LinkFactor reports it, and a factor <= 1 clears it.
func TestSetLinkFactorSlowsOneDirection(t *testing.T) {
	cfg := Polaris()
	cfg.LatencyCV = 0
	cfg.BandwidthCV = 0
	k := sim.NewKernel(1)
	c := New(k, cfg)
	src, dst := c.Node(0), c.Node(1)
	c.SetLinkFactor(src.ID, dst.ID, 4)
	if f := c.LinkFactor(src.ID, dst.ID); f != 4 {
		t.Fatalf("LinkFactor(src, dst) = %v, want 4", f)
	}
	if f := c.LinkFactor(dst.ID, src.ID); f != 1 {
		t.Fatalf("LinkFactor(dst, src) = %v, want 1: the factor is directed", f)
	}
	var degraded, healthy sim.Time
	c.Transfer(src, dst, 1<<30, func() { degraded = k.Now() })
	c.Transfer(dst, src, 1<<30, func() { healthy = k.Now() })
	k.Run()
	if healthy == 0 || degraded <= healthy {
		t.Fatalf("1 GiB took %v on the degraded link, %v on the healthy one", degraded, healthy)
	}
	for _, clear := range []float64{1, 0.5} {
		c.SetLinkFactor(src.ID, dst.ID, 4)
		c.SetLinkFactor(src.ID, dst.ID, clear)
		if f := c.LinkFactor(src.ID, dst.ID); f != 1 {
			t.Fatalf("LinkFactor after SetLinkFactor(%v) = %v, want 1", clear, f)
		}
		if _, ok := c.linkFactor[[2]int{src.ID, dst.ID}]; ok {
			t.Fatalf("SetLinkFactor(%v) left the entry in place", clear)
		}
	}
}
