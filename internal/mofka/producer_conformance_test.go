package mofka_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	"taskprov/internal/mofka"
	"taskprov/internal/mofka/cluster"
)

// The producer is one state machine over two sinks. Every case below runs
// against each deployment, through nothing but the Bus both present: what
// batching, partitioning, closing, the bounded backlog and degraded mode
// promise must not depend on where a sealed batch lands.

// outage is one way a deployment loses its append path and gets it back.
type outage struct {
	name        string
	start, heal func(t *testing.T)
}

type deployment struct {
	bus     mofka.Bus
	outages []outage
}

var errInjected = errors.New("disk on fire")

// appendFault is the outage every Bus can stage.
func appendFault(bus mofka.Bus) outage {
	return outage{
		name:  "append-fault",
		start: func(*testing.T) { bus.SetAppendFault(func(string, int) error { return errInjected }) },
		heal:  func(*testing.T) { bus.SetAppendFault(nil) },
	}
}

var deployments = []struct {
	name string
	open func(t *testing.T) deployment
}{
	{"standalone", func(t *testing.T) deployment {
		bus := mofka.NewStandaloneBroker().Bus()
		return deployment{bus, []outage{appendFault(bus)}}
	}},
	{"cluster-3-rf2", func(t *testing.T) deployment {
		c, err := cluster.New(cluster.Config{Brokers: 3, ReplicationFactor: 2})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		// RF2 with quorum 2: killing the leader of the outage topic's first
		// partition leaves every partition it replicates unavailable until it
		// returns, and what was queued meanwhile is retried across the
		// leadership change.
		victim := -1
		leaderKill := outage{
			name: "leader-kill",
			start: func(t *testing.T) {
				victim = c.Replicas("leader-kill", 0)[0] // every member alive: the preferred leader leads
				if err := c.KillBroker(victim); err != nil {
					t.Fatal(err)
				}
			},
			heal: func(t *testing.T) {
				if err := c.RestartBroker(victim); err != nil {
					t.Fatal(err)
				}
			},
		}
		return deployment{c.Bus(), []outage{appendFault(c.Bus()), leaderKill}}
	}},
}

var conformanceCases = []struct {
	name string
	run  func(t *testing.T, d deployment)
}{
	{"SealsByCountAndByBytes", testSealsByCountAndByBytes},
	{"Partitioning", testPartitioning},
	{"CloseShipsLastBatchThenErrClosed", testCloseShipsLastBatchThenErrClosed},
	{"OrderAndConcurrency", testOrderAndConcurrency},
	{"DegradedBoundRecovery", testDegradedBoundRecovery},
	{"OutageNeitherLosesNorDuplicates", testOutageNeitherLosesNorDuplicates},
}

func TestProducerConformance(t *testing.T) {
	for _, dep := range deployments {
		for _, tc := range conformanceCases {
			t.Run(dep.name+"/"+tc.name, func(t *testing.T) { tc.run(t, dep.open(t)) })
		}
	}
}

func openTopic(t *testing.T, bus mofka.Bus, cfg mofka.TopicConfig) mofka.BusTopic {
	t.Helper()
	tp, err := bus.EnsureTopic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

// landed reads, per partition, every event the bus has acknowledged.
func landed(t *testing.T, bus mofka.Bus, topic string) [][]mofka.Event {
	t.Helper()
	view, err := bus.ReadView()
	if err != nil {
		t.Fatal(err)
	}
	tp, err := view.OpenTopic(topic)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]mofka.Event, tp.Partitions())
	for i := range out {
		if out[i], err = view.Service().Pull(topic, i, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func count(parts [][]mofka.Event) int {
	n := 0
	for _, evs := range parts {
		n += len(evs)
	}
	return n
}

func field(t *testing.T, ev mofka.Event, name string) int {
	t.Helper()
	m, err := ev.ParseMetadata()
	if err != nil {
		t.Fatal(err)
	}
	return int(m[name].(float64))
}

func testSealsByCountAndByBytes(t *testing.T, d deployment) {
	tp := openTopic(t, d.bus, mofka.TopicConfig{Name: "t", Partitions: 1})
	p := tp.NewProducer(mofka.ProducerOptions{BatchSize: 5})
	for i := 0; i < 4; i++ {
		if err := p.Push(mofka.Metadata{"i": i}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if n := count(landed(t, d.bus, "t")); n != 0 {
		t.Fatalf("%d events visible before their batch sealed", n)
	}
	if err := p.Push(mofka.Metadata{"i": 4}, nil); err != nil {
		t.Fatal(err)
	}
	if n := count(landed(t, d.bus, "t")); n != 5 {
		t.Fatalf("events after size trigger = %d, want 5", n)
	}
	if pushed, flushes := p.Stats(); pushed != 5 || flushes != 1 {
		t.Fatalf("stats = %d pushed, %d flushes, want 5, 1", pushed, flushes)
	}

	// An event is its metadata: a push with a payload is refused and seals
	// nothing, whatever the deployment.
	if err := p.Push(mofka.Metadata{}, make([]byte, 4<<20)); !errors.Is(err, mofka.ErrInvalidEvent) {
		t.Fatalf("push with a payload = %v, want ErrInvalidEvent", err)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := count(landed(t, d.bus, "t")); n != 5 {
		t.Fatalf("events after a refused payload = %d, want 5", n)
	}
}

func testPartitioning(t *testing.T, d deployment) {
	tp := openTopic(t, d.bus, mofka.TopicConfig{Name: "t", Partitions: 4})
	rr := tp.NewProducer(mofka.ProducerOptions{BatchSize: 1})
	for i := 0; i < 8; i++ {
		if err := rr.Push(mofka.Metadata{"i": i}, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i, evs := range landed(t, d.bus, "t") {
		if len(evs) != 2 {
			t.Fatalf("round robin left partition %d with %d events, want 2", i, len(evs))
		}
	}

}

// The final partial batch — events pushed after the last size-triggered
// flush — must be shipped by Close, not abandoned with the producer.
func testCloseShipsLastBatchThenErrClosed(t *testing.T, d deployment) {
	tp := openTopic(t, d.bus, mofka.TopicConfig{Name: "t", Partitions: 1})
	p := tp.NewProducer(mofka.ProducerOptions{BatchSize: 128})
	for i := 0; i < 3; i++ {
		if err := p.Push(mofka.Metadata{"i": i}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if n := count(landed(t, d.bus, "t")); n != 3 {
		t.Fatalf("events after Close = %d, want 3", n)
	}
	if err := p.Push(mofka.Metadata{"i": 9}, nil); !errors.Is(err, mofka.ErrClosed) {
		t.Fatalf("push after Close err = %v, want ErrClosed", err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func testOrderAndConcurrency(t *testing.T, d deployment) {
	// One pusher: push order is partition order, ids dense from 0.
	one := openTopic(t, d.bus, mofka.TopicConfig{Name: "one", Partitions: 1})
	p := one.NewProducer(mofka.ProducerOptions{BatchSize: 7})
	for i := 0; i < 100; i++ {
		if err := p.Push(mofka.Metadata{"seq": i}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	evs := landed(t, d.bus, "one")[0]
	if len(evs) != 100 {
		t.Fatalf("got %d events, want 100", len(evs))
	}
	for i, ev := range evs {
		if field(t, ev, "seq") != i || ev.ID != uint64(i) {
			t.Fatalf("event %d: seq %d, id %d", i, field(t, ev, "seq"), ev.ID)
		}
	}

	// Many pushers: nothing lost, nothing twice.
	many := openTopic(t, d.bus, mofka.TopicConfig{Name: "many", Partitions: 4})
	mp := many.NewProducer(mofka.ProducerOptions{BatchSize: 16})
	const goroutines, per = 8, 250
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := mp.Push(mofka.Metadata{"n": g*per + i}, nil); err != nil {
					t.Errorf("push: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := mp.Flush(); err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for _, evs := range landed(t, d.bus, "many") {
		for _, ev := range evs {
			n := field(t, ev, "n")
			if seen[n] {
				t.Fatalf("event %d duplicated", n)
			}
			seen[n] = true
		}
	}
	if len(seen) != goroutines*per {
		t.Fatalf("%d distinct events landed, want %d", len(seen), goroutines*per)
	}
}

// The degraded life cycle: OnDegraded exactly once, the backlog bounded by
// dropping (and counting) the oldest batches, the survivors drained in seal
// order once appends work again, OnRecovered exactly once.
func testDegradedBoundRecovery(t *testing.T, d deployment) {
	tp := openTopic(t, d.bus, mofka.TopicConfig{Name: "t", Partitions: 1})
	var degraded, recovered int
	p := tp.NewProducer(mofka.ProducerOptions{
		BatchSize:    1, // every push seals and attempts shipment
		FlushRetries: 1,
		RetryBackoff: time.Microsecond,
		OnDegraded:   func(error) { degraded++ },
		OnRecovered:  func() { recovered++ },
	})
	fault := d.outages[0]
	fault.start(t)
	const pushed, bound = 67, 64
	for i := 0; i < pushed; i++ {
		// Push reports the shipping failure but must not lose the event.
		if err := p.Push(mofka.Metadata{"i": i}, nil); !errors.Is(err, errInjected) {
			t.Fatalf("push %d under fault err = %v, want %v", i, err, errInjected)
		}
	}
	if err := p.Flush(); !errors.Is(err, errInjected) {
		t.Fatalf("flush under fault err = %v, want %v", err, errInjected)
	}
	if p.Dropped() != pushed-bound {
		t.Fatalf("dropped=%d, want %d (%d batches against a backlog bound of %d)", p.Dropped(), pushed-bound, pushed, bound)
	}
	if degraded != 1 || recovered != 0 {
		t.Fatalf("OnDegraded fired %d times, OnRecovered %d, want 1, 0", degraded, recovered)
	}
	if n := count(landed(t, d.bus, "t")); n != 0 {
		t.Fatalf("%d events delivered while faulted", n)
	}

	fault.heal(t)
	if err := p.Flush(); err != nil {
		t.Fatalf("flush after recovery: %v", err)
	}
	if p.Dropped() != pushed-bound {
		t.Fatalf("dropped=%d after recovery", p.Dropped())
	}
	if degraded != 1 || recovered != 1 {
		t.Fatalf("OnDegraded fired %d times, OnRecovered %d, want 1, 1", degraded, recovered)
	}
	evs := landed(t, d.bus, "t")[0]
	if len(evs) != bound {
		t.Fatalf("%d events survived, want the %d newest", len(evs), bound)
	}
	for i, ev := range evs {
		if got := field(t, ev, "i"); got != pushed-bound+i {
			t.Fatalf("survivor %d is event %d, want %d: the newest, in seal order", i, got, pushed-bound+i)
		}
	}
}

// Batches that fail during an outage stay queued and are retried — with the
// same sequence number, across a leadership change where there is one — so
// every event lands exactly once, each partition in push order.
func testOutageNeitherLosesNorDuplicates(t *testing.T, d deployment) {
	for _, o := range d.outages {
		tp := openTopic(t, d.bus, mofka.TopicConfig{Name: o.name, Partitions: 4})
		degraded, recovered := 0, 0
		p := tp.NewProducer(mofka.ProducerOptions{BatchSize: 8, FlushRetries: 1, RetryBackoff: time.Millisecond,
			OnDegraded: func(error) { degraded++ }, OnRecovered: func() { recovered++ }})
		push := func(from, to int) (failed bool) {
			for i := from; i < to; i++ {
				// A shipping error is reported, the event buffered all the same.
				failed = p.Push(mofka.Metadata{"seq": i}, nil) != nil || failed
			}
			return p.Flush() != nil || failed
		}
		if push(0, 100) {
			t.Fatalf("%s: push failed before the outage", o.name)
		}
		o.start(t)
		if !push(100, 200) {
			t.Fatalf("%s: nothing failed during the outage", o.name)
		}
		if degraded != 1 || recovered != 0 {
			t.Fatalf("%s: producer degraded %d times and recovered %d during the outage, want 1, 0", o.name, degraded, recovered)
		}
		o.heal(t)
		if err := p.Close(); err != nil {
			t.Fatalf("%s: close after the outage: %v", o.name, err)
		}
		if recovered != 1 || p.Dropped() != 0 {
			t.Fatalf("%s: recovered=%d dropped=%d after the backlog drained", o.name, recovered, p.Dropped())
		}
		seen := make(map[int]bool)
		for pi, evs := range landed(t, d.bus, o.name) {
			last := -1
			for _, ev := range evs {
				seq := field(t, ev, "seq")
				if seen[seq] {
					t.Fatalf("%s: event %d duplicated", o.name, seq)
				}
				if seq < last {
					t.Fatalf("%s: partition %d holds %d after %d", o.name, pi, seq, last)
				}
				seen[seq], last = true, seq
			}
		}
		if len(seen) != 200 {
			t.Fatalf("%s: %d of 200 events landed", o.name, len(seen))
		}
	}
}
