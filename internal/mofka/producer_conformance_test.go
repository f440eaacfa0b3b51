package mofka_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"taskprov/internal/mofka"
	"taskprov/internal/mofka/cluster"
)

// The producer is one state machine over two sinks. Every case below runs
// against each deployment, through nothing but the Bus both present: what
// batching, partitioning, validation, closing, the bounded backlog and
// degraded mode promise must not depend on where a sealed batch lands.

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
				for _, pv := range c.Placement() {
					if pv.Topic == "leader-kill" && pv.Partition == 0 {
						victim = pv.Leader
					}
				}
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
	{"ValidatorRejectsOnPush", testValidatorRejectsOnPush},
	{"CloseShipsLastBatchThenErrClosed", testCloseShipsLastBatchThenErrClosed},
	{"BackgroundFlusher", testBackgroundFlusher},
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
		if out[i], err = view.Service().Pull(topic, i, 0, 0, true); err != nil {
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

	byBytes := tp.NewProducer(mofka.ProducerOptions{BatchSize: 1000, MaxBatchBytes: 100})
	if err := byBytes.Push(mofka.Metadata{}, make([]byte, 150)); err != nil {
		t.Fatal(err)
	}
	if n := count(landed(t, d.bus, "t")); n != 6 {
		t.Fatalf("events after byte trigger = %d, want 6", n)
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

	custom := tp.NewProducer(mofka.ProducerOptions{
		BatchSize:   1,
		Partitioner: func(meta []byte, n int) int { return n - 1 },
	})
	if err := custom.Push(mofka.Metadata{"a": 1}, nil); err != nil {
		t.Fatal(err)
	}
	if got := landed(t, d.bus, "t"); len(got[3]) != 3 || count(got) != 9 {
		t.Fatalf("custom partitioner: partition 3 holds %d of %d events, want 3 of 9", len(got[3]), count(got))
	}

	bad := tp.NewProducer(mofka.ProducerOptions{Partitioner: func([]byte, int) int { return 7 }})
	if err := bad.Push(mofka.Metadata{}, nil); !errors.Is(err, mofka.ErrNoPartition) {
		t.Fatalf("out-of-range partitioner err = %v, want ErrNoPartition", err)
	}
}

func testValidatorRejectsOnPush(t *testing.T, d deployment) {
	tp := openTopic(t, d.bus, mofka.TopicConfig{
		Name: "validated", Partitions: 1,
		Validator: func(meta []byte) error {
			if len(meta) < 5 {
				return errors.New("too small")
			}
			return nil
		},
	})
	p := tp.NewProducer(mofka.ProducerOptions{})
	if err := p.PushRaw([]byte(`{}`), nil); !errors.Is(err, mofka.ErrInvalidEvent) {
		t.Fatalf("validator not applied: %v", err)
	}
	if err := p.PushRaw([]byte(`{"ok":1}`), nil); err != nil {
		t.Fatalf("valid event rejected: %v", err)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := count(landed(t, d.bus, "validated")); n != 1 {
		t.Fatalf("%d events landed, want the valid one", n)
	}
}

// The final partial batch — events pushed after the last size-triggered
// flush — must be shipped by Close, not abandoned with the producer.
func testCloseShipsLastBatchThenErrClosed(t *testing.T, d deployment) {
	tp := openTopic(t, d.bus, mofka.TopicConfig{Name: "t", Partitions: 1})
	p := tp.NewProducer(mofka.ProducerOptions{BatchSize: 128})
	for i := 0; i < 3; i++ {
		if err := p.Push(mofka.Metadata{"i": i}, []byte("x")); err != nil {
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

func testBackgroundFlusher(t *testing.T, d deployment) {
	tp := openTopic(t, d.bus, mofka.TopicConfig{Name: "t", Partitions: 1})
	p := tp.NewProducer(mofka.ProducerOptions{BatchSize: 1000, FlushInterval: 5 * time.Millisecond})
	defer p.Close()
	if err := p.Push(mofka.Metadata{"x": 1}, nil); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for count(landed(t, d.bus, "t")) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background flusher never shipped the event")
		}
		time.Sleep(time.Millisecond)
	}
}

func testOrderAndConcurrency(t *testing.T, d deployment) {
	// One pusher: push order is partition order, ids dense from 0.
	one := openTopic(t, d.bus, mofka.TopicConfig{Name: "one", Partitions: 1})
	p := one.NewProducer(mofka.ProducerOptions{BatchSize: 7})
	for i := 0; i < 100; i++ {
		if err := p.Push(mofka.Metadata{"seq": i}, []byte(fmt.Sprintf("payload-%d", i))); err != nil {
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
		if field(t, ev, "seq") != i || ev.ID != uint64(i) || string(ev.Data) != fmt.Sprintf("payload-%d", i) {
			t.Fatalf("event %d: seq %d, id %d, data %q", i, field(t, ev, "seq"), ev.ID, ev.Data)
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
				if err := mp.Push(mofka.Metadata{"n": g*per + i}, []byte{byte(i)}); err != nil {
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
		BatchSize:         1, // every push seals and attempts shipment
		FlushRetries:      1,
		RetryBackoff:      time.Microsecond,
		MaxPendingBatches: 2,
		OnDegraded:        func(error) { degraded++ },
		OnRecovered:       func() { recovered++ },
	})
	fault := d.outages[0]
	fault.start(t)
	for i := 0; i < 5; i++ {
		// Push reports the shipping failure but must not lose the event.
		if err := p.Push(mofka.Metadata{"i": i}, []byte("x")); !errors.Is(err, errInjected) {
			t.Fatalf("push %d under fault err = %v, want %v", i, err, errInjected)
		}
	}
	if err := p.Flush(); !errors.Is(err, errInjected) {
		t.Fatalf("flush under fault err = %v, want %v", err, errInjected)
	}
	if p.Dropped() != 3 {
		t.Fatalf("dropped=%d, want 3 (five batches against a backlog bound of 2)", p.Dropped())
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
	if p.Dropped() != 3 {
		t.Fatalf("dropped=%d after recovery", p.Dropped())
	}
	if degraded != 1 || recovered != 1 {
		t.Fatalf("OnDegraded fired %d times, OnRecovered %d, want 1, 1", degraded, recovered)
	}
	evs := landed(t, d.bus, "t")[0]
	if len(evs) != 2 || field(t, evs[0], "i") != 3 || field(t, evs[1], "i") != 4 {
		t.Fatalf("%d events survived, want the 2 newest in seal order", len(evs))
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
				failed = p.Push(mofka.Metadata{"seq": i}, []byte(fmt.Sprintf("d%d", i))) != nil || failed
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
