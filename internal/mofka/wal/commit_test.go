package wal_test

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"taskprov/internal/mofka"
	"taskprov/internal/mofka/cluster"
	"taskprov/internal/mofka/wal"
)

// The commit contract of a log that fsyncs per batch, driven through the
// fsync seam: nothing is visible, counted or acknowledged before an fsync
// covering it has returned. These live here, not beside the partition and the
// producer they exercise, because the seam is this package's and stays
// unexported.

// fsyncGate stands in for the fsync of segment files: it counts them, and
// can hold every one back until released or fail them — all of them, or
// those of the files under one path. A held fsync fails or not as the gate
// says when it is released.
type fsyncGate struct {
	calls   atomic.Int64
	entered chan struct{} // one token per fsync that found the gate shut

	mu     sync.Mutex
	shut   chan struct{} // non-nil while held; closed by release
	err    error
	failIn string // the path fragment err is confined to; "" for every file
}

func newFsyncGate(t *testing.T) *fsyncGate {
	// Far more tokens than any test here has fsyncs in flight.
	g := &fsyncGate{entered: make(chan struct{}, 1024)}
	t.Cleanup(wal.SetFsync(func(f *os.File) error {
		g.calls.Add(1)
		g.mu.Lock()
		shut := g.shut
		g.mu.Unlock()
		if shut != nil {
			g.entered <- struct{}{}
			<-shut
		}
		g.mu.Lock()
		err := g.err
		if !strings.Contains(f.Name(), g.failIn) {
			err = nil
		}
		g.mu.Unlock()
		if err != nil {
			return err
		}
		return f.Sync()
	}))
	return g
}

// hold shuts the gate until release. A test that ends with it shut releases
// it on the way out, so that whatever its cleanups close can commit.
func (g *fsyncGate) hold(t *testing.T) {
	g.mu.Lock()
	g.shut = make(chan struct{})
	g.mu.Unlock()
	t.Cleanup(g.release)
}

func (g *fsyncGate) release() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.shut != nil {
		close(g.shut)
		g.shut = nil
	}
}

func (g *fsyncGate) failWith(err error) { g.failUnder(err, "") }

// failUnder fails with err the fsyncs of the files whose path contains in.
func (g *fsyncGate) failUnder(err error, in string) {
	g.mu.Lock()
	g.err, g.failIn = err, in
	g.mu.Unlock()
}

// awaitEntered waits for n fsyncs to be blocked at the gate.
func (g *fsyncGate) awaitEntered(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-g.entered:
		case <-time.After(10 * time.Second):
			t.Fatalf("fsync %d of %d never started", i+1, n)
		}
	}
}

// stillBlocked fails the test if done is closed: the call it watches must
// not return while the fsync it depends on is held. The grace period only
// makes a wrong implementation likelier to be caught; a right one can never
// trip it.
func stillBlocked(t *testing.T, what string, done <-chan struct{}) {
	t.Helper()
	select {
	case <-done:
		t.Fatalf("%s returned before the fsync covering it", what)
	case <-time.After(20 * time.Millisecond):
	}
}

func awaitDone(t *testing.T, what string, done <-chan struct{}) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s still blocked after 10 s", what)
	}
}

// tagged is one event's metadata: who submitted it and its rank there.
func tagged(who string, i int) []byte {
	return []byte(fmt.Sprintf(`{"who":%q,"i":%d}`, who, i))
}

func durableTopic(t *testing.T, dir, name string) (*mofka.Broker, *mofka.Topic) {
	t.Helper()
	b, err := mofka.NewDurableBroker(mofka.Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	tp, err := b.CreateTopic(mofka.TopicConfig{Name: name})
	if err != nil {
		t.Fatal(err)
	}
	return b, tp
}

// checkStream asserts that evs carry dense offsets from 0 and that each
// submitter's events appear in the order it submitted them.
func checkStream(t *testing.T, evs []mofka.Event) {
	t.Helper()
	next := map[string]int{}
	for i, ev := range evs {
		if ev.ID != uint64(i) {
			t.Fatalf("event %d has offset %d: offsets not dense", i, ev.ID)
		}
		md, err := ev.ParseMetadata()
		if err != nil {
			t.Fatal(err)
		}
		who, rank := md["who"].(string), int(md["i"].(float64))
		if rank != next[who] {
			t.Fatalf("offset %d is %s's event %d, want its event %d", i, who, rank, next[who])
		}
		next[who]++
	}
}

func TestCommitWaitsForFsync(t *testing.T) {
	g := newFsyncGate(t)
	b, tp := durableTopic(t, t.TempDir(), "t")
	defer b.Close()
	part, err := tp.Partition(0)
	if err != nil {
		t.Fatal(err)
	}
	cons, err := tp.NewConsumer(mofka.ConsumerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	invisible := func(when string) {
		t.Helper()
		if n := part.Length(); n != 0 {
			t.Fatalf("%s: Length = %d before any fsync returned", when, n)
		}
		if evs, err := cons.PullBatch(100); err != nil || len(evs) != 0 {
			t.Fatalf("%s: pulled %d events (%v) before any fsync returned", when, len(evs), err)
		}
	}

	g.hold(t)
	batches := 0

	// A size-triggered ship submits and moves on; Flush is where the
	// producer waits.
	prod := tp.NewProducer(mofka.ProducerOptions{BatchSize: 4})
	for i := 0; i < 4; i++ {
		if err := prod.PushRaw(tagged("producer", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	batches++
	g.awaitEntered(t, 1)
	invisible("after the producer shipped")
	flushed := make(chan struct{})
	var flushErr error
	go func() { defer close(flushed); flushErr = prod.Flush() }()
	stillBlocked(t, "Producer.Flush", flushed)

	// A push through the log service is submit plus wait.
	pushed := make(chan struct{})
	var pushErr error
	go func() {
		defer close(pushed)
		pushErr = b.Service().PushBatch("t", 0, [][]byte{tagged("service", 0), tagged("service", 1)})
	}()
	stillBlocked(t, "Service.PushBatch", pushed)
	batches++

	// Submits return until the partition holds its bound of staged batches —
	// eight; the bound is not configurable, so it is spelled here — and the
	// next one blocks.
	direct := 0
	for ; batches < 8; batches++ {
		if _, err := part.Submit([][]byte{tagged("direct", direct)}); err != nil {
			t.Fatal(err)
		}
		direct++
	}
	overBound := make(chan struct{})
	var overErr error
	go func(meta []byte) {
		defer close(overBound)
		var c *mofka.Commit
		if c, overErr = part.Submit([][]byte{meta}); overErr == nil {
			overErr = c.Wait()
		}
	}(tagged("direct", direct))
	stillBlocked(t, "the submit past the staging bound", overBound)
	batches++
	direct++
	invisible("with the partition staged to its bound")

	g.release()
	awaitDone(t, "Producer.Flush", flushed)
	awaitDone(t, "Service.PushBatch", pushed)
	awaitDone(t, "the submit past the staging bound", overBound)
	if flushErr != nil || pushErr != nil || overErr != nil {
		t.Fatalf("after release: Flush %v, PushBatch %v, Submit %v", flushErr, pushErr, overErr)
	}
	want := 4 + 2 + direct
	if n := part.Length(); n != uint64(want) {
		t.Fatalf("Length = %d after release, want %d", n, want)
	}
	evs, err := cons.Drain()
	if err != nil || len(evs) != want {
		t.Fatalf("drained %d events (%v), want %d", len(evs), err, want)
	}
	checkStream(t, evs)
	if calls := int(g.calls.Load()); calls >= batches {
		t.Fatalf("%d fsyncs for %d batches: the staged ones did not share", calls, batches)
	}
}

// TestWaitShippedSealsNothing: Producer.WaitShipped — what a session waits on
// before its live monitor sweeps — returns once the batches shipped so far
// are visible, and leaves the open batch open.
func TestWaitShippedSealsNothing(t *testing.T) {
	g := newFsyncGate(t)
	b, tp := durableTopic(t, t.TempDir(), "t")
	defer b.Close()
	part, err := tp.Partition(0)
	if err != nil {
		t.Fatal(err)
	}
	g.hold(t)
	prod := tp.NewProducer(mofka.ProducerOptions{BatchSize: 4})
	for i := 0; i < 6; i++ { // one batch ships, two events stay open
		if err := prod.PushRaw(tagged("producer", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	g.awaitEntered(t, 1)
	waited := make(chan struct{})
	var waitErr error
	go func() { defer close(waited); waitErr = prod.WaitShipped() }()
	stillBlocked(t, "Producer.WaitShipped", waited)
	g.release()
	awaitDone(t, "Producer.WaitShipped", waited)
	if n := part.Length(); waitErr != nil || n != 4 {
		t.Fatalf("WaitShipped: %v, then Length = %d, want the shipped batch's 4", waitErr, n)
	}
	if err := prod.Flush(); err != nil || part.Length() != 6 {
		t.Fatalf("Flush: %v, then Length = %d, want 6", err, part.Length())
	}
}

func TestFailedFsyncPoisonsLog(t *testing.T) {
	g := newFsyncGate(t)
	dir := t.TempDir()
	b, tp := durableTopic(t, dir, "t")
	part, err := tp.Partition(0)
	if err != nil {
		t.Fatal(err)
	}
	prod := tp.NewProducer(mofka.ProducerOptions{BatchSize: 2, FlushRetries: 2, RetryBackoff: time.Microsecond})
	push := func(from, n int) {
		t.Helper()
		for i := from; i < from+n; i++ {
			// A refused ship reports its error here as well as in Flush.
			_ = prod.PushRaw(tagged("producer", i), nil)
		}
	}
	push(0, 4)
	if err := prod.Flush(); err != nil {
		t.Fatal(err)
	}
	const visible = 4

	boom := errors.New("injected fsync failure")
	g.failWith(boom)
	push(visible, 2)
	if err := prod.Flush(); !errors.Is(err, boom) {
		t.Fatalf("Flush over a failed fsync = %v, want the injected error", err)
	}
	if n := part.Length(); n != visible {
		t.Fatalf("Length = %d after a failed fsync, want %d: part of the failed group is visible", n, visible)
	}

	// The log has lost track of what is on disk: it takes nothing more, from
	// the producer's retries or from anyone else, even once fsyncs work again.
	g.failWith(nil)
	push(visible+2, 2)
	if err := prod.Flush(); !errors.Is(err, boom) {
		t.Fatalf("Flush after the log was poisoned = %v, want the injected error", err)
	}
	if err := part.Append([][]byte{tagged("direct", 0)}, nil); !errors.Is(err, boom) {
		t.Fatalf("Append after the log was poisoned = %v, want the injected error", err)
	}
	if n := part.Length(); n != visible {
		t.Fatalf("Length = %d, want %d", n, visible)
	}
	if err := b.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close of a broker with a poisoned log = %v, want the injected error", err)
	}

	// What the file holds is a superset of what was visible, each frame once:
	// the failed group may have reached the disk, a second copy of it must
	// not have been written behind it.
	pm, err := mofka.OpenPostMortem(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer pm.Close()
	pt, err := pm.OpenTopic("t")
	if err != nil {
		t.Fatal(err)
	}
	cons, err := pt.NewConsumer(mofka.ConsumerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	evs, err := cons.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) < visible {
		t.Fatalf("post-mortem serves %d events, %d were visible", len(evs), visible)
	}
	checkStream(t, evs) // the producer's events in order, none twice
}

// durableCluster is a 3-broker RF2 cluster in dir, closed when the test
// ends, with one single-partition topic, and that partition's follower.
func durableCluster(t *testing.T, dir string) (*cluster.Cluster, *cluster.ClusterTopic, int) {
	t.Helper()
	c, err := cluster.New(cluster.Config{Brokers: 3, ReplicationFactor: 2, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	ct, err := c.EnsureTopic(mofka.TopicConfig{Name: "t"})
	if err != nil {
		t.Fatal(err)
	}
	return c, ct, c.Placement()[0].Replicas[1]
}

// unacknowledged fails the test if the cluster acknowledges any event of t.
func unacknowledged(t *testing.T, c *cluster.Cluster, when string) {
	t.Helper()
	if n, err := c.Length("t", 0); err != nil || n != 0 {
		t.Fatalf("%s: Cluster.Length = %d (%v), want 0", when, n, err)
	}
	if evs, err := c.Read("t", 0, 0, 100); err != nil || len(evs) != 0 {
		t.Fatalf("%s: Cluster.Read = %d events (%v), want none", when, len(evs), err)
	}
}

// TestQuorumAckIsPipelined: a producer on a durable cluster ships a batch
// while the ones before it await their quorum. With every fsync held, the
// size-triggered ships return, the cluster acknowledges none of them and
// Flush blocks; once the fsyncs return, every event is acknowledged, in
// order, none twice.
func TestQuorumAckIsPipelined(t *testing.T) {
	g := newFsyncGate(t)
	c, ct, _ := durableCluster(t, t.TempDir())
	prod := ct.NewProducer(mofka.ProducerOptions{BatchSize: 2})

	g.hold(t)
	const ships = 3
	shipped := make(chan struct{})
	var shipErr error
	go func() {
		defer close(shipped)
		for i := 0; i < 2*ships && shipErr == nil; i++ {
			shipErr = prod.PushRaw(tagged("producer", i), nil)
		}
	}()
	// Leader and follower are both in their fsync of the first batch.
	g.awaitEntered(t, 2)
	awaitDone(t, "the ships behind a held fsync", shipped)
	if shipErr != nil {
		t.Fatal(shipErr)
	}
	unacknowledged(t, c, "with the fsyncs held")
	flushed := make(chan struct{})
	var flushErr error
	go func() { defer close(flushed); flushErr = prod.Flush() }()
	stillBlocked(t, "Producer.Flush", flushed)
	unacknowledged(t, c, "with Flush waiting")

	g.release()
	awaitDone(t, "Producer.Flush", flushed)
	if flushErr != nil {
		t.Fatal(flushErr)
	}
	if n, err := c.Length("t", 0); err != nil || n != 2*ships {
		t.Fatalf("Cluster.Length = %d (%v) after Flush, want %d", n, err, 2*ships)
	}
	evs, err := c.Read("t", 0, 0, 100)
	if err != nil || len(evs) != 2*ships {
		t.Fatalf("Cluster.Read = %d events (%v), want %d", len(evs), err, 2*ships)
	}
	checkStream(t, evs)
}

// TestKillSettlesInFlightQuorum: a kill waits out the quorum appends in
// flight before it freezes the dead replica's trusted prefix and re-elects,
// so killing the follower while its fsyncs are held heals nothing — there is
// no catch-up — and every batch that settled is served post-mortem.
func TestKillSettlesInFlightQuorum(t *testing.T) {
	g := newFsyncGate(t)
	dir := t.TempDir()
	c, ct, follower := durableCluster(t, dir)
	prod := ct.NewProducer(mofka.ProducerOptions{BatchSize: 2})

	g.hold(t)
	const events = 6
	for i := 0; i < events; i++ {
		if err := prod.PushRaw(tagged("producer", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	g.awaitEntered(t, 2)
	killed := make(chan struct{})
	var killErr error
	go func() { defer close(killed); killErr = c.KillBroker(follower) }()
	stillBlocked(t, "KillBroker", killed)
	g.release()
	awaitDone(t, "KillBroker", killed)
	if killErr != nil {
		t.Fatal(killErr)
	}
	// Everything shipped settled before the kill: acknowledged by both.
	if err := prod.Flush(); err != nil {
		t.Fatalf("Flush of the batches the kill found in flight: %v", err)
	}
	acked, err := c.Length("t", 0)
	if err != nil || acked != events {
		t.Fatalf("Cluster.Length = %d (%v), want %d", acked, err, events)
	}
	for _, ev := range c.Events() {
		if ev.Kind == cluster.EventCatchUp {
			t.Fatalf("the kill healed a replica: %+v", ev)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	pm, err := cluster.OpenPostMortem(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer pm.Close()
	pt, err := pm.OpenTopic("t")
	if err != nil {
		t.Fatal(err)
	}
	cons, err := pt.NewConsumer(mofka.ConsumerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	evs, err := cons.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(evs)) < acked {
		t.Fatalf("post-mortem serves %d events, %d were acknowledged", len(evs), acked)
	}
	checkStream(t, evs)
}

// TestFailedFollowerFsyncFailsQuorum: a follower fsync that was held and
// then failed fails the quorum appends it covers — Flush returns the
// failure, the cluster never acknowledges their events — and the next append
// finds the follower's log refusing it: under-replicated.
func TestFailedFollowerFsyncFailsQuorum(t *testing.T) {
	g := newFsyncGate(t)
	c, ct, follower := durableCluster(t, t.TempDir())
	prod := ct.NewProducer(mofka.ProducerOptions{BatchSize: 2, FlushRetries: 1, RetryBackoff: time.Microsecond})

	g.hold(t)
	for i := 0; i < 2; i++ {
		if err := prod.PushRaw(tagged("producer", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	g.awaitEntered(t, 2)
	boom := errors.New("injected follower fsync failure")
	g.failUnder(boom, fmt.Sprintf("node-%02d%c", follower, os.PathSeparator))
	g.release()
	if err := prod.Flush(); !errors.Is(err, boom) {
		t.Fatalf("Flush over a failed follower fsync = %v, want the injected error", err)
	}
	unacknowledged(t, c, "after the failed fsync")

	for i := 2; i < 4; i++ {
		err := prod.PushRaw(tagged("producer", i), nil)
		if i == 3 && !errors.Is(err, cluster.ErrUnavailable) {
			t.Fatalf("the append after the failure = %v, want ErrUnavailable", err)
		}
	}
	unacknowledged(t, c, "after the next append")
	for _, ev := range c.Events() {
		if ev.Kind == cluster.EventUnderReplicated && ev.Topic == "t" {
			return
		}
	}
	t.Fatalf("no %s event after the follower's log was poisoned: %+v", cluster.EventUnderReplicated, c.Events())
}

// TestConcurrentPushBatchKeepsOrder: eight callers on one durable partition,
// each seeing its own batches land in the order it pushed them, the
// partition's offsets dense. Run under -race.
func TestConcurrentPushBatchKeepsOrder(t *testing.T) {
	const callers, each = 8, 40
	b, tp := durableTopic(t, t.TempDir(), "t")
	defer b.Close()
	svc := b.Service()
	var wg sync.WaitGroup
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func(who string) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := svc.PushBatch("t", 0, [][]byte{tagged(who, i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(fmt.Sprintf("caller-%d", w))
	}
	wg.Wait()
	cons, err := tp.NewConsumer(mofka.ConsumerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	evs, err := cons.Drain()
	if err != nil || len(evs) != callers*each {
		t.Fatalf("drained %d events (%v), want %d", len(evs), err, callers*each)
	}
	checkStream(t, evs)
}
