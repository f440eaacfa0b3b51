package wal_test

import (
	"errors"
	"fmt"
	"os"
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
// can hold every one back until released or fail them.
type fsyncGate struct {
	calls   atomic.Int64
	entered chan struct{} // one token per fsync that found the gate shut

	mu   sync.Mutex
	shut chan struct{} // non-nil while held; closed by release
	err  error
}

func newFsyncGate(t *testing.T) *fsyncGate {
	// Far more tokens than any test here has fsyncs in flight.
	g := &fsyncGate{entered: make(chan struct{}, 1024)}
	t.Cleanup(wal.SetFsync(func(f *os.File) error {
		g.calls.Add(1)
		g.mu.Lock()
		shut, err := g.shut, g.err
		g.mu.Unlock()
		if shut != nil {
			g.entered <- struct{}{}
			<-shut
		}
		if err != nil {
			return err
		}
		return f.Sync()
	}))
	return g
}

func (g *fsyncGate) hold() {
	g.mu.Lock()
	g.shut = make(chan struct{})
	g.mu.Unlock()
}

func (g *fsyncGate) release() {
	g.mu.Lock()
	close(g.shut)
	g.shut = nil
	g.mu.Unlock()
}

func (g *fsyncGate) failWith(err error) {
	g.mu.Lock()
	g.err = err
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
		t.Fatalf("%s still blocked after the fsync was released", what)
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

	g.hold()
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
		pushErr = b.Service().PushBatch("t", 0, [][]byte{tagged("service", 0), tagged("service", 1)}, [][]byte{nil, nil})
	}()
	stillBlocked(t, "Service.PushBatch", pushed)
	batches++

	// Submits return until the partition holds its bound of staged batches —
	// eight; the bound is not configurable, so it is spelled here — and the
	// next one blocks.
	direct := 0
	for ; batches < 8; batches++ {
		if _, err := part.Submit([][]byte{tagged("direct", direct)}, [][]byte{nil}); err != nil {
			t.Fatal(err)
		}
		direct++
	}
	overBound := make(chan struct{})
	var overErr error
	go func(meta []byte) {
		defer close(overBound)
		var c *mofka.Commit
		if c, overErr = part.Submit([][]byte{meta}, [][]byte{nil}); overErr == nil {
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
	if err := part.Append([][]byte{tagged("direct", 0)}, [][]byte{nil}); !errors.Is(err, boom) {
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

// TestQuorumAppendOverlapsReplicaFsyncs: a quorum append is acknowledged, and
// counted, only after the fsyncs of its replicas returned — and those run
// side by side, each on its own broker's committer.
func TestQuorumAppendOverlapsReplicaFsyncs(t *testing.T) {
	g := newFsyncGate(t)
	c, err := cluster.New(cluster.Config{Brokers: 3, ReplicationFactor: 2, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ct, err := c.EnsureTopic(mofka.TopicConfig{Name: "t"})
	if err != nil {
		t.Fatal(err)
	}
	prod := ct.NewProducer(mofka.ProducerOptions{BatchSize: 2})

	g.hold()
	acked := make(chan struct{})
	var ackErr error
	go func() {
		defer close(acked)
		for i := 0; i < 2 && ackErr == nil; i++ {
			ackErr = prod.PushRaw(tagged("producer", i), nil)
		}
	}()
	// Leader and follower are both in their fsync before either returns.
	g.awaitEntered(t, 2)
	stillBlocked(t, "the quorum append", acked)
	for node := 0; node < 3; node++ {
		nt, err := c.NodeBroker(node).OpenTopic("t")
		if err != nil {
			t.Fatal(err)
		}
		if n := nt.Events(); n != 0 {
			t.Fatalf("node %d counts %d events before its fsync returned", node, n)
		}
	}
	// (Cluster.Length and Read wait for the append itself: they take the
	// partition's replication lock, which the append holds until its replicas
	// have committed.)
	g.release()
	awaitDone(t, "the quorum append", acked)
	if ackErr != nil {
		t.Fatal(ackErr)
	}
	if n, err := c.Length("t", 0); err != nil || n != 2 {
		t.Fatalf("Cluster.Length = %d (%v) after the quorum append, want 2", n, err)
	}
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
				if err := svc.PushBatch("t", 0, [][]byte{tagged(who, i)}, [][]byte{nil}); err != nil {
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
