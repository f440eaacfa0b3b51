package cluster

import (
	"errors"
	"fmt"
	"testing"

	"taskprov/internal/mofka"
)

// appendRaw appends one raw event through the quorum path with the current
// epoch, returning the append error.
func appendRaw(t *testing.T, c *Cluster, topic string, part int, tag string) error {
	t.Helper()
	epoch, err := c.Epoch(topic, part)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Append(topic, part, "", 0, epoch, [][]byte{[]byte(fmt.Sprintf(`{"tag":%q}`, tag))})
	return err
}

func tagsOf(t *testing.T, evs []mofka.Event) []string {
	t.Helper()
	out := make([]string, len(evs))
	for i, ev := range evs {
		md, err := ev.ParseMetadata()
		if err != nil {
			t.Fatal(err)
		}
		out[i] = md["tag"].(string)
	}
	return out
}

// TestRestartDiscardsUnackedDivergentTail: a durable leader dies holding an
// unacknowledged tail (its followers faulted the append), the cluster
// acknowledges different events at the same offsets through the new leader,
// and the old leader restarts. Its resurrected tail is the same length as
// the acknowledged log — length comparison alone cannot spot the divergence
// — yet it ranks first and would win donor selection. The restart must
// truncate the log back to the watermark frozen at death, heal from the
// survivors, and serve only acknowledged events.
func TestRestartDiscardsUnackedDivergentTail(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Brokers: 3, ReplicationFactor: 3, Quorum: 2, DataDir: dir}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.EnsureTopic(mofka.TopicConfig{Name: "t", Partitions: 1}); err != nil {
		t.Fatal(err)
	}
	leader := leaderOf(t, c, "t", 0)

	// Batch A replicates everywhere: acked prefix [A].
	if err := appendRaw(t, c, "t", 0, "A"); err != nil {
		t.Fatalf("append A: %v", err)
	}

	// Followers fault the next append: B lands on the leader's durable log
	// only and is never acknowledged.
	for _, pv := range c.Placement() {
		for _, r := range pv.Replicas {
			if r != leader {
				c.NodeBroker(r).SetAppendFault(func(string, int) error { return errors.New("injected wal fault") })
			}
		}
	}
	if err := appendRaw(t, c, "t", 0, "B"); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("append B: got %v, want ErrUnavailable (quorum failed)", err)
	}
	for i := 0; i < c.Brokers(); i++ {
		if b := c.NodeBroker(i); b != nil {
			b.SetAppendFault(nil)
		}
	}

	// The leader dies with the unacked tail on disk; C is acknowledged at
	// the same offset through the new leader.
	if err := c.KillBroker(leader); err != nil {
		t.Fatal(err)
	}
	if err := appendRaw(t, c, "t", 0, "C"); err != nil {
		t.Fatalf("append C after failover: %v", err)
	}
	want := []string{"A", "C"}

	if err := c.RestartBroker(leader); err != nil {
		t.Fatalf("RestartBroker: %v", err)
	}
	// The preferred leader resumed leading — with the healed log, not the
	// resurrected tail.
	if got := leaderOf(t, c, "t", 0); got != leader {
		t.Fatalf("leader after restart = %d, want preferred %d", got, leader)
	}
	got := tagsOf(t, drainAll(t, c, "t", 1))
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("acked stream after restart = %v, want %v (acked event shadowed by unacked tail)", got, want)
	}
	// Every replica converged on the acknowledged prefix — including the
	// restarted node's durable log.
	for _, pv := range c.Placement() {
		for _, r := range pv.Replicas {
			evs, err := c.NodeBroker(r).Service().Pull("t", 0, 0, 16)
			if err != nil {
				t.Fatal(err)
			}
			if rt := tagsOf(t, evs); fmt.Sprint(rt) != fmt.Sprint(want) {
				t.Fatalf("node %d log = %v, want %v", r, rt, want)
			}
		}
	}
	// The truncation is visible in the health timeline.
	var sawTrunc bool
	for _, ev := range c.Events() {
		if ev.Kind == EventLogTruncated && ev.Node == leader {
			sawTrunc = true
		}
	}
	if !sawTrunc {
		t.Fatalf("no %s event for node %d (events: %+v)", EventLogTruncated, leader, c.Events())
	}

	// The discard is durable: a full reopen cannot resurrect B either.
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	rc, err := New(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer rc.Close()
	if got := tagsOf(t, drainAll(t, rc, "t", 1)); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("acked stream after reopen = %v, want %v", got, want)
	}
}

// probeFailService wraps a replica's log service so its length probe can be
// made to fail, simulating a transient RPC error against a remote member.
type probeFailService struct {
	mofka.Service
	fail *bool
}

func (p probeFailService) PartitionLength(topic string, part int) (uint64, error) {
	if *p.fail {
		return 0, errors.New("injected probe failure")
	}
	return p.Service.PartitionLength(topic, part)
}

// TestElectSkipsUnprobeableReplica: a replica whose length probe fails
// during an election must be excluded from leadership and healing for that
// round — treating the failed probe as length 0 used to re-append the whole
// prefix onto data the replica already holds.
func TestElectSkipsUnprobeableReplica(t *testing.T) {
	c := newTestCluster(t, 3, 3)
	ct, err := c.EnsureTopic(mofka.TopicConfig{Name: "t", Partitions: 1})
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	p := pushN(t, ct, n, mofka.ProducerOptions{BatchSize: 5})
	defer p.Close()

	var replicas []int
	for _, pv := range c.Placement() {
		replicas = pv.Replicas
	}
	leader, second, third := replicas[0], replicas[1], replicas[2]

	// The next-preferred replica stops answering length probes, then the
	// leader dies.
	fail := true
	c.mu.Lock()
	c.nodes[second].rep.Service = probeFailService{c.nodes[second].rep.Service, &fail}
	c.mu.Unlock()
	if err := c.KillBroker(leader); err != nil {
		t.Fatal(err)
	}

	// Leadership skipped the unprobeable replica.
	if got := leaderOf(t, c, "t", 0); got != third {
		t.Fatalf("leader = %d, want %d (unprobeable %d must be skipped)", got, third, second)
	}
	// And no duplicate healing was applied to it.
	bt, err := c.NodeBroker(second).OpenTopic("t")
	if err != nil {
		t.Fatal(err)
	}
	bp, err := bt.Partition(0)
	if err != nil {
		t.Fatal(err)
	}
	if got := bp.Length(); got != n {
		t.Fatalf("unprobeable replica holds %d events, want %d (duplicated heal)", got, n)
	}

	// Once the probe recovers, appends flow and the replica stays in
	// lockstep without duplication.
	fail = false
	if err := appendRaw(t, c, "t", 0, "after"); err != nil {
		t.Fatalf("append after probe recovery: %v", err)
	}
	if got := bp.Length(); got != n+1 {
		t.Fatalf("replica holds %d events after recovery, want %d", got, n+1)
	}
	if evs := drainAll(t, c, "t", 1); len(evs) != n+1 {
		t.Fatalf("acked drain %d events, want %d", len(evs), n+1)
	}
}
