package cluster

import (
	"errors"
	"fmt"
	"testing"

	"taskprov/internal/mofka"
)

// appendRaw appends one raw event through the quorum path, returning the
// append error.
func appendRaw(t *testing.T, c *Cluster, topic string, part int, tag string) error {
	t.Helper()
	return c.submitWait(topic, part, "", 0, [][]byte{[]byte(fmt.Sprintf(`{"tag":%q}`, tag))})
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
	for _, pv := range c.placement() {
		for _, r := range pv.Replicas {
			if r != leader {
				c.NodeBroker(r).SetAppendFault(func(string, int) error { return errors.New("injected wal fault") })
			}
		}
	}
	if err := appendRaw(t, c, "t", 0, "B"); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("append B: got %v, want ErrUnavailable (quorum failed)", err)
	}
	for i := 0; i < cfg.Brokers; i++ {
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
	for _, pv := range c.placement() {
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
