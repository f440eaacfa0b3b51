package cluster

import (
	"testing"
	"time"

	"taskprov/internal/mofka"
)

// leaderOf returns the current leader of (topic, part).
func leaderOf(t *testing.T, c *Cluster, topic string, part int) int {
	t.Helper()
	for _, pv := range c.placement() {
		if pv.Topic == topic && pv.Partition == part {
			return pv.Leader
		}
	}
	t.Fatalf("no placement for %s[%d]", topic, part)
	return -1
}

func TestFailoverZeroAckedLoss(t *testing.T) {
	c := newTestCluster(t, 3, 3) // RF3 so one loss keeps quorum (2 of 3)
	ct, err := c.EnsureTopic(mofka.TopicConfig{Name: "tasks", Partitions: 3})
	if err != nil {
		t.Fatal(err)
	}
	const n = 300
	p := pushN(t, ct, n, mofka.ProducerOptions{BatchSize: 10})
	defer p.Close()

	before := drainAll(t, c, "tasks", 3)
	if len(before) != n {
		t.Fatalf("pre-crash drain: %d events, want %d", len(before), n)
	}
	victim := leaderOf(t, c, "tasks", 0)
	if err := c.KillBroker(victim); err != nil {
		t.Fatalf("KillBroker: %v", err)
	}

	// Every acknowledged event must survive the leader loss.
	after := drainAll(t, c, "tasks", 3)
	if len(after) != n {
		t.Fatalf("post-crash drain: %d events, want %d (acked loss!)", len(after), n)
	}
	for i := range before {
		if string(before[i].Metadata) != string(after[i].Metadata) {
			t.Fatalf("event %d changed across failover", i)
		}
	}
	// Partitions led by the victim elected a new alive leader with a bumped
	// epoch.
	for _, pv := range c.placement() {
		if pv.Leader == victim {
			t.Errorf("%s[%d] still led by dead node %d", pv.Topic, pv.Partition, victim)
		}
		if pv.Leader >= 0 && !c.nodeAlive(pv.Leader) {
			t.Errorf("%s[%d] led by dead node %d", pv.Topic, pv.Partition, pv.Leader)
		}
	}
	// Health log recorded the death and at least one election.
	var sawDead, sawElect bool
	for _, ev := range c.Events() {
		switch ev.Kind {
		case EventBrokerDead:
			if ev.Node == victim {
				sawDead = true
			}
		case EventLeaderElected:
			sawElect = true
		}
	}
	if !sawDead || !sawElect {
		t.Errorf("health events missing: dead=%v elect=%v (events: %+v)", sawDead, sawElect, c.Events())
	}
}

func TestProducerSurvivesLeaderKillAndRestart(t *testing.T) {
	c := newTestCluster(t, 3, 2) // RF2 quorum 2: a kill makes some partitions unavailable
	ct, err := c.EnsureTopic(mofka.TopicConfig{Name: "tasks", Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	degraded, recovered := 0, 0
	p := ct.NewProducer(mofka.ProducerOptions{
		BatchSize:    8,
		FlushRetries: 1,
		RetryBackoff: time.Millisecond,
		OnDegraded:   func(error) { degraded++ },
		OnRecovered:  func() { recovered++ },
	})

	for i := 0; i < 100; i++ {
		if err := p.Push(mofka.Metadata{"seq": i}, nil); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}

	victim := leaderOf(t, c, "tasks", 0)
	if err := c.KillBroker(victim); err != nil {
		t.Fatal(err)
	}

	// Keep producing through the outage. Partitions whose replica set
	// includes the victim cannot reach quorum 2: their appends fail, the
	// batches stay queued (degraded mode), and Push surfaces the flush
	// error while still buffering the event — so errors are expected and
	// tolerated here, exactly like a workflow running through a broker
	// outage.
	for i := 100; i < 200; i++ {
		p.Push(mofka.Metadata{"seq": i}, nil) //nolint:errcheck
	}
	p.Flush() //nolint:errcheck // expected to fail for under-replicated partitions

	if err := c.RestartBroker(victim); err != nil {
		t.Fatalf("RestartBroker: %v", err)
	}
	// The backlog drains with idempotent retries after the member returns.
	if err := p.Flush(); err != nil {
		t.Fatalf("post-restart flush: %v", err)
	}
	if degraded == 0 || recovered != degraded {
		t.Errorf("producer degraded %d times and recovered %d after restart and successful flush", degraded, recovered)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	evs := drainAll(t, c, "tasks", 4)
	if len(evs) != 200 {
		t.Fatalf("drained %d events, want 200 (no loss, no duplication)", len(evs))
	}
	seen := make(map[int]bool)
	for _, ev := range evs {
		md, err := ev.ParseMetadata()
		if err != nil {
			t.Fatal(err)
		}
		seq := int(md["seq"].(float64))
		if seen[seq] {
			t.Fatalf("event %d duplicated", seq)
		}
		seen[seq] = true
	}
	for i := 0; i < 200; i++ {
		if !seen[i] {
			t.Fatalf("event %d lost", i)
		}
	}
	// The rejoined node resumed its preferred leaderships (rank order is
	// deterministic, so the victim ranks first for the same partitions).
	if got := leaderOf(t, c, "tasks", 0); got != victim {
		t.Errorf("partition 0 led by %d after rejoin, want preferred leader %d", got, victim)
	}
}

func TestDeterministicFailoverTimeline(t *testing.T) {
	run := func() []Event {
		c, err := New(Config{Brokers: 3, ReplicationFactor: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		ct, err := c.EnsureTopic(mofka.TopicConfig{Name: "tasks", Partitions: 4})
		if err != nil {
			t.Fatal(err)
		}
		p := pushN(t, ct, 60, mofka.ProducerOptions{BatchSize: 5})
		c.KillBroker(1)    //nolint:errcheck
		p.Flush()          //nolint:errcheck
		c.RestartBroker(1) //nolint:errcheck
		p.Flush()          //nolint:errcheck
		p.Close()          //nolint:errcheck
		evs := c.Events()
		// Timestamps are wall-clock in this harness; compare structure only.
		for i := range evs {
			evs[i].At = 0
		}
		return evs
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("timeline lengths differ: %d vs %d\nA: %+v\nB: %+v", len(a), len(b), a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("timeline diverges at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestDurableClusterCrashReopen(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Brokers: 3, ReplicationFactor: 2, DataDir: dir}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := c.EnsureTopic(mofka.TopicConfig{Name: "tasks", Partitions: 3})
	if err != nil {
		t.Fatal(err)
	}
	p := pushN(t, ct, 150, mofka.ProducerOptions{BatchSize: 10})
	acked := make(map[int]uint64)
	for pi, evs := range ackedAll(t, c, "tasks", 3) {
		acked[pi] = uint64(len(evs))
	}
	// kill -9: abandon producer and cluster without Close. SyncBatch (the
	// default) means every acknowledged batch is already fsynced.
	_ = p
	_ = c

	rc, err := New(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer rc.Close()
	for pi, evs := range ackedAll(t, rc, "tasks", 3) {
		if n := uint64(len(evs)); n < acked[pi] {
			t.Errorf("tasks[%d]: recovered %d events, acked was %d (durable loss)", pi, n, acked[pi])
		}
	}
	if evs := drainAll(t, rc, "tasks", 3); uint64(len(evs)) < acked[0]+acked[1]+acked[2] {
		t.Fatalf("recovered drain %d < acked total %d", len(evs), acked[0]+acked[1]+acked[2])
	}
	// Replicas were healed to a common prefix on reopen.
	for _, pv := range rc.placement() {
		var lens []uint64
		for _, r := range pv.Replicas {
			b := rc.NodeBroker(r)
			bt, err := b.OpenTopic("tasks")
			if err != nil {
				continue
			}
			bp, err := bt.Partition(pv.Partition)
			if err != nil {
				continue
			}
			lens = append(lens, bp.Length())
		}
		for _, l := range lens {
			if l != pv.Acked {
				t.Errorf("tasks[%d]: replica lengths %v not reconciled to acked %d", pv.Partition, lens, pv.Acked)
			}
		}
	}
	// Reopening with a different shape is rejected, a different effective
	// quorum included (the default for RF2 is 2).
	if _, err := New(Config{Brokers: 4, ReplicationFactor: 2, DataDir: dir}); err == nil {
		t.Error("shape mismatch on reopen accepted")
	}
	if _, err := New(Config{Brokers: 3, ReplicationFactor: 2, Quorum: 1, DataDir: dir}); err == nil {
		t.Error("quorum mismatch on reopen accepted")
	}
}

func TestPostMortemClusterLoad(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Brokers: 3, ReplicationFactor: 2, DataDir: dir}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := c.EnsureTopic(mofka.TopicConfig{Name: "tasks", Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	p := pushN(t, ct, 80, mofka.ProducerOptions{BatchSize: 8})
	p.Close() //nolint:errcheck
	live := drainAll(t, c, "tasks", 2)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	if !IsClusterDir(dir) {
		t.Fatal("IsClusterDir false for a cluster data dir")
	}
	view, err := OpenPostMortem(dir)
	if err != nil {
		t.Fatalf("OpenPostMortem: %v", err)
	}
	vt, err := view.OpenTopic("tasks")
	if err != nil {
		t.Fatal(err)
	}
	if got := vt.Events(); got != uint64(len(live)) {
		t.Fatalf("post-mortem holds %d events, live acked %d", got, len(live))
	}
}
