package cluster

import (
	"errors"
	"fmt"
	"testing"

	"taskprov/internal/mofka"
)

func newTestCluster(t *testing.T, brokers, rf int) *Cluster {
	t.Helper()
	c, err := New(Config{Brokers: brokers, ReplicationFactor: rf})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func pushN(t *testing.T, ct *ClusterTopic, n int, opts mofka.ProducerOptions) *mofka.Producer {
	t.Helper()
	p := ct.NewProducer(opts)
	for i := 0; i < n; i++ {
		if err := p.Push(mofka.Metadata{"i": i}, []byte(fmt.Sprintf("payload-%d", i))); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	return p
}

// drainAll reads every acknowledged event of every partition.
func drainAll(t *testing.T, c *Cluster, topic string, parts int) []mofka.Event {
	t.Helper()
	var out []mofka.Event
	for pi := 0; pi < parts; pi++ {
		var from uint64
		for {
			evs, err := c.Read(topic, pi, from, 1024, true)
			if err != nil {
				t.Fatalf("read %s[%d]: %v", topic, pi, err)
			}
			if len(evs) == 0 {
				break
			}
			out = append(out, evs...)
			from += uint64(len(evs))
		}
	}
	return out
}

func TestConfigValidate(t *testing.T) {
	cases := []Config{
		{Brokers: -1},
		{Brokers: 65},
		{Brokers: 3, ReplicationFactor: -2},
		{Brokers: 3, ReplicationFactor: 4},
		{Brokers: 3, ReplicationFactor: 2, Quorum: 3},
		{Brokers: 2, Quorum: -1},
	}
	for i, cfg := range cases {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d (%+v): expected validation error", i, cfg)
		}
	}
	good := Config{Brokers: 3, ReplicationFactor: 2, Quorum: 2}
	if err := good.Validate(); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
}

func TestPlacementDeterministicAndSpread(t *testing.T) {
	const nodes, rf, parts = 5, 3, 64
	counts := make(map[int]int)
	for pi := 0; pi < parts; pi++ {
		a := replicaSet("provenance-tasks", pi, nodes, rf)
		b := replicaSet("provenance-tasks", pi, nodes, rf)
		if len(a) != rf {
			t.Fatalf("partition %d: replica set size %d, want %d", pi, len(a), rf)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("partition %d: placement not deterministic: %v vs %v", pi, a, b)
			}
		}
		seen := make(map[int]bool)
		for _, n := range a {
			if n < 0 || n >= nodes {
				t.Fatalf("partition %d: node %d out of range", pi, n)
			}
			if seen[n] {
				t.Fatalf("partition %d: duplicate node %d in replica set %v", pi, n, a)
			}
			seen[n] = true
			counts[n]++
		}
	}
	// Rendezvous hashing spreads 64*3 replicas over 5 nodes; every node
	// should host a meaningful share (loose bound: at least half the mean).
	mean := parts * rf / nodes
	for n := 0; n < nodes; n++ {
		if counts[n] < mean/2 {
			t.Errorf("node %d hosts %d replicas, suspiciously few (mean %d)", n, counts[n], mean)
		}
	}
}

func TestQuorumAppendAndAckedRead(t *testing.T) {
	c := newTestCluster(t, 3, 2)
	ct, err := c.EnsureTopic(mofka.TopicConfig{Name: "tasks", Partitions: 4})
	if err != nil {
		t.Fatalf("EnsureTopic: %v", err)
	}
	const n = 200
	p := pushN(t, ct, n, mofka.ProducerOptions{BatchSize: 16})
	defer p.Close()

	evs := drainAll(t, c, "tasks", 4)
	if len(evs) != n {
		t.Fatalf("drained %d events, want %d", len(evs), n)
	}
	// Every partition's acknowledged prefix must exist on at least quorum
	// replicas, byte-identical.
	for _, pv := range c.Placement() {
		copies := 0
		for _, r := range pv.Replicas {
			b := c.NodeBroker(r)
			bt, err := b.OpenTopic("tasks")
			if err != nil {
				continue
			}
			bp, err := bt.Partition(pv.Partition)
			if err != nil {
				continue
			}
			if bp.Length() >= pv.Acked {
				copies++
			}
		}
		if copies < 2 {
			t.Errorf("tasks[%d]: acked prefix on %d replicas, want >= quorum 2", pv.Partition, copies)
		}
	}
	// Non-replica nodes stay empty for the partition.
	for _, pv := range c.Placement() {
		inSet := make(map[int]bool)
		for _, r := range pv.Replicas {
			inSet[r] = true
		}
		for nid := 0; nid < 3; nid++ {
			if inSet[nid] {
				continue
			}
			b := c.NodeBroker(nid)
			bt, err := b.OpenTopic("tasks")
			if err != nil {
				continue
			}
			bp, err := bt.Partition(pv.Partition)
			if err != nil {
				continue
			}
			if l := bp.Length(); l != 0 {
				t.Errorf("tasks[%d]: non-replica node %d holds %d events", pv.Partition, nid, l)
			}
		}
	}
}

func TestIdempotentAppendDedup(t *testing.T) {
	c := newTestCluster(t, 3, 2)
	if _, err := c.EnsureTopic(mofka.TopicConfig{Name: "t", Partitions: 1}); err != nil {
		t.Fatal(err)
	}
	metas := [][]byte{[]byte(`{"a":1}`), []byte(`{"a":2}`)}
	datas := [][]byte{[]byte("x"), []byte("y")}
	epoch, err := c.Append("t", 0, "prod-1", 1, 1, metas, datas)
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	// Retry the same (producer, seq): must be acknowledged without growing
	// the log.
	if _, err := c.Append("t", 0, "prod-1", 1, epoch, metas, datas); err != nil {
		t.Fatalf("retry append: %v", err)
	}
	n, err := c.Length("t", 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("length %d after idempotent retry, want 2", n)
	}
}

func TestAppendFencing(t *testing.T) {
	c := newTestCluster(t, 3, 2)
	if _, err := c.EnsureTopic(mofka.TopicConfig{Name: "t", Partitions: 1}); err != nil {
		t.Fatal(err)
	}
	_, err := c.Append("t", 0, "p", 1, 99, [][]byte{[]byte(`{}`)}, [][]byte{nil})
	if !errors.Is(err, ErrFenced) {
		t.Fatalf("stale epoch append: err=%v, want ErrFenced", err)
	}
}

func TestEnsureTopicValidation(t *testing.T) {
	c := newTestCluster(t, 3, 2)
	if _, err := c.EnsureTopic(mofka.TopicConfig{Name: "bad", Partitions: -3}); err == nil {
		t.Error("negative partition count accepted")
	}
	if _, err := c.EnsureTopic(mofka.TopicConfig{Name: "bad", Partitions: mofka.MaxPartitions + 1}); err == nil {
		t.Error("absurd partition count accepted")
	}
	if _, err := c.EnsureTopic(mofka.TopicConfig{Name: ""}); err == nil {
		t.Error("empty topic name accepted")
	}
	if _, err := c.EnsureTopic(mofka.TopicConfig{Name: "ok", Partitions: 2}); err != nil {
		t.Errorf("valid topic rejected: %v", err)
	}
	// Conflicting partition count on re-ensure is rejected.
	if _, err := c.EnsureTopic(mofka.TopicConfig{Name: "ok", Partitions: 5}); err == nil {
		t.Error("conflicting partition count accepted")
	}
}

func TestReadViewMatchesCluster(t *testing.T) {
	c := newTestCluster(t, 3, 2)
	ct, err := c.EnsureTopic(mofka.TopicConfig{Name: "tasks", Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	p := pushN(t, ct, 50, mofka.ProducerOptions{BatchSize: 8})
	defer p.Close()
	if err := c.CommitCursor("grp", "tasks", 1, 7); err != nil {
		t.Fatal(err)
	}

	view, err := c.ReadView()
	if err != nil {
		t.Fatalf("ReadView: %v", err)
	}
	vt, err := view.OpenTopic("tasks")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := vt.Events(), uint64(50); got != want {
		t.Fatalf("view holds %d events, want %d", got, want)
	}
	if got := view.LoadCursor("grp", "tasks", 1); got != 7 {
		t.Fatalf("view cursor %d, want 7", got)
	}
	// Per-partition contents equal the cluster's acked reads.
	for pi := 0; pi < 2; pi++ {
		cevs, err := c.Read("tasks", pi, 0, 1024, true)
		if err != nil {
			t.Fatal(err)
		}
		vevs, err := view.Service().Pull("tasks", pi, 0, 1024, true)
		if err != nil {
			t.Fatal(err)
		}
		if len(cevs) != len(vevs) {
			t.Fatalf("partition %d: view %d events, cluster %d", pi, len(vevs), len(cevs))
		}
		for i := range cevs {
			if string(cevs[i].Metadata) != string(vevs[i].Metadata) || string(cevs[i].Data) != string(vevs[i].Data) {
				t.Fatalf("partition %d event %d differs between view and cluster", pi, i)
			}
		}
	}
}
