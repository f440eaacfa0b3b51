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
		if err := p.Push(mofka.Metadata{"i": i}, nil); err != nil {
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
			evs, err := c.Read(topic, pi, from, 1024)
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
	epoch, err := c.Append("t", 0, "prod-1", 1, 1, metas)
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	// Retry the same (producer, seq): must be acknowledged without growing
	// the log.
	if _, err := c.Append("t", 0, "prod-1", 1, epoch, metas); err != nil {
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
	_, err := c.Append("t", 0, "p", 1, 99, [][]byte{[]byte(`{}`)})
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

// fillTopic creates topic name with parts partitions on c and pushes n events,
// each with a payload.
func fillTopic(t *testing.T, c *Cluster, name string, parts, n int) {
	t.Helper()
	ct, err := c.EnsureTopic(mofka.TopicConfig{Name: name, Partitions: parts})
	if err != nil {
		t.Fatal(err)
	}
	if err := pushN(t, ct, n, mofka.ProducerOptions{BatchSize: 8}).Close(); err != nil {
		t.Fatal(err)
	}
}

// pullAll reads every event of every partition of topic through svc.
func pullAll(t *testing.T, svc mofka.Service, topic string, parts int) [][]mofka.Event {
	t.Helper()
	out := make([][]mofka.Event, parts)
	for pi := range out {
		for {
			evs, err := svc.Pull(topic, pi, uint64(len(out[pi])), 1024)
			if err != nil {
				t.Fatalf("pull %s[%d]: %v", topic, pi, err)
			}
			if len(evs) == 0 {
				break
			}
			out[pi] = append(out[pi], evs...)
		}
	}
	return out
}

func sameEvents(t *testing.T, what string, got, want [][]mofka.Event) {
	t.Helper()
	for pi := range want {
		if len(got[pi]) != len(want[pi]) {
			t.Fatalf("%s: partition %d holds %d events, want %d", what, pi, len(got[pi]), len(want[pi]))
		}
		for i, w := range want[pi] {
			if g := got[pi][i]; g.ID != w.ID || string(g.Metadata) != string(w.Metadata) {
				t.Fatalf("%s: partition %d event %d reads %d %s, want %d %s", what, pi, i, g.ID, g.Metadata, w.ID, w.Metadata)
			}
		}
	}
}

// TestReadViewMatchesCluster: a read view holds every partition's
// acknowledged prefix and cursors as the cluster serves
// it — shared from a local leader, pulled from a remote one — and from then on
// the two go separate ways: what either side appends, and what a restart
// truncates, stays on its own side.
func TestReadViewMatchesCluster(t *testing.T) {
	cases := []struct {
		name  string
		parts int // of topic "tasks"
		// open builds a cluster holding "tasks", and returns what happens to
		// it or to the view once the view is taken (nil: nothing). The view
		// must still read then what it read at first.
		open func(t *testing.T) (*Cluster, func(t *testing.T, c *Cluster, view *mofka.Broker))
	}{
		{"documents shared from the leader", 2, func(t *testing.T) (*Cluster, func(*testing.T, *Cluster, *mofka.Broker)) {
			c := newTestCluster(t, 3, 2)
			fillTopic(t, c, "tasks", 2, 50)
			return c, nil
		}},
		{"appends to the view stay in the view", 2, func(t *testing.T) (*Cluster, func(*testing.T, *Cluster, *mofka.Broker)) {
			c := newTestCluster(t, 3, 2)
			fillTopic(t, c, "tasks", 2, 50)
			fillTopic(t, c, "other", 1, 10)
			return c, func(t *testing.T, c *Cluster, view *mofka.Broker) {
				lengths := func() (out []uint64) {
					for i := 0; i < c.Brokers(); i++ {
						n, err := c.NodeBroker(i).Service().PartitionLength("other", 0)
						if err != nil {
							t.Fatal(err)
						}
						out = append(out, n)
					}
					return out
				}
				before := lengths()
				meta := [][]byte{[]byte(`{"view":1}`)}
				if err := view.Service().CreateTopic(mofka.TopicConfig{Name: "view-topic", Partitions: 1}); err != nil {
					t.Fatal(err)
				}
				for _, topic := range []string{"view-topic", "other"} {
					if err := view.Service().PushBatch(topic, 0, meta); err != nil {
						t.Fatal(err)
					}
					evs := pullAll(t, view.Service(), topic, 1)[0]
					if last := evs[len(evs)-1]; string(last.Metadata) != string(meta[0]) {
						t.Fatalf("the view's %s ends with %s", topic, last.Metadata)
					}
				}
				if topics := c.Topics(); fmt.Sprint(topics) != "[other tasks]" {
					t.Fatalf("cluster topics %v after the view created one", topics)
				}
				if n, err := c.Length("other", 0); err != nil || n != 10 {
					t.Fatalf("cluster holds %d events of other, %v; want 10", n, err)
				}
				if after := lengths(); fmt.Sprint(after) != fmt.Sprint(before) {
					t.Fatalf("brokers hold %v events of other after the view's append, %v before", after, before)
				}
			}
		}},
		{"cluster appends after the view", 2, func(t *testing.T) (*Cluster, func(*testing.T, *Cluster, *mofka.Broker)) {
			c := newTestCluster(t, 3, 2)
			fillTopic(t, c, "tasks", 2, 50)
			return c, func(t *testing.T, c *Cluster, _ *mofka.Broker) {
				fillTopic(t, c, "tasks", 2, 30)
				if n := len(drainAll(t, c, "tasks", 2)); n != 80 {
					t.Fatalf("cluster holds %d events, want 80", n)
				}
			}
		}},
		{"a restart truncating the old leader's tail", 1, func(t *testing.T) (*Cluster, func(*testing.T, *Cluster, *mofka.Broker)) {
			// As TestRestartDiscardsUnackedDivergentTail: A is acknowledged,
			// B lands on the leader's log alone.
			c, err := New(Config{Brokers: 3, ReplicationFactor: 3, Quorum: 2, DataDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			if _, err := c.EnsureTopic(mofka.TopicConfig{Name: "tasks", Partitions: 1}); err != nil {
				t.Fatal(err)
			}
			leader := leaderOf(t, c, "tasks", 0)
			if err := appendRaw(t, c, "tasks", 0, "A"); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < c.Brokers(); i++ {
				if i != leader {
					c.NodeBroker(i).SetAppendFault(func(string, int) error { return errors.New("injected wal fault") })
				}
			}
			if err := appendRaw(t, c, "tasks", 0, "B"); !errors.Is(err, ErrUnavailable) {
				t.Fatalf("append B: %v, want ErrUnavailable", err)
			}
			c.SetAppendFault(nil)
			return c, func(t *testing.T, c *Cluster, _ *mofka.Broker) {
				if err := c.KillBroker(leader); err != nil {
					t.Fatal(err)
				}
				if err := appendRaw(t, c, "tasks", 0, "C"); err != nil {
					t.Fatal(err)
				}
				if err := c.RestartBroker(leader); err != nil {
					t.Fatal(err)
				}
				truncated := false
				for _, ev := range c.Events() {
					truncated = truncated || ev.Kind == EventLogTruncated && ev.Node == leader
				}
				if got := tagsOf(t, drainAll(t, c, "tasks", 1)); !truncated || fmt.Sprint(got) != "[A C]" {
					t.Fatalf("after the restart the cluster serves %v, truncated %v; want [A C], true", got, truncated)
				}
			}
		}},
		{"a remote leader's partitions are pulled", 8, func(t *testing.T) (*Cluster, func(*testing.T, *Cluster, *mofka.Broker)) {
			// As TestRemoteMemberReplicationAndFailover: a member reached only
			// through the log service it serves.
			c, err := New(Config{Brokers: 2, ReplicationFactor: 2, Quorum: 2})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			member := mofka.NewStandaloneBroker()
			addr, remote, vanish := remoteMember(t, member)
			id, err := c.addMember(addr, replica{remote, member})
			if err != nil {
				t.Fatal(err)
			}
			fillTopic(t, c, "tasks", 8, 200)
			led := 0
			for _, pv := range c.Placement() {
				if pv.Leader == id && pv.Acked > 0 {
					led++
				}
			}
			if led == 0 {
				t.Fatal("the member leads no partition holding events; the case needs one")
			}
			// The member goes away: what the view pulled from it is the view's.
			return c, func(*testing.T, *Cluster, *mofka.Broker) { vanish() }
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, after := tc.open(t)
			if err := c.CommitCursor("grp", "tasks", tc.parts-1, 7); err != nil {
				t.Fatal(err)
			}
			want := pullAll(t, c.Service(), "tasks", tc.parts)
			view, err := c.ReadView()
			if err != nil {
				t.Fatalf("ReadView: %v", err)
			}
			sameEvents(t, "view", pullAll(t, view.Service(), "tasks", tc.parts), want)
			if got := view.LoadCursor("grp", "tasks", tc.parts-1); got != 7 {
				t.Fatalf("view cursor %d, want 7", got)
			}
			if after != nil {
				after(t, c, view)
				sameEvents(t, "view afterwards", pullAll(t, view.Service(), "tasks", tc.parts), want)
			}
		})
	}
}

// TestReadViewAllocatesPerPage: a view of a local cluster costs allocations
// per partition and per page of documents, not per event.
func TestReadViewAllocatesPerPage(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pin; the race detector allocates on its own")
	}
	c := newTestCluster(t, 3, 2)
	const parts = 4
	allocs := func() float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := c.ReadView(); err != nil {
				t.Fatal(err)
			}
		})
	}
	fillTopic(t, c, "tasks", parts, 2000)
	small := allocs()
	fillTopic(t, c, "tasks", parts, 6000)
	large := allocs()
	if perEvent := (large - small) / 6000; perEvent >= 0.01 {
		t.Fatalf("ReadView allocates %.3f times per event (%v over 2 000 events, %v over 8 000)", perEvent, small, large)
	}
}
