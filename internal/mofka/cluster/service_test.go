package cluster

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"taskprov/internal/mochi/mercury"
	"taskprov/internal/mochi/ssg"
	"taskprov/internal/mofka"
)

// deployments are the four ways to reach the log service: a broker and a
// cluster in process, and each of them across the wire (the broker over TCP,
// the gateway over an in-process registry, so both transports are spoken).
// Each returns the service and what shuts the deployment behind it down.
var deployments = []struct {
	name string
	open func(t *testing.T) (svc mofka.Service, shutdown func() error)
}{
	{"broker", func(t *testing.T) (mofka.Service, func() error) {
		b := mofka.NewStandaloneBroker()
		return b.Service(), b.Close
	}},
	{"cluster", func(t *testing.T) (mofka.Service, func() error) {
		c := newTestCluster(t, 3, 2)
		return c.Service(), c.Close
	}},
	{"remote-broker", func(t *testing.T) (mofka.Service, func() error) {
		b := mofka.NewStandaloneBroker()
		ep := mercury.NewEndpoint("mofkad")
		mofka.Serve(ep, b.Service())
		srv, err := mercury.Serve(ep, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		cli, err := mercury.Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = cli.Close() })
		return mofka.NewRemote(cli), b.Close
	}},
	{"remote-gateway", func(t *testing.T) (mofka.Service, func() error) {
		c := newTestCluster(t, 3, 2)
		reg := mercury.NewRegistry()
		c.RegisterRPCs(reg.Listen("local://cluster-gw"))
		return mofka.NewRemote(reg.Bind("local://cluster-gw")), c.Close
	}},
}

// TestServiceConformance holds every deployment to one contract: what the
// nine operations answer, and what they refuse, does not depend on who
// serves them.
func TestServiceConformance(t *testing.T) {
	wantErr := func(t *testing.T, what string, err error, text string) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), text) {
			t.Errorf("%s: error %v, want one containing %q", what, err, text)
		}
	}
	push := func(t *testing.T, svc mofka.Service) {
		t.Helper()
		if err := svc.CreateTopic(mofka.TopicConfig{Name: "t", Partitions: 2}); err != nil {
			t.Fatal(err)
		}
		metas := [][]byte{[]byte(`{"i":0}`), []byte(`{"i":1}`)}
		if err := svc.PushBatch("t", 0, metas, [][]byte{[]byte("d0"), []byte("d1")}); err != nil {
			t.Fatal(err)
		}
		if err := svc.PushBatch("t", 1, [][]byte{[]byte(`{"i":2}`)}, [][]byte{nil}); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name string
		run  func(t *testing.T, svc mofka.Service, shutdown func() error)
	}{
		{"create, list, info", func(t *testing.T, svc mofka.Service, _ func() error) {
			cfg := mofka.TopicConfig{Name: "tasks", Partitions: 2}
			for i := 0; i < 2; i++ { // the second create opens
				if err := svc.CreateTopic(cfg); err != nil {
					t.Fatal(err)
				}
			}
			topics, err := svc.Topics()
			if err != nil || len(topics) != 1 || topics[0] != "tasks" {
				t.Fatalf("Topics = %v, %v", topics, err)
			}
			parts, events, err := svc.TopicInfo("tasks")
			if err != nil || parts != 2 || events != 0 {
				t.Fatalf("TopicInfo = %d, %d, %v", parts, events, err)
			}
			wantErr(t, "create without a name", svc.CreateTopic(mofka.TopicConfig{}), "empty topic name")
		}},
		{"push, pull with and without data", func(t *testing.T, svc mofka.Service, _ func() error) {
			push(t, svc)
			evs, err := svc.Pull("t", 0, 0, 10, true)
			if err != nil || len(evs) != 2 {
				t.Fatalf("Pull = %d events, %v", len(evs), err)
			}
			if string(evs[0].Metadata) != `{"i":0}` || string(evs[1].Data) != "d1" || evs[1].ID != 1 || evs[1].Topic != "t" {
				t.Fatalf("events = %+v", evs)
			}
			evs, err = svc.Pull("t", 0, 1, 10, false)
			if err != nil || len(evs) != 1 || evs[0].ID != 1 {
				t.Fatalf("offset pull = %+v, %v", evs, err)
			}
			if evs[0].Data != nil {
				t.Fatal("withData=false returned data")
			}
			if evs, err = svc.Pull("t", 0, 0, 1, true); err != nil || len(evs) != 1 {
				t.Fatalf("max=1 pull = %d events, %v", len(evs), err)
			}
			if evs, err = svc.Pull("t", 1, 5, 10, true); err != nil || len(evs) != 0 {
				t.Fatalf("pull past the end = %d events, %v", len(evs), err)
			}
		}},
		{"out-of-range partition", func(t *testing.T, svc mofka.Service, _ func() error) {
			push(t, svc)
			for _, part := range []int{-1, 2} {
				want := fmt.Sprintf("no such partition: t[%d]", part)
				_, err := svc.Pull("t", part, 0, 1, false)
				wantErr(t, "pull", err, want)
				wantErr(t, "push", svc.PushBatch("t", part, [][]byte{[]byte(`{}`)}, [][]byte{nil}), want)
				_, err = svc.PartitionLength("t", part)
				wantErr(t, "length", err, want)
			}
		}},
		{"cursor commit and load", func(t *testing.T, svc mofka.Service, _ func() error) {
			push(t, svc)
			if err := svc.Commit("c1", "t", 0, 2); err != nil {
				t.Fatal(err)
			}
			if next, err := svc.Cursor("c1", "t", 0); err != nil || next != 2 {
				t.Fatalf("Cursor = %d, %v", next, err)
			}
			if next, err := svc.Cursor("c1", "t", 1); err != nil || next != 0 {
				t.Fatalf("other partition's cursor = %d, %v", next, err)
			}
			if next, err := svc.Cursor("nobody", "t", 0); err != nil || next != 0 {
				t.Fatalf("unknown consumer's cursor = %d, %v", next, err)
			}
		}},
		{"partition length", func(t *testing.T, svc mofka.Service, _ func() error) {
			push(t, svc)
			for part, want := range []uint64{2, 1} {
				if n, err := svc.PartitionLength("t", part); err != nil || n != want {
					t.Fatalf("PartitionLength(%d) = %d, %v, want %d", part, n, err, want)
				}
			}
			if parts, events, err := svc.TopicInfo("t"); err != nil || parts != 2 || events != 3 {
				t.Fatalf("TopicInfo = %d, %d, %v", parts, events, err)
			}
		}},
		{"ping after close", func(t *testing.T, svc mofka.Service, shutdown func() error) {
			if err := svc.Ping(); err != nil {
				t.Fatalf("ping: %v", err)
			}
			if err := shutdown(); err != nil {
				t.Fatal(err)
			}
			wantErr(t, "ping after close", svc.Ping(), "closed")
		}},
		{"error propagation", func(t *testing.T, svc mofka.Service, _ func() error) {
			const want = "no such topic: ghost"
			_, err := svc.Pull("ghost", 0, 0, 1, false)
			wantErr(t, "pull", err, want)
			wantErr(t, "push", svc.PushBatch("ghost", 0, [][]byte{[]byte(`{}`)}, [][]byte{nil}), want)
			_, _, err = svc.TopicInfo("ghost")
			wantErr(t, "info", err, want)
			_, err = svc.PartitionLength("ghost", 0)
			wantErr(t, "length", err, want)
			push(t, svc)
			wantErr(t, "push of mismatched batch", svc.PushBatch("t", 0, [][]byte{[]byte(`{}`)}, nil), "invalid event")
		}},
	}
	for _, d := range deployments {
		for _, c := range cases {
			t.Run(d.name+"/"+c.name, func(t *testing.T) {
				svc, shutdown := d.open(t)
				c.run(t, svc, shutdown)
			})
		}
	}
}

// TestRemoteMemberReplicationAndFailover: a broker in another "process",
// reached only through the log service it serves, joins as a replica member.
// Quorum appends land on it, it serves the partitions it leads, and when it
// vanishes the sweep fails those partitions over with every acknowledged
// event still readable.
func TestRemoteMemberReplicationAndFailover(t *testing.T) {
	now := time.Unix(1000, 0)
	c, err := New(Config{
		Brokers: 2, ReplicationFactor: 2, Quorum: 2,
		SSG:   ssg.Config{SuspectAfter: time.Second, DeadAfter: 2 * time.Second},
		Clock: func() time.Time { return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const addr = "local://member"
	member := mofka.NewStandaloneBroker()
	reg := mercury.NewRegistry()
	mofka.Serve(reg.Listen(addr), member.Service())
	id, err := c.addMember(addr, replica{mofka.NewRemote(reg.Bind(addr)), member})
	if err != nil || id != 2 {
		t.Fatalf("addMember = %d, %v", id, err)
	}

	// Placement is fixed at creation, so the topic comes after the join.
	const parts, n = 8, 200
	ct, err := c.EnsureTopic(mofka.TopicConfig{Name: "t", Partitions: parts})
	if err != nil {
		t.Fatal(err)
	}
	p := pushN(t, ct, n, mofka.ProducerOptions{BatchSize: 5})
	defer p.Close()

	// With a quorum of two out of two, every acknowledged batch of a
	// partition the member replicates is on the member.
	mt, err := member.OpenTopic("t")
	if err != nil {
		t.Fatalf("topic not created on the member: %v", err)
	}
	hosted, led := 0, 0
	for _, pv := range c.Placement() {
		if rankOf(pv.Replicas, id) < 0 {
			continue
		}
		hosted++
		if pv.Leader == id {
			led++
		}
		mp, err := mt.Partition(pv.Partition)
		if err != nil {
			t.Fatal(err)
		}
		if mp.Length() != pv.Acked || pv.Acked == 0 {
			t.Errorf("t[%d]: member holds %d events, acknowledged %d", pv.Partition, mp.Length(), pv.Acked)
		}
	}
	if hosted == 0 || led == 0 {
		t.Fatalf("member replicates %d and leads %d of %d partitions; the test needs both", hosted, led, parts)
	}
	before := drainAll(t, c, "t", parts) // reads of the partitions it leads cross the wire
	if len(before) != n {
		t.Fatalf("drained %d events, want %d", len(before), n)
	}

	// The member's process goes away; two sweeps later SSG declares it dead.
	reg.Close(addr)
	now = now.Add(3 * time.Second)
	c.Heartbeat()
	c.pingRemotes(now)
	if c.Sweep(now) == 0 || c.nodeAlive(id) {
		t.Fatal("sweep did not declare the unreachable member dead")
	}
	for pi := 0; pi < parts; pi++ {
		if got := leaderOf(t, c, "t", pi); got == id {
			t.Errorf("t[%d] still led by the dead member", pi)
		}
	}
	after := drainAll(t, c, "t", parts)
	if len(after) != len(before) {
		t.Fatalf("drained %d events after failover, %d before", len(after), len(before))
	}
	for i := range after {
		if string(after[i].Metadata) != string(before[i].Metadata) || string(after[i].Data) != string(before[i].Data) {
			t.Fatalf("event %d differs after failover", i)
		}
	}
}
