package cluster

import (
	"fmt"
	"strings"
	"testing"

	"taskprov/internal/mochi/mercury"
	"taskprov/internal/mofka"
)

// serviceLog is what every deployment holds when a case reads it: topic "t",
// two events in partition 0 and one in partition 1, filled in process.
var serviceLog = [][][]byte{{[]byte(`{"i":0}`), []byte(`{"i":1}`)}, {[]byte(`{"i":2}`)}}

// fillBroker gives b a topic holding log, partition by partition.
func fillBroker(t *testing.T, b *mofka.Broker, topic string, log [][][]byte) {
	t.Helper()
	tp, err := b.CreateTopic(mofka.TopicConfig{Name: topic, Partitions: len(log)})
	if err != nil {
		t.Fatal(err)
	}
	for i, metas := range log {
		p, err := tp.Partition(i)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Append(metas, nil); err != nil {
			t.Fatal(err)
		}
	}
}

// fillCluster gives c a topic holding log, each partition's events one
// quorum append.
func fillCluster(t *testing.T, c *Cluster, topic string, log [][][]byte) {
	t.Helper()
	if _, err := c.EnsureTopic(mofka.TopicConfig{Name: topic, Partitions: len(log)}); err != nil {
		t.Fatal(err)
	}
	for i, metas := range log {
		epoch, err := c.Epoch(topic, i)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.submitWait(topic, i, "", 0, epoch, metas); err != nil {
			t.Fatal(err)
		}
	}
}

// deployments are the four ways to reach the log service: a broker and a
// cluster in process, and each of them across the wire (the broker over TCP,
// the gateway through its endpoint's own Call, so both the wire and the
// dispatch behind it are spoken). Each returns the service, what fills the
// deployment behind it with serviceLog, and what shuts it down.
var deployments = []struct {
	name string
	open func(t *testing.T) (svc mofka.Service, fill func(t *testing.T), shutdown func() error)
}{
	{"broker", func(t *testing.T) (mofka.Service, func(*testing.T), func() error) {
		b := mofka.NewStandaloneBroker()
		return b.Service(), func(t *testing.T) { fillBroker(t, b, "t", serviceLog) }, b.Close
	}},
	{"cluster", func(t *testing.T) (mofka.Service, func(*testing.T), func() error) {
		c := newTestCluster(t, 3, 2)
		return c.Service(), func(t *testing.T) { fillCluster(t, c, "t", serviceLog) }, c.Close
	}},
	{"remote-broker", func(t *testing.T) (mofka.Service, func(*testing.T), func() error) {
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
		return mofka.NewRemote(cli), func(t *testing.T) { fillBroker(t, b, "t", serviceLog) }, b.Close
	}},
	{"remote-gateway", func(t *testing.T) (mofka.Service, func(*testing.T), func() error) {
		c := newTestCluster(t, 3, 2)
		ep := mercury.NewEndpoint("cluster-gw")
		mofka.Serve(ep, c.Service())
		return mofka.NewRemote(ep), func(t *testing.T) { fillCluster(t, c, "t", serviceLog) }, c.Close
	}},
}

// TestServiceConformance holds every deployment to one contract: what the
// four operations answer, and what they refuse, does not depend on who
// serves them.
func TestServiceConformance(t *testing.T) {
	wantErr := func(t *testing.T, what string, err error, text string) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), text) {
			t.Errorf("%s: error %v, want one containing %q", what, err, text)
		}
	}
	cases := []struct {
		name   string
		closed bool // the deployment is shut down before run
		run    func(t *testing.T, svc mofka.Service)
	}{
		{"create, list, info", false, func(t *testing.T, svc mofka.Service) {
			topics, err := svc.Topics()
			if err != nil || len(topics) != 1 || topics[0] != "t" {
				t.Fatalf("Topics = %v, %v", topics, err)
			}
			parts, err := svc.TopicInfo("t")
			if err != nil || parts != 2 {
				t.Fatalf("TopicInfo = %d, %v", parts, err)
			}
		}},
		{"push, pull with and without data", false, func(t *testing.T, svc mofka.Service) {
			evs, err := svc.Pull("t", 0, 0, 10)
			if err != nil || len(evs) != 2 {
				t.Fatalf("Pull = %d events, %v", len(evs), err)
			}
			if string(evs[0].Metadata) != `{"i":0}` || string(evs[1].Metadata) != `{"i":1}` || evs[1].ID != 1 || evs[1].Topic != "t" {
				t.Fatalf("events = %+v", evs)
			}
			evs, err = svc.Pull("t", 0, 1, 10)
			if err != nil || len(evs) != 1 || evs[0].ID != 1 {
				t.Fatalf("offset pull = %+v, %v", evs, err)
			}
			if evs, err = svc.Pull("t", 0, 0, 1); err != nil || len(evs) != 1 {
				t.Fatalf("max=1 pull = %d events, %v", len(evs), err)
			}
			if evs, err = svc.Pull("t", 1, 5, 10); err != nil || len(evs) != 0 {
				t.Fatalf("pull past the end = %d events, %v", len(evs), err)
			}
		}},
		{"out-of-range partition", false, func(t *testing.T, svc mofka.Service) {
			for _, part := range []int{-1, 2} {
				want := fmt.Sprintf("no such partition: t[%d]", part)
				_, err := svc.Pull("t", part, 0, 1)
				wantErr(t, "pull", err, want)
				_, err = svc.PartitionLength("t", part)
				wantErr(t, "length", err, want)
			}
		}},
		{"partition length", false, func(t *testing.T, svc mofka.Service) {
			for part, want := range []uint64{2, 1} {
				if n, err := svc.PartitionLength("t", part); err != nil || n != want {
					t.Fatalf("PartitionLength(%d) = %d, %v, want %d", part, n, err, want)
				}
			}
		}},
		{"reads after close", true, func(t *testing.T, svc mofka.Service) {
			if n, err := svc.PartitionLength("t", 0); err != nil || n != 2 {
				t.Fatalf("PartitionLength after close = %d, %v", n, err)
			}
			if evs, err := svc.Pull("t", 1, 0, 10); err != nil || len(evs) != 1 {
				t.Fatalf("Pull after close = %d events, %v", len(evs), err)
			}
		}},
		{"error propagation", false, func(t *testing.T, svc mofka.Service) {
			const want = "no such topic: ghost"
			_, err := svc.Pull("ghost", 0, 0, 1)
			wantErr(t, "pull", err, want)
			_, err = svc.TopicInfo("ghost")
			wantErr(t, "info", err, want)
			_, err = svc.PartitionLength("ghost", 0)
			wantErr(t, "length", err, want)
		}},
	}
	for _, d := range deployments {
		for _, c := range cases {
			t.Run(d.name+"/"+c.name, func(t *testing.T) {
				svc, fill, shutdown := d.open(t)
				fill(t)
				if c.closed {
					if err := shutdown(); err != nil {
						t.Fatal(err)
					}
				}
				c.run(t, svc)
			})
		}
	}
}
