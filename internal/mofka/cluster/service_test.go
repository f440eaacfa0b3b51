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
		if err := c.submitWait(topic, i, "", 0, metas); err != nil {
			t.Fatal(err)
		}
	}
}

// closedClusterLog fills a durable test cluster with serviceLog, closes it,
// and opens its dir as every reader does (OpenLog): what mofkad serves of a
// cluster run.
func closedClusterLog(t *testing.T) *mofka.Broker {
	t.Helper()
	dir := t.TempDir()
	c, err := New(Config{Brokers: 3, ReplicationFactor: 2, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	fillCluster(t, c, "t", serviceLog)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := OpenLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// overTCP serves svc as mofkad does, on a Mercury endpoint over TCP, and
// returns a Remote dialled to it.
func overTCP(t *testing.T, svc mofka.Service) mofka.Service {
	t.Helper()
	ep := mercury.NewEndpoint("mofkad")
	mofka.Serve(ep, svc)
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
	return mofka.NewRemote(cli)
}

// deployments are the four ways to reach the log service, each holding
// serviceLog: a broker filled in process, a cluster's log (a closed durable
// cluster opened by OpenLog), and each of them across the wire. Each returns
// the service and what shuts the log behind it down.
var deployments = []struct {
	name string
	open func(t *testing.T) (svc mofka.Service, shutdown func() error)
}{
	{"broker", func(t *testing.T) (mofka.Service, func() error) {
		b := mofka.NewStandaloneBroker()
		fillBroker(t, b, "t", serviceLog)
		return b.Service(), b.Close
	}},
	{"cluster-log", func(t *testing.T) (mofka.Service, func() error) {
		b := closedClusterLog(t)
		return b.Service(), b.Close
	}},
	{"remote-broker", func(t *testing.T) (mofka.Service, func() error) {
		b := mofka.NewStandaloneBroker()
		fillBroker(t, b, "t", serviceLog)
		return overTCP(t, b.Service()), b.Close
	}},
	{"remote-cluster-log", func(t *testing.T) (mofka.Service, func() error) {
		b := closedClusterLog(t)
		return overTCP(t, b.Service()), b.Close
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
		{"topic list and info", false, func(t *testing.T, svc mofka.Service) {
			topics, err := svc.Topics()
			if err != nil || len(topics) != 1 || topics[0] != "t" {
				t.Fatalf("Topics = %v, %v", topics, err)
			}
			parts, err := svc.TopicInfo("t")
			if err != nil || parts != 2 {
				t.Fatalf("TopicInfo = %d, %v", parts, err)
			}
		}},
		{"pull by offset and max", false, func(t *testing.T, svc mofka.Service) {
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
				svc, shutdown := d.open(t)
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
