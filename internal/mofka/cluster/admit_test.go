package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"taskprov/internal/mofka"
)

// batchOf returns n events of the shape a collector ships, each about 300
// bytes, already in stored form.
func batchOf(n int) [][]byte {
	metas := make([][]byte, n)
	for i := range metas {
		metas[i] = []byte(fmt.Sprintf(`{"key":"('getitem-abc', %d)","from":"waiting","to":"processing","pad":"%s"}`, i, strings.Repeat("x", 220)))
	}
	return metas
}

// replicaDocs returns node's stored documents of topic[part], as lent.
func replicaDocs(t *testing.T, c *Cluster, node int, topic string, part int) [][]byte {
	t.Helper()
	p, err := partitionOf(c.NodeBroker(node), topic, part)
	if err != nil {
		t.Fatal(err)
	}
	var docs [][]byte
	p.Scan(0, 0, func(_ uint64, doc []byte) bool {
		docs = append(docs, doc)
		return true
	})
	return docs
}

// TestQuorumAppendAdmitsOnce: a 128-event quorum append to a 3-broker RF2
// cluster admits the batch once, so it allocates one arena and one documents
// slice in all, not one of each per replica. What it allocates beyond them
// is each replica's index pages (a 512-document page per four batches) and
// the append's own bookkeeping: 51.1 kB and 3.7 mallocs for a 37.5 kB batch,
// the alive-replica list reused from one append to the next. Admitted on
// each replica, the batch cost a second arena and documents slice: 95.3 kB
// and 7.84 mallocs.
func TestQuorumAppendAdmitsOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pin; the race detector allocates on its own")
	}
	c := newTestCluster(t, 3, 2)
	if _, err := c.EnsureTopic(mofka.TopicConfig{Name: "t", Partitions: 1}); err != nil {
		t.Fatal(err)
	}
	metas := batchOf(128)
	batchBytes := 0
	for _, m := range metas {
		batchBytes += len(m)
	}
	const appends = 64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < appends; i++ {
		if err := c.submitWait("t", 0, "", 0, metas); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perAppend := float64(after.TotalAlloc-before.TotalAlloc) / appends
	mallocs := float64(after.Mallocs-before.Mallocs) / appends
	t.Logf("a quorum append of %d events (%d B) allocates %.0f B and %.2f mallocs", len(metas), batchBytes, perAppend, mallocs)
	// One arena and one documents slice, two replicas' pages, and half the
	// batch again for size classes and bookkeeping: a second arena does
	// not fit.
	const docs, pages = 128 * 24, 2 * 128 * 24
	if budget := float64(batchBytes+docs+pages) + float64(batchBytes)/2; perAppend > budget {
		t.Errorf("a quorum append allocates %.0f B, budget %.0f", perAppend, budget)
	}
	if mallocs > 4 {
		t.Errorf("a quorum append makes %.2f mallocs, budget 4", mallocs)
	}
}

// TestFollowerStoresLeaderDocuments: after quorum appends — one of them
// holding an event not in stored form — and a catch-up of a follower that
// was killed and restarted, every replica of a partition serves the leader's
// documents byte for byte, and a follower's documents are the leader's very
// bytes. A durable cluster's replicas each keep their own log of them.
func TestFollowerStoresLeaderDocuments(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
			cfg := Config{Brokers: 3, ReplicationFactor: 2}
			if durable {
				cfg.DataDir = t.TempDir()
			}
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if _, err := c.EnsureTopic(mofka.TopicConfig{Name: "t", Partitions: 1}); err != nil {
				t.Fatal(err)
			}
			replicas := c.Replicas("t", 0)
			leader, follower := replicas[0], replicas[1]
			spaced := append(batchOf(3), []byte(`{ "spaced" : [1, 2] }`))
			for _, metas := range [][][]byte{batchOf(128), spaced} {
				if err := c.submitWait("t", 0, "", 0, metas); err != nil {
					t.Fatal(err)
				}
			}
			// The follower misses a batch and catches up from the leader.
			must(t, c.KillBroker(follower))
			if err := appendRaw(t, c, "t", 0, "missed"); !errors.Is(err, ErrUnavailable) {
				t.Fatalf("append with one replica alive = %v, want ErrUnavailable", err)
			}
			must(t, c.RestartBroker(follower))
			if err := appendRaw(t, c, "t", 0, "after"); err != nil {
				t.Fatal(err)
			}

			lead, follow := replicaDocs(t, c, leader, "t", 0), replicaDocs(t, c, follower, "t", 0)
			if len(lead) != 128+4+1 || len(follow) != len(lead) {
				t.Fatalf("leader holds %d documents, follower %d, want %d each", len(lead), len(follow), 128+4+1)
			}
			if got := string(lead[131]); got != `{"spaced":[1,2]}` {
				t.Fatalf("document 131 is %s, want the stored form", got)
			}
			for i := range lead {
				if !bytes.Equal(follow[i], lead[i]) {
					t.Fatalf("document %d: follower %s, leader %s", i, follow[i], lead[i])
				}
				// In memory the restarted follower came back empty and its
				// catch-up stored the leader's bytes; a durable one serves
				// what its own log's replay read.
				if !durable && unsafe.SliceData(follow[i]) != unsafe.SliceData(lead[i]) {
					t.Fatalf("document %d: the follower stores a copy of the leader's", i)
				}
			}
			if !durable {
				return
			}
			must(t, c.Close())
			for _, node := range replicas {
				b, err := mofka.OpenPostMortem(nodeDir(cfg.DataDir, node))
				must(t, err)
				tp, err := b.OpenTopic("t")
				must(t, err)
				p, err := tp.Partition(0)
				must(t, err)
				i := 0
				p.Scan(0, 0, func(_ uint64, doc []byte) bool {
					if !bytes.Equal(doc, lead[i]) {
						t.Fatalf("node %d's log holds %s at %d, the leader stored %s", node, doc, i, lead[i])
					}
					i++
					return true
				})
				if i != len(lead) {
					t.Fatalf("node %d's log holds %d events, want %d", node, i, len(lead))
				}
			}
		})
	}
}

// TestInvalidBatchStoresNothing: a quorum append holding one invalid event
// fails with ErrInvalidEvent and leaves no document, and on a durable
// cluster no record, on any replica; the partition takes its next batch at
// offset 0.
func TestInvalidBatchStoresNothing(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Brokers: 3, ReplicationFactor: 2, DataDir: dir}
	c, err := New(cfg)
	must(t, err)
	if _, err := c.EnsureTopic(mofka.TopicConfig{Name: "t", Partitions: 1}); err != nil {
		t.Fatal(err)
	}
	metas := batchOf(8)
	metas[5] = []byte(`{"key": "unterminated`)
	if err := c.submitWait("t", 0, "", 0, metas); !errors.Is(err, mofka.ErrInvalidEvent) {
		t.Fatalf("append of a batch with an invalid event = %v, want ErrInvalidEvent", err)
	}
	for node := 0; node < cfg.Brokers; node++ {
		if docs := replicaDocs(t, c, node, "t", 0); len(docs) != 0 {
			t.Fatalf("node %d stores %d documents of a refused batch", node, len(docs))
		}
	}
	if err := appendRaw(t, c, "t", 0, "first"); err != nil {
		t.Fatal(err)
	}
	must(t, c.Close())
	for node := 0; node < cfg.Brokers; node++ {
		b, err := mofka.OpenPostMortem(nodeDir(dir, node))
		must(t, err)
		tp, err := b.OpenTopic("t")
		must(t, err)
		want := uint64(0)
		if rankOf(c.Replicas("t", 0), node) >= 0 {
			want = 1
		}
		if got := tp.Events(); got != want {
			t.Fatalf("node %d's log holds %d records, want %d: the refused batch left some", node, got, want)
		}
	}
}
