package cluster

import (
	"encoding/json"
	"testing"

	"taskprov/internal/mochi/mercury"
	"taskprov/internal/mofka"
)

// FuzzClusterRPCs: whatever bytes arrive as the body of cluster.join,
// cluster.info or cluster.health, the gateway neither panics nor answers
// anything but JSON, a join body that does not decode is an error, and the
// seven log RPCs served beside them still work afterwards. A join body that
// decodes to an address is not sent, because the handler would dial it over
// TCP; one that names none is, and is refused.
func FuzzClusterRPCs(f *testing.F) {
	names := []string{rpcJoin, rpcInfo, rpcHealth}
	for i, req := range []string{`{"address":""}`, `{}`, `null`} {
		f.Add(uint8(i), []byte(req))
	}
	f.Add(uint8(0), []byte(`{"address":`))
	f.Add(uint8(0), []byte(`{"address":7}`))
	f.Add(uint8(0), []byte(`{"address":null,"extra":[1,2]}`))
	f.Add(uint8(0), []byte(`[]`))
	f.Add(uint8(1), []byte(`not json`))
	f.Add(uint8(2), []byte(nil))

	f.Fuzz(func(t *testing.T, which uint8, req []byte) {
		name := names[int(which)%len(names)]
		var jr joinRequest
		decodeErr := json.Unmarshal(req, &jr)
		if name == rpcJoin && decodeErr == nil && jr.Address != "" {
			t.Skip("a join naming an address would dial it")
		}
		c, err := New(Config{Brokers: 3, ReplicationFactor: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		ep := mercury.NewEndpoint("gateway")
		c.RegisterRPCs(ep)

		resp, err := ep.Call(name, req)
		if err == nil && !json.Valid(resp) {
			t.Fatalf("%s(%q) answered %q, not JSON", name, req, resp)
		}
		if name == rpcJoin && err == nil {
			t.Fatalf("join %q accepted, though it names no address or does not decode (%v)", req, decodeErr)
		}
		if got := c.Brokers(); got != 3 {
			t.Fatalf("%s(%q) left %d members, want 3", name, req, got)
		}
		checkLogService(t, mofka.NewRemote(ep))
	})
}

// checkLogService drives each of the seven log RPCs once through svc, on a
// cluster that holds no topic yet.
func checkLogService(t *testing.T, svc mofka.Service) {
	t.Helper()
	if err := svc.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	if err := svc.CreateTopic(mofka.TopicConfig{Name: "t", Partitions: 2}); err != nil {
		t.Fatalf("create: %v", err)
	}
	if err := svc.PushBatch("t", 0, [][]byte{[]byte(`{"i":0}`)}); err != nil {
		t.Fatalf("push: %v", err)
	}
	if evs, err := svc.Pull("t", 0, 0, 10); err != nil || len(evs) != 1 || string(evs[0].Metadata) != `{"i":0}` {
		t.Fatalf("pull = %+v, %v", evs, err)
	}
	if topics, err := svc.Topics(); err != nil || len(topics) != 1 || topics[0] != "t" {
		t.Fatalf("topics = %v, %v", topics, err)
	}
	if parts, err := svc.TopicInfo("t"); err != nil || parts != 2 {
		t.Fatalf("topic info = %d, %v", parts, err)
	}
	if n, err := svc.PartitionLength("t", 0); err != nil || n != 1 {
		t.Fatalf("partition length = %d, %v", n, err)
	}
}
