package cluster

import (
	"encoding/json"
	"testing"

	"taskprov/internal/mochi/mercury"
	"taskprov/internal/mofka"
)

// FuzzClusterRPCs: whatever bytes arrive as the body of one of the four log
// RPCs a cluster gateway serves (mofka.Serve over Cluster.Service), the
// gateway neither panics nor answers anything but JSON, and the cluster
// behind it, which holds a topic, still reads the same events afterwards.
func FuzzClusterRPCs(f *testing.F) {
	names := []string{"mofka.topics", "mofka.topic_info", "mofka.pull", "mofka.partition_info"}
	for i, req := range []string{`{}`, `"t"`, `{"topic":"t","partition":0,"from":0,"max":10}`, `{"topic":"t","partition":1}`} {
		f.Add(uint8(i), []byte(req))
	}
	f.Add(uint8(1), []byte(`"ghost"`))
	f.Add(uint8(2), []byte(`{"topic":"t","partition":0,"from":18446744073709551615,"max":-5}`))
	f.Add(uint8(2), []byte(`{"topic":"t","partition":-1,"from":0,"max":1}`))
	f.Add(uint8(3), []byte(`{"topic":"t","partition":7}`))
	f.Add(uint8(3), []byte(`not json`))

	f.Fuzz(func(t *testing.T, which uint8, req []byte) {
		name := names[int(which)%len(names)]
		c, err := New(Config{Brokers: 3, ReplicationFactor: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		fillTopic(t, c, "t", 2, 10)
		want := pullAll(t, c.Service(), "t", 2)
		ep := mercury.NewEndpoint("gateway")
		mofka.Serve(ep, c.Service())

		resp, err := ep.Call(name, req)
		if err == nil && !json.Valid(resp) {
			t.Fatalf("%s(%q) answered %q, not JSON", name, req, resp)
		}
		sameEvents(t, name+" afterwards", pullAll(t, mofka.NewRemote(ep), "t", 2), want)
	})
}
