package mofka

import (
	"encoding/json"
	"testing"

	"taskprov/internal/mochi/mercury"
)

// The contract of the seven operations — over a broker, a cluster, and a
// Remote to each — is TestServiceConformance in internal/mofka/cluster, the
// one package that can build all four; the bytes they put on the wire are
// pinned by TestWireGolden beside it.

func TestRemoteOverTCP(t *testing.T) {
	b := NewStandaloneBroker()
	ep := mercury.NewEndpoint("mofkad")
	Serve(ep, b.Service())
	srv, err := mercury.Serve(ep, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	cli, err := mercury.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cli.Close() }()
	r := NewRemote(cli)
	if err := r.CreateTopic(TopicConfig{Name: "net", Partitions: 1}); err != nil {
		t.Fatal(err)
	}
	if err := r.PushBatch("net", 0, [][]byte{[]byte(`{"a":1}`)}); err != nil {
		t.Fatal(err)
	}
	evs, err := r.Pull("net", 0, 0, 10)
	if err != nil || len(evs) != 1 || string(evs[0].Metadata) != `{"a":1}` {
		t.Fatalf("TCP pull = %+v, %v", evs, err)
	}
	// Broker-side view agrees.
	tp, err := b.OpenTopic("net")
	if err != nil || tp.Events() != 1 {
		t.Fatalf("broker topic events = %d, %v", tp.Events(), err)
	}
}

// fencedBroker is a broker service that also takes the fenced push, so the
// fuzzer reaches both of Serve's push paths without the cluster package.
type fencedBroker struct{ Service }

func (f fencedBroker) PushFenced(topic string, partition int, _ string, _, epoch uint64, metas [][]byte) (uint64, error) {
	return epoch, f.PushBatch(topic, partition, metas)
}

// FuzzServe: whatever bytes arrive under any of the seven RPC names, a handler
// neither panics nor answers anything but JSON, a request its decoder refuses
// is an error, and the service behind it stays usable.
func FuzzServe(f *testing.F) {
	names := []string{rpcCreateTopic, rpcTopics, rpcTopicInfo, rpcPush, rpcPull, rpcPartInfo, rpcPing}
	decodes := map[string]func([]byte) error{
		rpcCreateTopic: func(b []byte) error { return json.Unmarshal(b, new(TopicConfig)) },
		rpcTopicInfo:   func(b []byte) error { return json.Unmarshal(b, new(string)) },
		rpcPush:        func(b []byte) error { return json.Unmarshal(b, new(pushRequest)) },
		rpcPull:        func(b []byte) error { return json.Unmarshal(b, new(pullRequest)) },
		rpcPartInfo:    func(b []byte) error { return json.Unmarshal(b, new(partitionRequest)) },
	}
	for i, req := range []string{
		`{"name":"wire","partitions":2}`,
		`{}`,
		`"t"`,
		`{"topic":"t","partition":0,"metas":[{"i":0},{"i":1,"s":"aé"}]}`,
		`{"topic":"t","partition":0,"from":0,"max":10}`,
		`{"topic":"t","partition":1}`,
		`{}`,
	} {
		f.Add(uint8(i), []byte(req))
	}
	f.Add(uint8(3), []byte(`{"topic":"t","partition":1,"metas":[{"i":3}],"producer":"p1","seq":1,"epoch":1}`))
	f.Add(uint8(3), []byte(`{"topic":"t","partition":-1,"metas":[[1],null]}`))
	f.Add(uint8(3), []byte(`{"topic":`))
	f.Add(uint8(4), []byte(`{"topic":"t","partition":0,"from":18446744073709551615,"max":-5}`))
	f.Add(uint8(0), []byte(`{"name":"big","partitions":100000}`))
	f.Add(uint8(5), []byte(`{"topic":"t","partition":1,"from":0,"max":0}`)) // a probe as older clients sent it
	f.Add(uint8(2), []byte(`"ghost"`))

	f.Fuzz(func(t *testing.T, which uint8, req []byte) {
		name := names[int(which)%len(names)]
		b := NewStandaloneBroker()
		if _, err := b.CreateTopic(TopicConfig{Name: "t", Partitions: 2}); err != nil {
			t.Fatal(err)
		}
		for _, svc := range []Service{b.Service(), fencedBroker{b.Service()}} {
			ep := mercury.NewEndpoint("fuzz")
			Serve(ep, svc)
			resp, err := ep.Call(name, req)
			if err == nil && !json.Valid(resp) {
				t.Fatalf("%s(%q) answered %q, not JSON", name, req, resp)
			}
			if decode := decodes[name]; decode != nil && decode(req) != nil && err == nil {
				t.Fatalf("%s accepted %q, which its request type does not decode", name, req)
			}
		}
		if err := b.Service().Ping(); err != nil {
			t.Fatalf("broker unusable after %s(%q): %v", name, req, err)
		}
		if _, err := b.Service().Pull("t", 0, 0, 0); err != nil {
			t.Fatalf("t[0] unreadable after %s(%q): %v", name, req, err)
		}
	})
}
