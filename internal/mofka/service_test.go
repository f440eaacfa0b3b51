package mofka

import (
	"encoding/json"
	"testing"

	"taskprov/internal/mochi/mercury"
)

// The contract of the four operations — over a broker, a cluster, and a
// Remote to each — is TestServiceConformance in internal/mofka/cluster, the
// one package that can build all four; the bytes they put on the wire are
// pinned by TestWireGolden beside it.

func TestRemoteOverTCP(t *testing.T) {
	b := NewStandaloneBroker()
	tp, err := b.CreateTopic(TopicConfig{Name: "net", Partitions: 1})
	if err != nil {
		t.Fatal(err)
	}
	p, err := tp.Partition(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Append([][]byte{[]byte(`{"a":1}`)}, nil); err != nil {
		t.Fatal(err)
	}
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
	if parts, err := r.TopicInfo("net"); err != nil || parts != 1 {
		t.Fatalf("TCP topic info = %d, %v", parts, err)
	}
	if n, err := r.PartitionLength("net", 0); err != nil || n != 1 {
		t.Fatalf("TCP partition length = %d, %v", n, err)
	}
	evs, err := r.Pull("net", 0, 0, 10)
	if err != nil || len(evs) != 1 || string(evs[0].Metadata) != `{"a":1}` {
		t.Fatalf("TCP pull = %+v, %v", evs, err)
	}
}

// FuzzServe: whatever bytes arrive under any of the four RPC names, a handler
// neither panics nor answers anything but JSON, a request its decoder refuses
// is an error, and the service behind it stays usable.
func FuzzServe(f *testing.F) {
	names := []string{rpcTopics, rpcTopicInfo, rpcPull, rpcPartInfo}
	decodes := map[string]func([]byte) error{
		rpcTopicInfo: func(b []byte) error { return json.Unmarshal(b, new(string)) },
		rpcPull:      func(b []byte) error { return json.Unmarshal(b, new(pullRequest)) },
		rpcPartInfo:  func(b []byte) error { return json.Unmarshal(b, new(partitionRequest)) },
	}
	for i, req := range []string{
		`{}`,
		`"t"`,
		`{"topic":"t","partition":0,"from":0,"max":10}`,
		`{"topic":"t","partition":1}`,
	} {
		f.Add(uint8(i), []byte(req))
	}
	f.Add(uint8(0), []byte(`null`))
	f.Add(uint8(1), []byte(`"ghost"`))
	f.Add(uint8(1), []byte(`{"name":"t"}`))
	f.Add(uint8(2), []byte(`{"topic":"t","partition":0,"from":18446744073709551615,"max":-5}`))
	f.Add(uint8(2), []byte(`{"topic":"t","partition":-1,"from":0,"max":1}`))
	f.Add(uint8(2), []byte(`{"topic":`))
	f.Add(uint8(2), []byte(`{"topic":"ghost","partition":0,"from":0,"max":10}`))
	f.Add(uint8(3), []byte(`{"topic":"t","partition":1,"from":0,"max":0}`)) // a probe as older clients sent it
	f.Add(uint8(3), []byte(`{"topic":"t","partition":7}`))
	f.Add(uint8(3), []byte(`[1]`))

	f.Fuzz(func(t *testing.T, which uint8, req []byte) {
		name := names[int(which)%len(names)]
		b := NewStandaloneBroker()
		tp, err := b.CreateTopic(TopicConfig{Name: "t", Partitions: 2})
		if err != nil {
			t.Fatal(err)
		}
		p, err := tp.Partition(0)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Append([][]byte{[]byte(`{"i":0}`)}, nil); err != nil {
			t.Fatal(err)
		}
		ep := mercury.NewEndpoint("fuzz")
		Serve(ep, b.Service())
		resp, err := ep.Call(name, req)
		if err == nil && !json.Valid(resp) {
			t.Fatalf("%s(%q) answered %q, not JSON", name, req, resp)
		}
		if decode := decodes[name]; decode != nil && decode(req) != nil && err == nil {
			t.Fatalf("%s accepted %q, which its request type does not decode", name, req)
		}
		if evs, err := b.Service().Pull("t", 0, 0, 10); err != nil || len(evs) != 1 {
			t.Fatalf("t[0] unreadable after %s(%q): %d events, %v", name, req, len(evs), err)
		}
	})
}
