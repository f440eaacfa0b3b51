package cluster

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"taskprov/internal/mochi/mercury"
	"taskprov/internal/mofka"
)

var updateWire = flag.Bool("update-wire", false, "rewrite testdata/wire.golden from this build")

// wireTap records every call that crosses it: the RPC name, the request
// bytes, and the response bytes or the error text.
type wireTap struct {
	inner mercury.Caller
	out   *bytes.Buffer
}

func (w wireTap) Call(rpc string, req []byte) ([]byte, error) {
	resp, err := w.inner.Call(rpc, req)
	fmt.Fprintf(w.out, "%s\n> %s\n", rpc, req)
	if err != nil {
		fmt.Fprintf(w.out, "! %v\n", err)
	} else {
		fmt.Fprintf(w.out, "< %s\n", resp)
	}
	return resp, err
}

// TestWireGolden pins the bytes of the four mofka.* RPCs — requests as
// mofka.Remote writes them, responses and error texts as a broker filled in
// process answers them (every log mofkad serves is a broker: OpenLog's) —
// and the refusal of RPCs nothing serves any more: a raw mofka.commit,
// mofka.push, mofka.create_topic, mofka.ping and cluster.join. The golden pins this
// build's bytes: every client and server of these RPCs is in this
// repository, so a change that moves them regenerates it with -update-wire
// and says which lines moved.
func TestWireGolden(t *testing.T) {
	var out bytes.Buffer
	log := [][][]byte{{[]byte(`{"i":0}`), []byte(`{"i":1,"s":"a\u00e9"}`)}, {[]byte(`{"i":2}`)}}
	out.WriteString("== broker\n")
	ep := mercury.NewEndpoint("wire")
	b := mofka.NewStandaloneBroker()
	fillBroker(t, b, "wire", log)
	mofka.Serve(ep, b.Service())
	tap := wireTap{ep, &out}
	r := mofka.NewRemote(tap)

	_, _ = r.Topics()
	_, _ = r.TopicInfo("wire")
	_, _ = r.Pull("wire", 0, 0, 10)
	_, _ = r.Pull("wire", 0, 1, 10)
	_, _ = r.Pull("wire", 1, 5, 10) // past the end
	_, _ = r.PartitionLength("wire", 0)
	_, _ = r.TopicInfo("wire")

	// Errors cross the wire as text.
	_, _ = r.Pull("ghost", 0, 0, 1)
	_, _ = r.TopicInfo("ghost")
	_, _ = r.Pull("wire", 7, 0, 1)
	_, _ = r.PartitionLength("wire", -1)
	_, _ = tap.Call("mofka.topic_info", []byte(`7`))

	// RPCs that are gone: the endpoint does not know them.
	_, _ = tap.Call("mofka.commit", []byte(`{"consumer":"cons","topic":"ghost","partition":0,"next":1}`))
	_, _ = tap.Call("mofka.push", []byte(`{"topic":"wire","partition":1,"metas":[{"i":3}],"producer":"p1","seq":1,"epoch":1}`))
	_, _ = tap.Call("mofka.create_topic", []byte(`{"name":"wire","partitions":2}`))
	_, _ = tap.Call("mofka.ping", []byte(`{}`))
	_, _ = tap.Call("cluster.join", []byte(`{"address":"127.0.0.1:1"}`))

	path := filepath.Join("testdata", "wire.golden")
	if *updateWire {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("wire bytes differ from %s:\n%s", path, firstDiff(out.Bytes(), want))
	}
}

// firstDiff shows the first line at which got and want part.
func firstDiff(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) && i < len(w); i++ {
		if !bytes.Equal(g[i], w[i]) {
			return fmt.Sprintf("line %d:\n got: %s\nwant: %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(g), len(w))
}
