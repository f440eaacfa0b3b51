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

// TestWireGolden pins the bytes of all nine mofka.* RPCs — requests as
// mofka.Remote writes them, responses and error texts as a standalone broker
// and a cluster gateway answer them — plus the gateway's fenced push. The
// golden pins this build's bytes: every client and server of these RPCs is in
// this repository, so a change that moves them regenerates it with
// -update-wire and says which lines moved.
func TestWireGolden(t *testing.T) {
	var out bytes.Buffer
	for _, dep := range []string{"broker", "gateway"} {
		fmt.Fprintf(&out, "== %s\n", dep)
		ep := mercury.NewEndpoint("wire")
		var closeDep func() error
		if dep == "broker" {
			b := mofka.NewStandaloneBroker()
			mofka.Serve(ep, b.Service())
			closeDep = b.Close
		} else {
			c := newTestCluster(t, 3, 2)
			c.RegisterRPCs(ep)
			closeDep = c.Close
		}
		tap := wireTap{ep, &out}
		r := mofka.NewRemote(tap)

		_ = r.CreateTopic(mofka.TopicConfig{Name: "wire", Partitions: 2})
		_ = r.CreateTopic(mofka.TopicConfig{Name: "wire"}) // reopen with the count left out
		_, _ = r.Topics()
		_, _, _ = r.TopicInfo("wire")
		_ = r.PushBatch("wire", 0, [][]byte{[]byte(`{"i":0}`), []byte(`{"i":1,"s":"a\u00e9"}`)})
		_ = r.PushBatch("wire", 1, [][]byte{[]byte(`{"i":2}`)})
		_, _ = r.Pull("wire", 0, 0, 10)
		_, _ = r.Pull("wire", 0, 1, 10)
		_, _ = r.Pull("wire", 1, 5, 10) // past the end
		_ = r.Commit("cons", "wire", 0, 2)
		_, _ = r.Cursor("cons", "wire", 0)
		_, _ = r.Cursor("nobody", "wire", 1)
		_, _ = r.PartitionLength("wire", 0)
		_, _, _ = r.TopicInfo("wire")
		_ = r.Ping()

		// Errors cross the wire as text.
		_, _ = r.Pull("ghost", 0, 0, 1)
		_ = r.PushBatch("ghost", 0, [][]byte{[]byte(`{}`)})
		_, _, _ = r.TopicInfo("ghost")
		_, _ = r.Pull("wire", 7, 0, 1)
		_ = r.PushBatch("wire", 7, [][]byte{[]byte(`{}`)})
		_, _ = r.PartitionLength("wire", -1)
		_ = r.PushBatch("wire", 0, [][]byte{[]byte(`[1]`)}) // not an object
		_ = r.Commit("cons", "ghost", 0, 1)
		_ = r.CreateTopic(mofka.TopicConfig{Name: ""})
		_, _ = tap.Call("mofka.push", []byte(`{"topic":`))
		_, _ = tap.Call("mofka.topic_info", []byte(`7`))

		// The fenced push: a superset of the plain request. A broker ignores
		// the extra fields; the gateway dedups on (producer, seq) and fences on
		// the epoch.
		fenced := `{"topic":"wire","partition":1,"metas":[{"i":3}],"producer":"p1","seq":1,"epoch":1}`
		_, _ = tap.Call("mofka.push", []byte(fenced))
		_, _ = tap.Call("mofka.push", []byte(fenced)) // retry: applied once
		_, _ = tap.Call("mofka.push", []byte(`{"topic":"wire","partition":1,"metas":[{"i":4}],"producer":"p1","seq":2,"epoch":9}`))
		_, _ = r.PartitionLength("wire", 1)

		if err := closeDep(); err != nil {
			t.Fatal(err)
		}
		_ = r.Ping()
	}

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
