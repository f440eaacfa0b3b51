package mercury

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRegistryCall: a handler registered on an endpoint answers a call
// made on that endpoint in process.
func TestRegistryCall(t *testing.T) {
	ep := NewEndpoint("svc")
	ep.Register("echo", func(req []byte) ([]byte, error) { return req, nil })
	resp, err := ep.Call("echo", []byte("hi"))
	if err != nil || string(resp) != "hi" {
		t.Fatalf("echo = %q, %v", resp, err)
	}
}

// TestRegistryUnknownEndpointAndRPC: an RPC name the endpoint does not
// expose is ErrNoRPC in process and a RemoteError naming ErrNoRPC over
// TCP; once its server is closed, the endpoint's address cannot be dialled.
func TestRegistryUnknownEndpointAndRPC(t *testing.T) {
	ep := NewEndpoint("svc")
	srv, err := Serve(ep, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ep.Call("x", nil); !errors.Is(err, ErrNoRPC) {
		t.Fatalf("in process: err = %v, want ErrNoRPC", err)
	}
	var re *RemoteError
	if _, err := cli.Call("x", nil); !errors.As(err, &re) || !strings.Contains(re.Msg, ErrNoRPC.Error()) {
		t.Fatalf("over TCP: err = %v, want a RemoteError naming ErrNoRPC", err)
	}
	cli.Close()
	srv.Close()
	if c, err := Dial(addr); err == nil {
		c.Close()
		t.Fatalf("Dial(%s) after server Close succeeded", addr)
	}
}

// TestBoundCaller: an Endpoint is itself a Caller, and answers a call with
// the same bytes as a Client dialled to the same endpoint over TCP.
func TestBoundCaller(t *testing.T) {
	ep := NewEndpoint("svc")
	ep.Register("double", func(req []byte) ([]byte, error) {
		return append(req, req...), nil
	})
	srv, err := Serve(ep, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	for _, c := range []Caller{ep, cli} {
		resp, err := c.Call("double", []byte("ab"))
		if err != nil || string(resp) != "abab" {
			t.Fatalf("%T: double = %q, %v", c, resp, err)
		}
	}
}

func TestTCPRoundTrip(t *testing.T) {
	ep := NewEndpoint("tcp-svc")
	ep.Register("sum", func(req []byte) ([]byte, error) {
		var s byte
		for _, b := range req {
			s += b
		}
		return []byte{s}, nil
	})
	srv, err := Serve(ep, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	resp, err := cli.Call("sum", []byte{1, 2, 3})
	if err != nil || len(resp) != 1 || resp[0] != 6 {
		t.Fatalf("sum = %v, %v", resp, err)
	}
}

func TestTCPRemoteError(t *testing.T) {
	ep := NewEndpoint("tcp-svc")
	ep.Register("fail", func(req []byte) ([]byte, error) {
		return nil, fmt.Errorf("boom: %s", req)
	})
	srv, err := Serve(ep, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	_, err = cli.Call("fail", []byte("x"))
	var re *RemoteError
	if !errors.As(err, &re) || re.Msg != "boom: x" {
		t.Fatalf("err = %v, want RemoteError(boom: x)", err)
	}
}

func TestTCPLargePayload(t *testing.T) {
	ep := NewEndpoint("tcp-svc")
	ep.Register("echo", func(req []byte) ([]byte, error) { return req, nil })
	srv, err := Serve(ep, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	big := bytes.Repeat([]byte{0xAB}, 4<<20)
	resp, err := cli.Call("echo", big)
	if err != nil || !bytes.Equal(resp, big) {
		t.Fatalf("large echo mismatch (len %d, err %v)", len(resp), err)
	}
}

func TestTCPConcurrentClients(t *testing.T) {
	ep := NewEndpoint("tcp-svc")
	ep.Register("echo", func(req []byte) ([]byte, error) { return req, nil })
	srv, err := Serve(ep, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cli, err := Dial(srv.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer cli.Close()
			for j := 0; j < 50; j++ {
				msg := []byte(fmt.Sprintf("client-%d-msg-%d", i, j))
				resp, err := cli.Call("echo", msg)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(resp, msg) {
					errs <- fmt.Errorf("mismatch: %q vs %q", resp, msg)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestTCPClientSharedAcrossGoroutines(t *testing.T) {
	ep := NewEndpoint("tcp-svc")
	ep.Register("echo", func(req []byte) ([]byte, error) { return req, nil })
	srv, err := Serve(ep, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	var wg sync.WaitGroup
	fail := make(chan string, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			msg := []byte(fmt.Sprintf("m%d", i))
			resp, err := cli.Call("echo", msg)
			if err != nil || !bytes.Equal(resp, msg) {
				fail <- fmt.Sprintf("resp=%q err=%v", resp, err)
			}
		}(i)
	}
	wg.Wait()
	close(fail)
	for f := range fail {
		t.Fatal(f)
	}
}

func TestCallAfterClientClose(t *testing.T) {
	ep := NewEndpoint("tcp-svc")
	srv, err := Serve(ep, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	cli.Close()
	if _, err := cli.Call("x", nil); err == nil {
		t.Fatal("call on closed client succeeded")
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv, err := Serve(NewEndpoint("x"), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestServerCloseEndsAcceptedConnections: a client dialled before Close, and
// answered then, gets an error from its next call once Close has returned.
func TestServerCloseEndsAcceptedConnections(t *testing.T) {
	ep := NewEndpoint("x")
	ep.Register("echo", func(req []byte) ([]byte, error) { return req, nil })
	srv, err := Serve(ep, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cli.Close() }()
	cli.SetTimeout(5 * time.Second)
	if resp, err := cli.Call("echo", []byte("before")); err != nil || string(resp) != "before" {
		t.Fatalf("echo before Close = %q, %v", resp, err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if resp, err := cli.Call("echo", []byte("after")); err == nil {
		t.Fatalf("echo after Close answered %q", resp)
	}
}

func TestFrameLimitRejected(t *testing.T) {
	// A corrupt length prefix must not cause a giant allocation.
	var buf bytes.Buffer
	if err := writeFrame(&buf, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	if _, err := readFrame(&buf); err != nil {
		t.Fatal(err)
	}
	// Forge an oversized prefix.
	bad := []byte{0xFF, 0xFF, 0xFF, 0xFF, 'x'}
	if _, err := readFrame(bytes.NewReader(bad)); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func TestCallTimeout(t *testing.T) {
	// A handler that wedges long enough for the client deadline to fire.
	release := make(chan struct{})
	ep := NewEndpoint("tcp-svc")
	ep.Register("wedge", func(req []byte) ([]byte, error) {
		<-release
		return req, nil
	})
	ep.Register("echo", func(req []byte) ([]byte, error) { return req, nil })
	srv, err := Serve(ep, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer close(release)
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	cli.SetTimeout(50 * time.Millisecond)
	_, err = cli.Call("wedge", []byte("x"))
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	// The timed-out connection is discarded; the next call redials and works.
	cli.SetTimeout(5 * time.Second)
	resp, err := cli.Call("echo", []byte("y"))
	if err != nil || string(resp) != "y" {
		t.Fatalf("post-timeout call = %q, %v", resp, err)
	}
}

func TestTimeoutDistinctFromRemoteError(t *testing.T) {
	ep := NewEndpoint("tcp-svc")
	ep.Register("fail", func(req []byte) ([]byte, error) { return nil, errors.New("handler says no") })
	srv, err := Serve(ep, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	cli.SetTimeout(time.Second)
	_, err = cli.Call("fail", nil)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
	if errors.Is(err, ErrTimeout) {
		t.Fatal("a handler error must not be classified as a timeout")
	}
}
