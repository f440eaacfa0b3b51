// Package mercury is a small RPC fabric inspired by the Mochi suite's
// Mercury/Margo layer: named endpoints expose handlers, and clients call
// them by address over one transport, a length-prefixed TCP wire protocol
// (the standalone broker daemon and its cluster members speak it). A
// session makes no RPC: its producers append to their broker directly.
package mercury

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Handler processes one RPC. It receives the request payload and returns the
// response payload. Returning an error propagates a remote error string to
// the caller.
type Handler func(req []byte) ([]byte, error)

// ErrNoRPC is returned when calling an RPC name the endpoint does not expose.
var ErrNoRPC = errors.New("mercury: no such rpc")

// ErrTimeout is returned when a call exceeds its deadline: the peer is
// unreachable or wedged, as opposed to a handler returning an error
// (RemoteError). Callers use the distinction to decide between retrying
// elsewhere and surfacing the handler failure.
var ErrTimeout = errors.New("mercury: call timed out")

// RemoteError wraps an error string produced by a remote handler.
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return "mercury: remote: " + e.Msg }

// Endpoint is a service-side RPC dispatch table. Serve puts it on the wire;
// as a Caller it is the same dispatch without the wire.
type Endpoint struct {
	addr     string
	mu       sync.RWMutex
	handlers map[string]Handler
}

// NewEndpoint creates an endpoint with the given address label.
func NewEndpoint(addr string) *Endpoint {
	return &Endpoint{addr: addr, handlers: make(map[string]Handler)}
}

// Register installs a handler for the RPC name, replacing any previous one.
func (e *Endpoint) Register(name string, h Handler) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.handlers[name] = h
}

// Call runs the handler for rpc: what a Server does with each request that
// arrives, and what makes an Endpoint a Caller.
func (e *Endpoint) Call(rpc string, req []byte) ([]byte, error) {
	e.mu.RLock()
	h := e.handlers[rpc]
	e.mu.RUnlock()
	if h == nil {
		return nil, fmt.Errorf("%w: %q on %s", ErrNoRPC, rpc, e.addr)
	}
	return h(req)
}

// Wire format (all integers big-endian uint32):
//
//	request:  len(name) name len(payload) payload
//	response: status(0 ok, 1 error) len(payload) payload
//
// One request/response pair at a time per connection; clients that need
// concurrency open multiple connections.

const (
	maxFrame   = 64 << 20 // 64 MiB guards against corrupt length prefixes
	frameChunk = 64 << 10 // what a frame's length prefix may allocate up front
)

func writeFrame(w io.Writer, b []byte) error {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(b)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(b)
	return err
}

func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("mercury: frame of %d bytes exceeds limit", n)
	}
	// The prefix is the peer's claim: a frame up to frameChunk is read into one
	// allocation of its size, a larger one grows as its bytes arrive, so a
	// four-byte header cannot cost 64 MiB. (The MinRead of slack lets the
	// buffer see the end of the frame without growing.)
	buf := bytes.NewBuffer(make([]byte, 0, min(int(n), frameChunk)+bytes.MinRead))
	if _, err := io.CopyN(buf, r, int64(n)); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return buf.Bytes(), nil
}

// Server serves an endpoint's handlers over TCP.
type Server struct {
	ep *Endpoint
	ln net.Listener
	wg sync.WaitGroup // the accept loop, and one per accepted connection

	mu     sync.Mutex
	conns  map[net.Conn]struct{} // accepted and not yet closed
	closed bool
}

// Serve starts a TCP server for the endpoint on the given listen address
// (e.g. "127.0.0.1:0"). The returned server reports its actual address via
// Addr.
func Serve(ep *Endpoint, listen string) (*Server, error) {
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return nil, err
	}
	s := &Server{ep: ep, ln: ln, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's listen address (host:port).
func (s *Server) Addr() string { return s.ln.Addr().String() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
			_ = conn.Close()
		}()
	}
}

func (s *Server) serveConn(conn net.Conn) {
	for {
		name, err := readFrame(conn)
		if err != nil {
			return
		}
		req, err := readFrame(conn)
		if err != nil {
			return
		}
		resp, herr := s.ep.Call(string(name), req)
		var status [1]byte
		if herr != nil {
			status[0] = 1
			resp = []byte(herr.Error())
		}
		if _, err := conn.Write(status[:]); err != nil {
			return
		}
		if err := writeFrame(conn, resp); err != nil {
			return
		}
	}
}

// Close stops accepting, closes every connection the server accepted — a
// client dialled before Close gets an error from its next call — and returns
// once the accept loop and every connection's goroutine have exited: a
// request in flight runs its handler to the end, and its answer is lost.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	err := s.ln.Close()
	for conn := range s.conns {
		_ = conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

// DefaultCallTimeout bounds each Call. A dead peer must surface as ErrTimeout
// rather than blocking the caller forever.
const DefaultCallTimeout = 30 * time.Second

// Client is a TCP RPC client with a single underlying connection. Calls are
// serialized; it is safe for concurrent use.
type Client struct {
	addr    string
	mu      sync.Mutex
	conn    net.Conn
	closed  bool
	timeout time.Duration
}

// Dial connects to a TCP mercury server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Client{addr: addr, conn: conn, timeout: DefaultCallTimeout}, nil
}

// Call performs one RPC over the client's connection, bounded by the
// per-call timeout. A deadline expiry returns ErrTimeout (wrapped) and tears
// down the connection — the request/response stream is mid-frame and cannot
// be reused — so the next Call redials.
func (c *Client) Call(rpc string, req []byte) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, errors.New("mercury: client closed")
	}
	if c.conn == nil {
		conn, err := net.Dial("tcp", c.addr)
		if err != nil {
			return nil, err
		}
		c.conn = conn
	}
	if err := c.conn.SetDeadline(time.Now().Add(c.timeout)); err != nil {
		return nil, err
	}
	resp, err := c.doCall(rpc, req)
	if err != nil {
		var rerr *RemoteError
		if !errors.As(err, &rerr) {
			// Transport failure: the connection state is unknown, drop it so
			// the next call starts clean.
			_ = c.conn.Close()
			c.conn = nil
			if nerr, ok := err.(net.Error); ok && nerr.Timeout() {
				return nil, fmt.Errorf("%w: %s %q after %v", ErrTimeout, c.addr, rpc, c.timeout)
			}
		}
		return nil, err
	}
	return resp, nil
}

func (c *Client) doCall(rpc string, req []byte) ([]byte, error) {
	if err := writeFrame(c.conn, []byte(rpc)); err != nil {
		return nil, err
	}
	if err := writeFrame(c.conn, req); err != nil {
		return nil, err
	}
	var status [1]byte
	if _, err := io.ReadFull(c.conn, status[:]); err != nil {
		return nil, err
	}
	resp, err := readFrame(c.conn)
	if err != nil {
		return nil, err
	}
	if status[0] != 0 {
		return nil, &RemoteError{Msg: string(resp)}
	}
	return resp, nil
}

// Close tears down the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}

// Caller abstracts "something that can issue RPCs to an address", satisfied
// by a TCP Client and by an Endpoint itself.
type Caller interface {
	Call(rpc string, req []byte) ([]byte, error)
}
