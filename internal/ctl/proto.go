// Package ctl puts the traffic-control control plane on the wire: a
// newline-delimited JSON request/response protocol over TCP (or any
// net.Conn), with servers exposing the TCSP and NMS APIs and clients that
// satisfy the same interfaces as the in-process implementations. The same
// control-plane code therefore runs in three configurations: in-process
// (simulation experiments), over net.Pipe (protocol tests), and over TCP
// loopback (the live demo, the multi-process deployment harness, and the
// F4/F5 protocol benchmarks).
//
// There is one request path: a Client issues one request per round trip,
// and a Server runs ServeConn on one goroutine per connection, handling
// that connection's requests strictly in order. Concurrency comes from
// connections — a caller that wants parallelism opens more of them — so
// handlers must be safe for concurrent use across connections. There is
// deliberately no per-connection pipelining or multiplexing: a signed
// control operation costs an ed25519 verification plus the TCSP and NMS
// handlers, not wire round trips, and a pipelined, multiplexed path
// measured slower end to end (DESIGN.md §13, EXPERIMENTS.md E16).
package ctl

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// MaxMessageBytes bounds a single control message; oversized messages
// terminate the connection (control traffic must never amplify).
const MaxMessageBytes = 4 << 20

// Envelope frames every control-plane message.
type Envelope struct {
	ID      uint64          `json:"id"`
	Method  string          `json:"method,omitempty"` // set on requests
	Seq     uint64          `json:"seq,omitempty"`    // stream position, for resubscribe dedupe
	Payload json.RawMessage `json:"payload,omitempty"`
	Error   string          `json:"error,omitempty"` // set on failed responses
}

// StreamSeqer lets a stream payload carry its own global sequence number
// (e.g. a hub-wide update counter that survives reconnects). Payloads that
// don't implement it get a per-stream counter starting at 1 — enough for
// in-stream ordering, but a resuming subscriber should prefer hub-global
// sequencing so dedupe works across connections.
type StreamSeqer interface {
	StreamSeq() uint64
}

// codec reads and writes envelopes on a connection. The write side owns a
// reusable encode buffer (the "pool" is per-connection: control-plane
// connections are long-lived, so one scratch buffer per codec amortizes
// to zero steady-state allocations); the read side borrows lines out of
// the bufio buffer via ReadSlice, falling back to a reusable long-line
// buffer only for messages larger than the 64 KiB read buffer.
type codec struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer

	line []byte // long-line fallback, owned by the single reader
	mc   methodCache

	wmu  sync.Mutex
	wbuf []byte // encode scratch, guarded by wmu
}

func newCodec(conn net.Conn) *codec {
	return &codec{
		conn: conn,
		r:    bufio.NewReaderSize(conn, 64<<10),
		w:    bufio.NewWriterSize(conn, 64<<10),
	}
}

// write sends one envelope (newline framed) and flushes it.
func (c *codec) write(env *Envelope) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.wbuf = appendEnvelope(c.wbuf[:0], env)
	if len(c.wbuf) > MaxMessageBytes {
		return fmt.Errorf("ctl: message of %d bytes exceeds limit", len(c.wbuf))
	}
	c.wbuf = append(c.wbuf, '\n')
	if _, err := c.w.Write(c.wbuf); err != nil {
		return err
	}
	return c.w.Flush()
}

// readEnvelope receives one envelope into env. env.Payload borrows the
// read buffer: it is valid only until the next readEnvelope call.
func (c *codec) readEnvelope(env *Envelope) error {
	line, err := c.r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		c.line = append(c.line[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = c.r.ReadSlice('\n')
			c.line = append(c.line, line...)
			if len(c.line) > MaxMessageBytes {
				return fmt.Errorf("ctl: message exceeds limit")
			}
		}
		line = c.line
	}
	if err != nil {
		return err
	}
	if len(line) > MaxMessageBytes {
		return fmt.Errorf("ctl: message exceeds limit")
	}
	return decodeEnvelopeCached(line, env, &c.mc)
}

// marshalPayload encodes a request or response payload. Raw messages pass
// through after a framing-integrity scan (a malformed raw payload must
// fail the one request, not corrupt the connection's newline framing).
func marshalPayload(v any) (json.RawMessage, error) {
	if raw, ok := v.(json.RawMessage); ok {
		if !validRaw(raw) {
			return nil, fmt.Errorf("ctl: invalid raw payload")
		}
		return raw, nil
	}
	data, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return data, nil
}

// validRaw reports whether raw is exactly one well-formed JSON value.
func validRaw(raw []byte) bool {
	i := skipSpace(raw, 0)
	if i >= len(raw) {
		return false
	}
	j, err := scanValue(raw, i)
	if err != nil {
		return false
	}
	return skipSpace(raw, j) == len(raw)
}

// Handler dispatches one request method.
type Handler func(method string, payload json.RawMessage) (any, error)

// StreamFunc is a handler return value that turns the request into a
// server-push stream: the function is invoked after the handler returns
// (so any locks the handler held are released), pushes as many payloads as
// it wants, and its return ends the stream. The connection stays usable
// for further requests afterwards.
type StreamFunc func(push func(v any) error) error

// endOfStream is the in-band sentinel closing a stream; it travels in the
// Error field so it cannot collide with a stream payload.
const endOfStream = "ctl: end of stream"

// ServeConn answers requests on conn until it closes, strictly one at a
// time and in arrival order.
func ServeConn(conn net.Conn, h Handler) error {
	c := newCodec(conn)
	var req Envelope
	for {
		if err := c.readEnvelope(&req); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		if err := serveOne(c, req.ID, req.Method, req.Payload, h); err != nil {
			return err
		}
	}
}

// serveOne runs one request through the handler and writes its response
// (or serves its stream).
func serveOne(c *codec, id uint64, method string, payload json.RawMessage, h Handler) error {
	resp := Envelope{ID: id}
	out, herr := h(method, payload)
	if herr == nil {
		if fn, ok := out.(StreamFunc); ok {
			return serveStream(c, id, fn)
		}
	}
	if herr != nil {
		resp.Error = herr.Error()
	} else if out != nil {
		data, err := marshalPayload(out)
		if err != nil {
			resp.Error = fmt.Sprintf("ctl: marshal response: %v", err)
		} else {
			resp.Payload = data
		}
	}
	return c.write(&resp)
}

// serveStream runs one StreamFunc, pushing payloads under the request ID
// and terminating with the end-of-stream sentinel (or the stream's error).
func serveStream(c *codec, id uint64, fn StreamFunc) error {
	var pushErr error // first transport failure, reported to the caller
	var seq uint64
	push := func(v any) error {
		data, err := marshalPayload(v)
		if err != nil {
			return fmt.Errorf("ctl: marshal stream payload: %w", err)
		}
		seq++
		if sq, ok := v.(StreamSeqer); ok {
			seq = sq.StreamSeq()
		}
		if err := c.write(&Envelope{ID: id, Seq: seq, Payload: data}); err != nil {
			pushErr = err
			return err
		}
		return nil
	}
	ferr := fn(push)
	if pushErr != nil {
		return pushErr // connection is gone; no terminator can be sent
	}
	end := &Envelope{ID: id, Error: endOfStream}
	if ferr != nil {
		end.Error = ferr.Error()
	}
	return c.write(end)
}

// Server accepts connections and serves a handler on each.
type Server struct {
	ln      net.Listener
	handler Handler
	wg      sync.WaitGroup
	mu      sync.Mutex
	closed  bool
	conns   map[net.Conn]struct{}
}

// NewServer starts serving h on ln in background goroutines.
func NewServer(ln net.Listener, h Handler) *Server {
	s := &Server{ln: ln, handler: h, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

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
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				conn.Close()
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
			}()
			_ = ServeConn(conn, s.handler) // connection errors end the session
		}()
	}
}

// Addr returns the listener address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Close stops accepting and waits for in-flight connections to finish
// their current request loop (connections end when clients close).
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	err := s.ln.Close()
	return err
}

// Shutdown stops accepting AND severs every active connection — the
// crash-restart path, where in-flight streams must observe a transport
// error rather than hang. It waits for connection goroutines to exit.
func (s *Server) Shutdown() error {
	err := s.Close()
	s.mu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

// Client issues requests over one connection. Safe for concurrent use:
// calls are serialized.
type Client struct {
	c         *codec
	mu        sync.Mutex
	nextID    uint64
	timeout   time.Duration
	streaming bool
}

// NewClient wraps an established connection.
func NewClient(conn net.Conn) *Client { return &Client{c: newCodec(conn)} }

// Dial connects to a server over TCP.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("ctl: dial %s: %w", addr, err)
	}
	return NewClient(conn), nil
}

// SetTimeout bounds each subsequent Call's total round trip (write +
// read). Zero disables deadlines. Stream receives are exempt: a watch
// stream is expected to sit idle between pushes.
func (cl *Client) SetTimeout(d time.Duration) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	cl.timeout = d
}

// Call issues a request and decodes the response payload into out
// (out may be nil to discard).
func (cl *Client) Call(method string, in, out any) error {
	var payload json.RawMessage
	if in != nil {
		data, err := marshalPayload(in)
		if err != nil {
			return fmt.Errorf("ctl: marshal request: %w", err)
		}
		payload = data
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.streaming {
		return fmt.Errorf("ctl: connection busy with an active stream")
	}
	if cl.timeout > 0 {
		if err := cl.c.conn.SetDeadline(time.Now().Add(cl.timeout)); err != nil {
			return err
		}
		defer cl.c.conn.SetDeadline(time.Time{})
	}
	cl.nextID++
	req := Envelope{ID: cl.nextID, Method: method, Payload: payload}
	if err := cl.c.write(&req); err != nil {
		return err
	}
	var resp Envelope
	if err := cl.c.readEnvelope(&resp); err != nil {
		return err
	}
	if resp.ID != req.ID {
		return fmt.Errorf("ctl: response id %d for request %d", resp.ID, req.ID)
	}
	if resp.Error != "" {
		return fmt.Errorf("ctl: remote error: %s", resp.Error)
	}
	if out != nil && resp.Payload != nil {
		// resp.Payload borrows the read buffer; it is consumed here,
		// before the next read, while the connection lock is still held.
		if err := json.Unmarshal(resp.Payload, out); err != nil {
			return fmt.Errorf("ctl: decode response: %w", err)
		}
	}
	return nil
}

// Stream is the client side of a server-push stream.
type Stream struct {
	cl   *Client
	id   uint64
	seq  uint64
	done bool
}

// Seq returns the sequence number of the last payload Recv decoded —
// resubscribing clients pass it back so the server can skip already-seen
// updates and the client can dedupe replays.
func (s *Stream) Seq() uint64 { return s.seq }

// Subscribe issues a streaming request. Until the stream ends (Recv
// returns io.EOF or an error) the connection is dedicated to it and Call
// fails fast.
func (cl *Client) Subscribe(method string, in any) (*Stream, error) {
	var payload json.RawMessage
	if in != nil {
		data, err := marshalPayload(in)
		if err != nil {
			return nil, fmt.Errorf("ctl: marshal request: %w", err)
		}
		payload = data
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.streaming {
		return nil, fmt.Errorf("ctl: connection busy with an active stream")
	}
	cl.nextID++
	req := Envelope{ID: cl.nextID, Method: method, Payload: payload}
	if err := cl.c.write(&req); err != nil {
		return nil, err
	}
	cl.streaming = true
	return &Stream{cl: cl, id: req.ID}, nil
}

// Recv decodes the next pushed payload into out. It returns io.EOF when
// the server ends the stream cleanly and the remote error if it aborts;
// either way the connection is usable for Calls again.
func (s *Stream) Recv(out any) error {
	if s.done {
		return io.EOF
	}
	// Streams are idle-tolerant: clear any Call deadline left on the conn.
	if err := s.cl.c.conn.SetDeadline(time.Time{}); err != nil {
		return err
	}
	var env Envelope
	if err := s.cl.c.readEnvelope(&env); err != nil {
		s.finish()
		if err == io.EOF {
			// A clean end arrives as the endOfStream sentinel below; a raw
			// transport EOF means the server died mid-stream. Distinguish
			// them so resubscribing clients know to reconnect.
			return io.ErrUnexpectedEOF
		}
		return err
	}
	if env.ID != s.id {
		s.finish()
		return fmt.Errorf("ctl: stream envelope id %d, want %d", env.ID, s.id)
	}
	if env.Error == endOfStream {
		s.finish()
		return io.EOF
	}
	if env.Error != "" {
		s.finish()
		return fmt.Errorf("ctl: remote error: %s", env.Error)
	}
	if env.Seq != 0 {
		s.seq = env.Seq
	}
	if out != nil && env.Payload != nil {
		if err := json.Unmarshal(env.Payload, out); err != nil {
			return fmt.Errorf("ctl: decode stream payload: %w", err)
		}
	}
	return nil
}

// finish marks the stream over and releases the connection for Calls.
func (s *Stream) finish() {
	if s.done {
		return
	}
	s.done = true
	s.cl.mu.Lock()
	s.cl.streaming = false
	s.cl.mu.Unlock()
}

// Close closes the underlying connection.
func (cl *Client) Close() error { return cl.c.conn.Close() }
