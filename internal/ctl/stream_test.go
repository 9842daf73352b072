package ctl

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"dtc/internal/auth"
	"dtc/internal/nms"
	"dtc/internal/ownership"
	"dtc/internal/tcsp"
	"dtc/internal/telemetry"
)

// streamEcho is a handler with every response shape: plain replies
// ("ping", "echo"), a computed result ("double"), a handler error ("fail"),
// a "count" stream and a failing stream.
func streamEcho(method string, payload json.RawMessage) (any, error) {
	switch method {
	case "ping":
		return "pong", nil
	case "echo":
		return payload, nil
	case "double":
		var n int
		if err := json.Unmarshal(payload, &n); err != nil {
			return nil, err
		}
		return 2 * n, nil
	case "fail":
		return nil, fmt.Errorf("nope: %s", payload)
	case "count":
		var n int
		if err := json.Unmarshal(payload, &n); err != nil {
			return nil, err
		}
		return StreamFunc(func(push func(v any) error) error {
			for i := 0; i < n; i++ {
				if err := push(i); err != nil {
					return err
				}
			}
			return nil
		}), nil
	case "fail-stream":
		return StreamFunc(func(push func(v any) error) error {
			if err := push("partial"); err != nil {
				return err
			}
			return fmt.Errorf("stream source broke")
		}), nil
	default:
		return nil, fmt.Errorf("unknown method %q", method)
	}
}

// TestClientServeConnScript runs one operation script over a single
// Client/ServeConn TCP connection: every response shape the protocol has,
// in order, ending with a Call on the same connection after the streams.
func TestClientServeConnScript(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ln, streamEcho)
	defer srv.Shutdown()
	cl, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	steps := []struct {
		name    string
		method  string
		in      any
		stream  bool
		want    string // raw JSON reply, or stream payloads joined by ","
		wantErr string // "" = success
	}{
		{"echo", "echo", "hello", false, `"hello"`, ""},
		{"computed result", "double", 21, false, `42`, ""},
		{"handler error", "fail", "reason", false, ``, `remote error: nope: "reason"`},
		{"unknown method", "missing", nil, false, ``, `remote error: unknown method "missing"`},
		{"stream", "count", 3, true, `0,1,2`, ""},
		{"failing stream", "fail-stream", nil, true, `"partial"`, `remote error: stream source broke`},
		{"call after streams", "echo", "after-stream", false, `"after-stream"`, ""},
	}
	for _, st := range steps {
		var got string
		if st.stream {
			got, err = recvAll(cl, st.method, st.in)
		} else {
			var raw json.RawMessage
			err = cl.Call(st.method, st.in, &raw)
			got = string(raw)
		}
		if st.wantErr == "" && err != nil {
			t.Errorf("%s: unexpected error %v", st.name, err)
		} else if st.wantErr != "" && (err == nil || !strings.Contains(err.Error(), st.wantErr)) {
			t.Errorf("%s: error %v, want %q", st.name, err, st.wantErr)
		}
		if got != st.want {
			t.Errorf("%s: got %s, want %s", st.name, got, st.want)
		}
	}
}

// recvAll subscribes and drains the stream, returning its payloads joined
// by commas and the error that ended it (nil for a clean end).
func recvAll(cl *Client, method string, in any) (string, error) {
	st, err := cl.Subscribe(method, in)
	if err != nil {
		return "", err
	}
	var items []string
	for {
		var raw json.RawMessage
		if err := st.Recv(&raw); err != nil {
			if err == io.EOF {
				err = nil
			}
			return strings.Join(items, ","), err
		}
		items = append(items, string(raw))
	}
}

func TestStreamRoundTrip(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	go func() { _ = ServeConn(b, streamEcho) }()
	cl := NewClient(a)

	st, err := cl.Subscribe("count", 3)
	if err != nil {
		t.Fatal(err)
	}
	// The connection is dedicated to the stream until it ends.
	if err := cl.Call("ping", nil, nil); err == nil || !strings.Contains(err.Error(), "busy") {
		t.Fatalf("Call during stream = %v, want busy error", err)
	}
	var got []int
	for {
		var v int
		err := st.Recv(&v)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, v)
	}
	if len(got) != 3 || got[0] != 0 || got[2] != 2 {
		t.Fatalf("stream values = %v", got)
	}
	// After the stream the same connection serves plain calls again.
	var s string
	if err := cl.Call("ping", nil, &s); err != nil || s != "pong" {
		t.Fatalf("Call after stream: %v, %q", err, s)
	}
	// Recv past the end keeps returning EOF.
	if err := st.Recv(nil); err != io.EOF {
		t.Fatalf("Recv after end = %v", err)
	}
}

func TestStreamErrorPropagates(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	go func() { _ = ServeConn(b, streamEcho) }()
	cl := NewClient(a)
	st, err := cl.Subscribe("fail-stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	var s string
	if err := st.Recv(&s); err != nil || s != "partial" {
		t.Fatalf("first Recv: %v, %q", err, s)
	}
	if err := st.Recv(nil); err == nil || !strings.Contains(err.Error(), "stream source broke") {
		t.Fatalf("stream error = %v", err)
	}
	// The connection is released even after an errored stream.
	var out string
	if err := cl.Call("ping", nil, &out); err != nil || out != "pong" {
		t.Fatalf("Call after errored stream: %v, %q", err, out)
	}
}

func TestCallTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// A server that reads requests but never answers.
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() { _, _ = io.Copy(io.Discard, conn) }()
		}
	}()
	cl, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.SetTimeout(50 * time.Millisecond)
	start := time.Now()
	err = cl.Call("ping", nil, nil)
	if err == nil {
		t.Fatal("Call against a mute server succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline did not bound the call: took %v", elapsed)
	}
	ne, ok := err.(net.Error)
	if !ok || !ne.Timeout() {
		t.Fatalf("error = %v, want a net timeout", err)
	}
}

func TestDialRetryEventuallyConnects(t *testing.T) {
	// Reserve an address, close the listener, and bring a real server up
	// shortly after the first dial attempts have failed.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	srvUp := make(chan *Server, 1)
	go func() {
		time.Sleep(150 * time.Millisecond)
		ln2, err := net.Listen("tcp", addr)
		if err != nil {
			srvUp <- nil
			return
		}
		srvUp <- NewServer(ln2, streamEcho)
	}()
	cl, err := DialRetry(addr, 6, 50*time.Millisecond)
	if srv := <-srvUp; srv != nil {
		defer srv.Close()
	} else {
		t.Skip("could not rebind reserved address")
	}
	if err != nil {
		t.Fatalf("DialRetry: %v", err)
	}
	defer cl.Close()
	var s string
	if err := cl.Call("ping", nil, &s); err != nil || s != "pong" {
		t.Fatalf("ping after retry-dial: %v, %q", err, s)
	}
}

func TestDialRetryGivesUp(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	start := time.Now()
	if _, err := DialRetry(addr, 3, 10*time.Millisecond); err == nil {
		t.Fatal("DialRetry to a dead address succeeded")
	} else if !strings.Contains(err.Error(), "after 3 attempts") {
		t.Fatalf("error = %v", err)
	}
	// Backoff 10+20 = 30ms minimum, but bounded.
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("retry loop unbounded: %v", elapsed)
	}
}

// nullBackend satisfies tcsp.Backend for tests that never deploy.
type nullBackend struct{}

func (nullBackend) Deploy(*auth.Certificate, *auth.SignedRequest) (*nms.DeployResult, error) {
	return nil, fmt.Errorf("null backend")
}
func (nullBackend) Control(*auth.Certificate, *auth.SignedRequest) (*nms.ControlResult, error) {
	return nil, fmt.Errorf("null backend")
}

func TestReportOverWire(t *testing.T) {
	// End-to-end report path: TCSP handler decodes canonical snapshots and
	// the store aggregates them.
	caID, _ := auth.NewIdentity("tcsp", seed(3))
	tc := tcsp.New(caID, ownership.NewRegistry(), func() int64 { return 0 })
	if err := tc.AddISP("isp1", nullBackend{}); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ln, TCSPHandler(tc))
	defer srv.Close()

	cl, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	tcl := NewTCSPClient(cl)
	snap := &telemetry.Snapshot{
		Node: 2, At: 1_000_000_000, Seen: 10,
		Services: []telemetry.ServiceCounters{{Owner: "alice", Stage: 1, Processed: 4}},
	}
	if err := tcl.Report("isp1", []*telemetry.Snapshot{snap}); err != nil {
		t.Fatal(err)
	}
	got, ok := tc.Telemetry().Latest(telemetry.Key{ISP: "isp1", Node: 2})
	if !ok || got.Seen != 10 || len(got.Services) != 1 {
		t.Fatalf("store latest = %+v, %v", got, ok)
	}
	// Unknown ISPs are rejected.
	if err := tcl.Report("mallory-isp", []*telemetry.Snapshot{snap}); err == nil {
		t.Fatal("report from unknown ISP accepted")
	}
}
