package ctl

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dtc/internal/auth"
	"dtc/internal/netsim"
	"dtc/internal/nms"
	"dtc/internal/ownership"
	"dtc/internal/packet"
	"dtc/internal/service"
	"dtc/internal/sim"
	"dtc/internal/tcsp"
	"dtc/internal/telemetry"
	"dtc/internal/topology"
)

func seed(b byte) []byte {
	s := make([]byte, 32)
	for i := range s {
		s[i] = b
	}
	return s
}

func TestEnvelopeRoundTripOverPipe(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	done := make(chan error, 1)
	go func() {
		done <- ServeConn(b, func(method string, payload json.RawMessage) (any, error) {
			if method == "echo" {
				var s string
				if err := json.Unmarshal(payload, &s); err != nil {
					return nil, err
				}
				return "echo:" + s, nil
			}
			return nil, fmt.Errorf("boom")
		})
	}()
	cl := NewClient(a)
	var out string
	if err := cl.Call("echo", "hi", &out); err != nil {
		t.Fatal(err)
	}
	if out != "echo:hi" {
		t.Errorf("out = %q", out)
	}
	if err := cl.Call("other", nil, nil); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("error not propagated: %v", err)
	}
	a.Close()
	b.Close()
	<-done
}

func TestClientConcurrentCalls(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ln, func(method string, payload json.RawMessage) (any, error) {
		var v int
		if err := json.Unmarshal(payload, &v); err != nil {
			return nil, err
		}
		return v * 2, nil
	})
	defer srv.Close()
	cl, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var out int
				if err := cl.Call("double", g*1000+i, &out); err != nil {
					t.Errorf("call: %v", err)
					return
				}
				if out != 2*(g*1000+i) {
					t.Errorf("out = %d", out)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestServerConcurrencyContract pins what a Server promises: handlers run
// concurrently across connections and strictly in order within one. Each
// of K connections pipelines its whole request sequence onto the socket
// at once. Every connection's first request blocks until all K first
// requests are inside the handler, which can only happen if connections
// are served concurrently; every request checks on entry that all earlier
// requests of its connection have already returned.
func TestServerConcurrencyContract(t *testing.T) {
	const conns, perConn = 4, 8
	var entered atomic.Int32
	allIn := make(chan struct{})
	var mu sync.Mutex
	finished := make(map[int]int) // connection -> requests returned
	type req struct{ Conn, Seq int }
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ln, func(method string, payload json.RawMessage) (any, error) {
		var r req
		if err := json.Unmarshal(payload, &r); err != nil {
			return nil, err
		}
		mu.Lock()
		done := finished[r.Conn]
		mu.Unlock()
		if done != r.Seq {
			return nil, fmt.Errorf("conn %d: request %d entered with %d returned", r.Conn, r.Seq, done)
		}
		if r.Seq == 0 {
			if entered.Add(1) == conns {
				close(allIn)
			}
			select {
			case <-allIn:
			case <-time.After(10 * time.Second): // failure guard only
				return nil, errors.New("connections were served one at a time")
			}
		}
		mu.Lock()
		finished[r.Conn]++
		mu.Unlock()
		return r.Seq, nil
	})
	defer srv.Shutdown()

	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(20 * time.Second)) // failure guard only
			codec := newCodec(conn)
			for i := 0; i < perConn; i++ {
				payload, _ := json.Marshal(req{c, i})
				if err := codec.write(&Envelope{ID: uint64(i + 1), Method: "seq", Payload: payload}); err != nil {
					t.Error(err)
					return
				}
			}
			for i := 0; i < perConn; i++ {
				var resp Envelope
				if err := codec.readEnvelope(&resp); err != nil {
					t.Error(err)
					return
				}
				if resp.ID != uint64(i+1) || resp.Error != "" || string(resp.Payload) != fmt.Sprint(i) {
					t.Errorf("conn %d response %d = id %d %q %s", c, i, resp.ID, resp.Error, resp.Payload)
				}
			}
		}(c)
	}
	wg.Wait()
}

// countingBackend is a concurrency-safe tcsp.Backend that only counts.
type countingBackend struct{ deploys, controls atomic.Int64 }

func (b *countingBackend) Deploy(*auth.Certificate, *auth.SignedRequest) (*nms.DeployResult, error) {
	b.deploys.Add(1)
	return &nms.DeployResult{}, nil
}

func (b *countingBackend) Control(*auth.Certificate, *auth.SignedRequest) (*nms.ControlResult, error) {
	b.controls.Add(1)
	return &nms.ControlResult{}, nil
}

// TestTCSPHandlerConcurrentClients drives one TCSPHandler server from many
// clients at once — register, deploy, control and report on every
// connection — with no lock around the TCSP: the TCSP must synchronize
// itself (run under -race).
func TestTCSPHandlerConcurrentClients(t *testing.T) {
	const users = 8
	authority := ownership.NewRegistry()
	for i := 0; i < users; i++ {
		if err := authority.Allocate(netsim.NodePrefix(i), ownership.OwnerID(fmt.Sprintf("user%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	caID, _ := auth.NewIdentity("tcsp", seed(4))
	tc := tcsp.New(caID, authority, func() int64 { return 0 })
	backend := &countingBackend{}
	if err := tc.AddISP("isp1", backend); err != nil {
		t.Fatal(err)
	}
	var hookCalls atomic.Int64
	tc.OnReport(func(string, []*telemetry.Snapshot) { hookCalls.Add(1) })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ln, TCSPHandler(tc))
	defer srv.Shutdown()

	var wg sync.WaitGroup
	for i := 0; i < users; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl, err := Dial(ln.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close()
			tcl := NewTCSPClient(cl)
			owner := fmt.Sprintf("user%d", i)
			prefix := netsim.NodePrefix(i).String()
			id, _ := auth.NewIdentity(owner, seed(byte(10+i)))
			cert, err := tcl.Register(id, []string{prefix})
			if err != nil {
				t.Errorf("%s register: %v", owner, err)
				return
			}
			body, _ := json.Marshal(&nms.DeployRequest{
				Owner: owner, Prefixes: []string{prefix},
				Spec: *service.FirewallDrop("fw", service.MatchSpec{DstPort: 666}),
			})
			if _, err := tcl.Deploy(auth.SignRequest(id, cert.Serial, 1, body), nil); err != nil {
				t.Errorf("%s deploy: %v", owner, err)
			}
			body, _ = json.Marshal(&nms.ControlRequest{Owner: owner, Op: "counters", Stage: "dest"})
			if _, err := tcl.Control(auth.SignRequest(id, cert.Serial, 2, body), nil); err != nil {
				t.Errorf("%s control: %v", owner, err)
			}
			snap := &telemetry.Snapshot{Node: uint32(i), At: 1, Seen: uint64(i)}
			if err := tcl.Report("isp1", []*telemetry.Snapshot{snap}); err != nil {
				t.Errorf("%s report: %v", owner, err)
			}
		}(i)
	}
	wg.Wait()

	serials := make(map[uint64]bool)
	for i := 0; i < users; i++ {
		cert, ok := tc.CertificateFor(fmt.Sprintf("user%d", i))
		if !ok || serials[cert.Serial] {
			t.Fatalf("user%d: certificate %v, %v (serials must be unique)", i, cert, ok)
		}
		serials[cert.Serial] = true
	}
	if d, c, h := backend.deploys.Load(), backend.controls.Load(), hookCalls.Load(); d != users || c != users || h != users {
		t.Errorf("deploys=%d controls=%d report hooks=%d, want %d each", d, c, h, users)
	}
	if n := len(tc.Telemetry().Devices()); n != users {
		t.Errorf("telemetry devices = %d, want %d", n, users)
	}
}

// liveWorld runs TCSP and two NMSes as real TCP servers on loopback, with
// the TCSP reaching the ISPs through NMSClients — the full Figure-3 role
// model over actual sockets.
type liveWorld struct {
	t       *testing.T
	sim     *sim.Simulation
	net     *netsim.Network
	user    *auth.Identity
	tcspSrv *Server
	nmsSrvs []*Server
	client  *TCSPClient
}

func newLiveWorld(t *testing.T) *liveWorld {
	t.Helper()
	s := sim.New(1)
	network, err := netsim.New(s, topology.Line(4), netsim.DefaultLink)
	if err != nil {
		t.Fatal(err)
	}
	authority := ownership.NewRegistry()
	if err := authority.Allocate(netsim.NodePrefix(3), "acme"); err != nil {
		t.Fatal(err)
	}
	caID, _ := auth.NewIdentity("tcsp", seed(1))
	clock := func() int64 { return int64(s.Now() / sim.Second) }
	tc := tcsp.New(caID, authority, clock)

	w := &liveWorld{t: t, sim: s, net: network}

	// Two NMS servers on loopback.
	nodeSets := [][]int{{0, 1}, {2, 3}}
	for i, nodes := range nodeSets {
		m, err := nms.New(fmt.Sprintf("isp%d", i+1), network, nodes, tc.PublicKey(), clock)
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := NewServer(ln, NMSHandler(m))
		w.nmsSrvs = append(w.nmsSrvs, srv)
		cl, err := Dial(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if err := tc.AddISP(fmt.Sprintf("isp%d", i+1), NewNMSClient(cl)); err != nil {
			t.Fatal(err)
		}
	}

	// TCSP server on loopback.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w.tcspSrv = NewServer(ln, TCSPHandler(tc))
	cl, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	w.client = NewTCSPClient(cl)
	w.user, _ = auth.NewIdentity("acme", seed(2))

	t.Cleanup(func() {
		w.tcspSrv.Close()
		for _, s := range w.nmsSrvs {
			s.Close()
		}
	})
	return w
}

func TestLiveRegistrationAndDeployment(t *testing.T) {
	w := newLiveWorld(t)
	if err := w.client.Ping(); err != nil {
		t.Fatal(err)
	}
	cert, err := w.client.Register(w.user, []string{netsim.NodePrefix(3).String()})
	if err != nil {
		t.Fatal(err)
	}
	if cert.Owner != "acme" {
		t.Errorf("cert owner = %q", cert.Owner)
	}

	body, _ := json.Marshal(&nms.DeployRequest{
		Owner:    "acme",
		Prefixes: []string{netsim.NodePrefix(3).String()},
		Spec:     *service.FirewallDrop("fw", service.MatchSpec{DstPort: 666}),
	})
	signed := auth.SignRequest(w.user, cert.Serial, 1, body)
	results, err := w.client.Deploy(signed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %+v", results)
	}

	// The deployment installed via TCP affects the simulated data plane.
	src, _ := w.net.AttachHost(0)
	dst, _ := w.net.AttachHost(3)
	src.Send(0, &packet.Packet{Src: src.Addr, Dst: dst.Addr, DstPort: 666, Size: 100})
	src.Send(0, &packet.Packet{Src: src.Addr, Dst: dst.Addr, DstPort: 80, Size: 100})
	if _, err := w.sim.RunAll(); err != nil {
		t.Fatal(err)
	}
	if dst.Delivered[0] != 1 {
		t.Errorf("delivered = %d, want 1", dst.Delivered[0])
	}

	// Control round trip: read counters.
	ctlBody, _ := json.Marshal(&nms.ControlRequest{Owner: "acme", Op: "counters", Stage: "dest"})
	ctlSigned := auth.SignRequest(w.user, cert.Serial, 2, ctlBody)
	ctlResults, err := w.client.Control(ctlSigned, nil)
	if err != nil {
		t.Fatal(err)
	}
	var discarded uint64
	for _, r := range ctlResults {
		for _, c := range r.Counters {
			discarded += c.Discarded
		}
	}
	if discarded != 1 {
		t.Errorf("discarded over TCP = %d, want 1", discarded)
	}
}

func TestLiveRegistrationRejectsForeignPrefix(t *testing.T) {
	w := newLiveWorld(t)
	if _, err := w.client.Register(w.user, []string{netsim.NodePrefix(1).String()}); err == nil {
		t.Error("registration for foreign prefix accepted over TCP")
	}
}

func TestUnknownMethods(t *testing.T) {
	w := newLiveWorld(t)
	if err := w.client.c.Call("nonsense", nil, nil); err == nil {
		t.Error("unknown TCSP method accepted")
	}
}
