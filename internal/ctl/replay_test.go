package ctl

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"dtc/internal/auth"
	"dtc/internal/netsim"
	"dtc/internal/nms"
	"dtc/internal/service"
)

// registerAndDeploy registers the live world's user and deploys a filter
// under nonce 1, returning the certificate.
func (w *liveWorld) registerAndDeploy() *auth.Certificate {
	w.t.Helper()
	cert, err := w.client.Register(w.user, []string{netsim.NodePrefix(3).String()})
	if err != nil {
		w.t.Fatal(err)
	}
	if _, err := w.client.Deploy(auth.SignRequest(w.user, cert.Serial, 1, w.deployBody()), nil); err != nil {
		w.t.Fatal(err)
	}
	return cert
}

func (w *liveWorld) deployBody() []byte {
	body, err := json.Marshal(&nms.DeployRequest{
		Owner:    "acme",
		Prefixes: []string{netsim.NodePrefix(3).String()},
		Spec:     *service.FirewallDrop("fw", service.MatchSpec{DstPort: 666}),
	})
	if err != nil {
		w.t.Fatal(err)
	}
	return body
}

func (w *liveWorld) countersBody() []byte {
	body, err := json.Marshal(&nms.ControlRequest{Owner: "acme", Op: "counters", Stage: "dest"})
	if err != nil {
		w.t.Fatal(err)
	}
	return body
}

// TestReplayOverTCP resends a captured control frame byte for byte: the
// TCSP served it once and refuses it the second time.
func TestReplayOverTCP(t *testing.T) {
	w := newLiveWorld(t)
	cert := w.registerAndDeploy()
	frame, err := json.Marshal(&ControlParams{Signed: auth.SignRequest(w.user, cert.Serial, 2, w.countersBody())})
	if err != nil {
		t.Fatal(err)
	}
	var res []*nms.ControlResult
	if err := w.client.c.Call("control", json.RawMessage(frame), &res); err != nil || len(res) != 2 {
		t.Fatalf("first delivery: %v, %d results", err, len(res))
	}
	// A second connection, as an eavesdropper would open.
	cl, err := Dial(w.tcspSrv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for _, c := range []*Client{w.client.c, cl} {
		if err := c.Call("control", json.RawMessage(frame), &res); err == nil || !strings.Contains(err.Error(), "replayed") {
			t.Errorf("replayed frame: %v", err)
		}
	}
}

// TestReplayReorderAcrossConnections sends one serial's nonces over two
// connections: first a deterministic reorder (nonce 3 lands before 2),
// then both connections concurrently, which interleaves arrivals
// arbitrarily but never by more than the window.
func TestReplayReorderAcrossConnections(t *testing.T) {
	w := newLiveWorld(t)
	cert := w.registerAndDeploy()
	cl, err := Dial(w.tcspSrv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	clients := []*TCSPClient{w.client, NewTCSPClient(cl)}
	body := w.countersBody()
	control := func(c *TCSPClient, nonce uint64) error {
		_, err := c.Control(auth.SignRequest(w.user, cert.Serial, nonce, body), nil)
		return err
	}
	if err := control(clients[1], 3); err != nil {
		t.Fatal(err)
	}
	if err := control(clients[0], 2); err != nil {
		t.Errorf("nonce 2 after 3 on another connection: %v", err)
	}

	const perConn = 20
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *TCSPClient) {
			defer wg.Done()
			for k := 0; k < perConn; k++ {
				nonce := uint64(4 + 2*k + i) // connection 0 even, 1 odd
				if err := control(c, nonce); err != nil {
					t.Errorf("connection %d nonce %d: %v", i, nonce, err)
				}
			}
		}(i, c)
	}
	wg.Wait()
}

// TestVerificationsPerSignedOpOverCtl pins the layer cost behind the
// control-plane throughput: a steady-state signed op through the TCSP
// server to one NMS server costs two ed25519 verifications, one request
// check per hop.
func TestVerificationsPerSignedOpOverCtl(t *testing.T) {
	w := newLiveWorld(t)
	cert := w.registerAndDeploy()
	body := w.countersBody()
	const ops = 10
	before := auth.Verifications()
	for i := uint64(0); i < ops; i++ {
		if _, err := w.client.Control(auth.SignRequest(w.user, cert.Serial, 2+i, body), []string{"isp2"}); err != nil {
			t.Fatal(err)
		}
	}
	if n := auth.Verifications() - before; n != 2*ops {
		t.Errorf("%d steady-state ops: %d verifications, want %d (2 per op)", ops, n, 2*ops)
	}
}
