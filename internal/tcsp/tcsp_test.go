package tcsp

import (
	"encoding/json"
	"strings"
	"testing"

	"dtc/internal/auth"
	"dtc/internal/netsim"
	"dtc/internal/nms"
	"dtc/internal/ownership"
	"dtc/internal/packet"
	"dtc/internal/service"
	"dtc/internal/sim"
	"dtc/internal/topology"
)

func seed(b byte) []byte {
	s := make([]byte, 32)
	for i := range s {
		s[i] = b
	}
	return s
}

type world struct {
	sim  *sim.Simulation
	net  *netsim.Network
	tcsp *TCSP
	user *auth.Identity
}

// newWorld wires the full Figure-3 role model: number authority, TCSP, two
// ISPs over a line topology, and one network user owning node 3's block.
func newWorld(t *testing.T) *world {
	t.Helper()
	s := sim.New(1)
	net, err := netsim.New(s, topology.Line(4), netsim.DefaultLink)
	if err != nil {
		t.Fatal(err)
	}
	authority := ownership.NewRegistry()
	if err := authority.Allocate(netsim.NodePrefix(3), "acme"); err != nil {
		t.Fatal(err)
	}
	caID, _ := auth.NewIdentity("tcsp", seed(1))
	clock := func() int64 { return int64(s.Now() / sim.Second) }
	tc := New(caID, authority, clock)

	m1, err := nms.New("isp1", net, []int{0, 1}, tc.PublicKey(), clock)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := nms.New("isp2", net, []int{2, 3}, tc.PublicKey(), clock)
	if err != nil {
		t.Fatal(err)
	}
	if err := tc.AddISP("isp1", m1); err != nil {
		t.Fatal(err)
	}
	if err := tc.AddISP("isp2", m2); err != nil {
		t.Fatal(err)
	}
	user, _ := auth.NewIdentity("acme", seed(2))
	return &world{sim: s, net: net, tcsp: tc, user: user}
}

func (w *world) register(t *testing.T) *auth.Certificate {
	t.Helper()
	prefixes := []string{netsim.NodePrefix(3).String()}
	sig := w.user.Sign(RegistrationBytes("acme", w.user.Pub, prefixes))
	cert, err := w.tcsp.Register("acme", w.user.Pub, prefixes, sig)
	if err != nil {
		t.Fatal(err)
	}
	return cert
}

func TestRegisterHappyPath(t *testing.T) {
	w := newWorld(t)
	cert := w.register(t)
	if cert.Owner != "acme" || len(cert.Prefixes) != 1 {
		t.Errorf("cert = %+v", cert)
	}
	if err := cert.Verify(w.tcsp.PublicKey(), 0); err != nil {
		t.Errorf("issued certificate invalid: %v", err)
	}
	got, ok := w.tcsp.CertificateFor("acme")
	if !ok || got.Serial != cert.Serial {
		t.Error("CertificateFor lookup failed")
	}
}

func TestRegisterRejectsForgedIdentity(t *testing.T) {
	w := newWorld(t)
	prefixes := []string{netsim.NodePrefix(3).String()}
	mallory, _ := auth.NewIdentity("mallory", seed(9))
	// Mallory presents acme's name with her own key but cannot produce a
	// signature binding acme's registration... she actually can sign with
	// her own key — the check that stops her is ownership verification.
	sig := mallory.Sign(RegistrationBytes("mallory", mallory.Pub, prefixes))
	if _, err := w.tcsp.Register("mallory", mallory.Pub, prefixes, sig); err == nil ||
		!strings.Contains(err.Error(), "number authority") {
		t.Errorf("foreign prefix registration: %v", err)
	}
	// A bad signature fails the identity check itself.
	if _, err := w.tcsp.Register("acme", w.user.Pub, prefixes, []byte("junk")); err == nil ||
		!strings.Contains(err.Error(), "identity check") {
		t.Errorf("bad signature: %v", err)
	}
}

func TestRegisterValidation(t *testing.T) {
	w := newWorld(t)
	sig := w.user.Sign(RegistrationBytes("acme", w.user.Pub, nil))
	if _, err := w.tcsp.Register("acme", w.user.Pub, nil, sig); err == nil {
		t.Error("empty prefixes accepted")
	}
	if _, err := w.tcsp.Register("", w.user.Pub, []string{"10.0.0.0/8"}, sig); err == nil {
		t.Error("empty user accepted")
	}
	badSig := w.user.Sign(RegistrationBytes("acme", w.user.Pub, []string{"zzz"}))
	if _, err := w.tcsp.Register("acme", w.user.Pub, []string{"zzz"}, badSig); err == nil {
		t.Error("garbage prefix accepted")
	}
}

func TestAddISPValidation(t *testing.T) {
	w := newWorld(t)
	if err := w.tcsp.AddISP("isp1", nil); err == nil {
		t.Error("nil backend accepted")
	}
	if got := w.tcsp.ISPs(); len(got) != 2 || got[0] != "isp1" || got[1] != "isp2" {
		t.Errorf("ISPs = %v", got)
	}
	m, _ := nms.New("isp3", w.net, nil, w.tcsp.PublicKey(), func() int64 { return 0 })
	if err := w.tcsp.AddISP("isp1", m); err == nil {
		t.Error("duplicate ISP accepted")
	}
}

func deployBody(t *testing.T, spec *service.Spec) []byte {
	t.Helper()
	body, err := json.Marshal(&nms.DeployRequest{
		Owner:    "acme",
		Prefixes: []string{netsim.NodePrefix(3).String()},
		Spec:     *spec,
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func TestDeployAcrossISPs(t *testing.T) {
	w := newWorld(t)
	cert := w.register(t)
	sreq := auth.SignRequest(w.user, cert.Serial, 1, deployBody(t, service.FirewallDrop("fw", service.MatchSpec{DstPort: 666})))
	results, err := w.tcsp.Deploy(sreq, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %v", results)
	}
	// End to end: attack traffic dropped at isp1's first device.
	src, _ := w.net.AttachHost(0)
	dst, _ := w.net.AttachHost(3)
	src.Send(0, &packet.Packet{Src: src.Addr, Dst: dst.Addr, DstPort: 666, Size: 100})
	src.Send(0, &packet.Packet{Src: src.Addr, Dst: dst.Addr, DstPort: 80, Size: 100})
	if _, err := w.sim.RunAll(); err != nil {
		t.Fatal(err)
	}
	if dst.Delivered[packet.KindLegit] != 1 {
		t.Errorf("delivered = %d", dst.Delivered[packet.KindLegit])
	}
}

func TestDeploySelectsISP(t *testing.T) {
	w := newWorld(t)
	cert := w.register(t)
	sreq := auth.SignRequest(w.user, cert.Serial, 1, deployBody(t, service.FirewallDrop("fw", service.MatchSpec{DstPort: 666})))
	results, err := w.tcsp.Deploy(sreq, []string{"isp2"})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].ISP != "isp2" {
		t.Errorf("results = %+v", results)
	}
	// A fresh nonce: reusing sreq would be refused as a replay first.
	sreq = auth.SignRequest(w.user, cert.Serial, 2, sreq.Body)
	if _, err := w.tcsp.Deploy(sreq, []string{"nope"}); err == nil || !strings.Contains(err.Error(), "unknown ISP") {
		t.Errorf("unknown ISP: %v", err)
	}
}

func TestDeployRejectsUnknownSerialAndForgery(t *testing.T) {
	w := newWorld(t)
	w.register(t)
	body := deployBody(t, service.FirewallDrop("fw", service.MatchSpec{DstPort: 666}))
	unknown := auth.SignRequest(w.user, 999, 1, body)
	if _, err := w.tcsp.Deploy(unknown, nil); err == nil {
		t.Error("unknown serial accepted")
	}
	mallory, _ := auth.NewIdentity("mallory", seed(9))
	cert, _ := w.tcsp.CertificateFor("acme")
	forged := auth.SignRequest(mallory, cert.Serial, 1, body)
	if _, err := w.tcsp.Deploy(forged, nil); err == nil {
		t.Error("forged request accepted")
	}
}

func TestControlViaTCSP(t *testing.T) {
	w := newWorld(t)
	cert := w.register(t)
	dep := auth.SignRequest(w.user, cert.Serial, 1, deployBody(t, service.FirewallDrop("fw", service.MatchSpec{DstPort: 666})))
	if _, err := w.tcsp.Deploy(dep, nil); err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(&nms.ControlRequest{Owner: "acme", Op: "counters", Stage: "dest"})
	ctl := auth.SignRequest(w.user, cert.Serial, 2, body)
	results, err := w.tcsp.Control(ctl, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %v", results)
	}
	total := 0
	for _, r := range results {
		total += len(r.Counters)
	}
	if total != 4 {
		t.Errorf("counter rows = %d, want 4 (one per node)", total)
	}
}

func TestCertExpiryBlocksDeploy(t *testing.T) {
	w := newWorld(t)
	w.tcsp.CertTTL = 1 // 1 second
	cert := w.register(t)
	sreq := auth.SignRequest(w.user, cert.Serial, 1, deployBody(t, service.FirewallDrop("fw", service.MatchSpec{DstPort: 666})))
	// Advance sim clock 5 seconds.
	w.sim.AfterFunc(5*sim.Second, func(sim.Time) {})
	if _, err := w.sim.RunAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.tcsp.Deploy(sreq, nil); err == nil {
		t.Error("expired certificate deployed")
	}
}

func TestRevocation(t *testing.T) {
	w := newWorld(t)
	cert := w.register(t)
	body := deployBody(t, service.FirewallDrop("fw", service.MatchSpec{DstPort: 666}))
	sreq := auth.SignRequest(w.user, cert.Serial, 1, body)
	if _, err := w.tcsp.Deploy(sreq, nil); err != nil {
		t.Fatalf("pre-revocation deploy failed: %v", err)
	}
	if err := w.tcsp.Revoke(cert.Serial); err != nil {
		t.Fatal(err)
	}
	if !w.tcsp.Revoked(cert.Serial) {
		t.Error("Revoked() false after Revoke")
	}
	sreq2 := auth.SignRequest(w.user, cert.Serial, 2, body)
	if _, err := w.tcsp.Deploy(sreq2, nil); err == nil {
		t.Error("deploy under revoked certificate succeeded")
	}
	ctlBody, _ := json.Marshal(&nms.ControlRequest{Owner: "acme", Op: "counters", Stage: "dest"})
	ctlReq := auth.SignRequest(w.user, cert.Serial, 3, ctlBody)
	if _, err := w.tcsp.Control(ctlReq, nil); err == nil {
		t.Error("control under revoked certificate succeeded")
	}
	if err := w.tcsp.Revoke(999); err == nil {
		t.Error("revoking unknown serial succeeded")
	}
	// Re-registration issues a fresh serial that works again.
	cert2 := w.register(t)
	if cert2.Serial == cert.Serial {
		t.Fatal("re-registration reused revoked serial")
	}
	sreq3 := auth.SignRequest(w.user, cert2.Serial, 1, body)
	if _, err := w.tcsp.Deploy(sreq3, nil); err != nil {
		t.Errorf("deploy under fresh certificate failed: %v", err)
	}
}

func countersBody(t *testing.T) []byte {
	t.Helper()
	body, err := json.Marshal(&nms.ControlRequest{Owner: "acme", Op: "counters", Stage: "dest"})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func TestReplayRejected(t *testing.T) {
	w := newWorld(t)
	cert := w.register(t)
	sreq := auth.SignRequest(w.user, cert.Serial, 1, deployBody(t, service.FirewallDrop("fw", service.MatchSpec{DstPort: 666})))
	if _, err := w.tcsp.Deploy(sreq, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := w.tcsp.Deploy(sreq, nil); err == nil || !strings.Contains(err.Error(), "replayed") {
		t.Errorf("replayed deploy: %v", err)
	}
	// The window is per serial, not per method.
	ctl := auth.SignRequest(w.user, cert.Serial, 1, countersBody(t))
	if _, err := w.tcsp.Control(ctl, nil); err == nil || !strings.Contains(err.Error(), "replayed") {
		t.Errorf("control reusing a deploy nonce: %v", err)
	}
}

func TestReplayWindowReorderAndAge(t *testing.T) {
	w := newWorld(t)
	cert := w.register(t)
	body := countersBody(t)
	if _, err := w.tcsp.Deploy(auth.SignRequest(w.user, cert.Serial, 1, deployBody(t, service.FirewallDrop("fw", service.MatchSpec{}))), nil); err != nil {
		t.Fatal(err)
	}
	control := func(nonce uint64) error {
		_, err := w.tcsp.Control(auth.SignRequest(w.user, cert.Serial, nonce, body), nil)
		return err
	}
	for _, n := range []uint64{5, 3, 4, 2} { // reordered inside the window
		if err := control(n); err != nil {
			t.Errorf("nonce %d inside the window rejected: %v", n, err)
		}
	}
	if err := control(3); err == nil {
		t.Error("reused nonce 3 accepted")
	}
	top := uint64(200)
	if err := control(top); err != nil {
		t.Fatal(err)
	}
	if err := control(top - auth.ReplayWindowSize); err == nil || !strings.Contains(err.Error(), "replayed") {
		t.Errorf("nonce older than the window: %v", err)
	}
	if err := control(top - auth.ReplayWindowSize + 1); err != nil {
		t.Errorf("oldest nonce inside the window rejected: %v", err)
	}
}

func TestReplayForgeryDoesNotAdvanceWindow(t *testing.T) {
	w := newWorld(t)
	cert := w.register(t)
	body := deployBody(t, service.FirewallDrop("fw", service.MatchSpec{}))
	mallory, _ := auth.NewIdentity("mallory", seed(9))
	forged := auth.SignRequest(mallory, cert.Serial, 1000, body)
	if _, err := w.tcsp.Deploy(forged, nil); err == nil || !strings.Contains(err.Error(), "signature") {
		t.Fatalf("forged request: %v", err)
	}
	// Had the forgery moved the window to 1000, nonce 1 would be too old.
	if _, err := w.tcsp.Deploy(auth.SignRequest(w.user, cert.Serial, 1, body), nil); err != nil {
		t.Errorf("genuine nonce 1 after a forged nonce 1000: %v", err)
	}
	// A tampered body under a fresh nonce fails the signature and leaves
	// that nonce unused.
	tampered := auth.SignRequest(w.user, cert.Serial, 2, body)
	tampered.Body = countersBody(t)
	if _, err := w.tcsp.Deploy(tampered, nil); err == nil {
		t.Fatal("tampered request accepted")
	}
	if _, err := w.tcsp.Deploy(auth.SignRequest(w.user, cert.Serial, 2, body), nil); err != nil {
		t.Errorf("nonce 2 after a rejected tampering attempt: %v", err)
	}
}

func TestReplayFreshWindowOnReRegistration(t *testing.T) {
	w := newWorld(t)
	body := deployBody(t, service.FirewallDrop("fw", service.MatchSpec{}))
	first := w.register(t)
	if _, err := w.tcsp.Deploy(auth.SignRequest(w.user, first.Serial, 100, body), nil); err != nil {
		t.Fatal(err)
	}
	second := w.register(t)
	if second.Serial == first.Serial {
		t.Fatal("re-registration reused the serial")
	}
	if _, err := w.tcsp.Deploy(auth.SignRequest(w.user, second.Serial, 1, body), nil); err != nil {
		t.Errorf("nonce 1 under the new serial: %v", err)
	}
	// The old serial keeps its own window.
	if _, err := w.tcsp.Deploy(auth.SignRequest(w.user, first.Serial, 1, body), nil); err == nil {
		t.Error("nonce 1 under the old serial accepted below its window")
	}
}

// TestVerificationsPerSignedOp pins the cost of a signed operation relayed
// in-process to one ISP: the TCSP checks the request signature but not
// its own certificate, and the NMS checks the certificate once per serial,
// so a steady-state op costs two ed25519 verifications, one per hop.
func TestVerificationsPerSignedOp(t *testing.T) {
	w := newWorld(t)
	cert := w.register(t)
	before := auth.Verifications()
	if _, err := w.tcsp.Deploy(auth.SignRequest(w.user, cert.Serial, 1, deployBody(t, service.FirewallDrop("fw", service.MatchSpec{}))), []string{"isp1"}); err != nil {
		t.Fatal(err)
	}
	if n := auth.Verifications() - before; n != 3 {
		t.Errorf("first op: %d verifications, want 3 (request at the TCSP; certificate and request at the NMS)", n)
	}
	const ops = 10
	before = auth.Verifications()
	for i := uint64(0); i < ops; i++ {
		if _, err := w.tcsp.Control(auth.SignRequest(w.user, cert.Serial, 2+i, countersBody(t)), []string{"isp1"}); err != nil {
			t.Fatal(err)
		}
	}
	if n := auth.Verifications() - before; n != 2*ops {
		t.Errorf("%d steady-state ops: %d verifications, want %d (2 per op)", ops, n, 2*ops)
	}
}

// TestCertificateForReturnsCopy checks that the TCSP's issued-certificate
// map, which it trusts without re-checking signatures, cannot be altered
// through the certificates it hands out.
func TestCertificateForReturnsCopy(t *testing.T) {
	w := newWorld(t)
	cert := w.register(t)
	cert.Prefixes[0] = "0.0.0.0/0"
	got, _ := w.tcsp.CertificateFor("acme")
	got.Prefixes[0] = "0.0.0.0/0"
	got.PublicKey[0] ^= 1
	again, _ := w.tcsp.CertificateFor("acme")
	if err := again.Verify(w.tcsp.PublicKey(), 0); err != nil {
		t.Errorf("stored certificate altered through a returned copy: %v", err)
	}
}
