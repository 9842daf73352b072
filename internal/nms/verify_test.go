package nms

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"dtc/internal/auth"
	"dtc/internal/netsim"
	"dtc/internal/packet"
	"dtc/internal/sim"
)

// TestDirectRequestsVerifyCertificateOnce: a user talking to the ISP
// directly pays the certificate check on its first request only; later
// requests cost their own signature check alone.
func TestDirectRequestsVerifyCertificateOnce(t *testing.T) {
	f := newFixture(t)
	before := auth.Verifications()
	if _, err := f.nms.Deploy(f.cert, f.signedDeploy(t, firewallReq(netsim.NodePrefix(3).String()))); err != nil {
		t.Fatal(err)
	}
	if n := auth.Verifications() - before; n != 2 {
		t.Errorf("first request: %d verifications, want 2", n)
	}
	before = auth.Verifications()
	if _, err := f.nms.Control(f.cert.Clone(), f.signedControl(t, &ControlRequest{Owner: "acme", Op: "counters"})); err != nil {
		t.Fatal(err)
	}
	if n := auth.Verifications() - before; n != 1 {
		t.Errorf("second request: %d verifications, want 1", n)
	}
}

// TestCachedSerialWithWiderPrefixesRejected: after the genuine
// certificate is cached, a copy with the same serial claiming every
// address is re-verified and refused — the cache cannot launder a
// tampered certificate onto a device.
func TestCachedSerialWithWiderPrefixesRejected(t *testing.T) {
	f := newFixture(t)
	if _, err := f.nms.Deploy(f.cert, f.signedDeploy(t, firewallReq(netsim.NodePrefix(3).String()))); err != nil {
		t.Fatal(err)
	}
	wide := f.cert.Clone()
	wide.Prefixes = []string{"0.0.0.0/0"}
	req := firewallReq(netsim.NodePrefix(1).String())
	if _, err := f.nms.Deploy(wide, f.signedDeploy(t, req)); err == nil || !strings.Contains(err.Error(), "invalid signature") {
		t.Errorf("widened certificate under a cached serial: %v", err)
	}
}

// TestExpiredCachedCertificateRejected: a cached certificate still has
// its validity window checked on every request.
func TestExpiredCachedCertificateRejected(t *testing.T) {
	f := newFixture(t)
	short, err := auth.IssueCertificate(f.ca, f.user, []packet.Prefix{netsim.NodePrefix(3)}, 8, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(firewallReq(netsim.NodePrefix(3).String()))
	if _, err := f.nms.Deploy(short, auth.SignRequest(f.user, short.Serial, 1, body)); err != nil {
		t.Fatal(err)
	}
	f.sim.AfterFunc(5*sim.Second, func(sim.Time) {})
	if _, err := f.sim.RunAll(); err != nil {
		t.Fatal(err)
	}
	ctl, _ := json.Marshal(&ControlRequest{Owner: "acme", Op: "counters"})
	if _, err := f.nms.Control(short, auth.SignRequest(f.user, short.Serial, 2, ctl)); err == nil || !strings.Contains(err.Error(), "not valid") {
		t.Errorf("expired cached certificate: %v", err)
	}
}

// TestSetLockerVerifiesBeforeLocking: requests are checked before the
// data-plane lock is taken, so a forged request is refused while the lock
// is held, and a genuine one waits for it.
func TestSetLockerVerifiesBeforeLocking(t *testing.T) {
	f := newFixture(t)
	var mu sync.Mutex
	f.nms.SetLocker(&mu)
	mu.Lock()
	mallory, _ := auth.NewIdentity("mallory", seed(9))
	body, _ := json.Marshal(firewallReq(netsim.NodePrefix(3).String()))
	forged := make(chan error, 1)
	go func() {
		_, err := f.nms.Deploy(f.cert, auth.SignRequest(mallory, f.cert.Serial, 1, body))
		forged <- err
	}()
	select {
	case err := <-forged:
		if err == nil {
			t.Fatal("forged request accepted")
		}
	case <-time.After(5 * time.Second):
		mu.Unlock()
		t.Fatal("a forged request waited for the data-plane lock")
	}
	done := make(chan error, 1)
	go func() {
		_, err := f.nms.Deploy(f.cert, f.signedDeploy(t, firewallReq(netsim.NodePrefix(3).String())))
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("deploy finished while the data-plane lock was held: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	mu.Unlock()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if f.nms.JournalLen() != 1 {
		t.Errorf("journal has %d entries, want 1", f.nms.JournalLen())
	}
}
