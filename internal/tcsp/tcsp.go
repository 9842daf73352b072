// Package tcsp implements the Traffic Control Service Provider — the
// coordinating role the paper introduces so a network user registers once
// instead of once per ISP (§5.1):
//
//   - Registration (Figure 4): the TCSP checks the user's identity (proof
//     of key possession), verifies claimed address ownership against the
//     Internet number authority, and issues a signed certificate binding
//     the user's key to the verified prefixes.
//   - Deployment (Figure 5): the TCSP maps a user's service request onto
//     the network management systems of participating ISPs, which compile
//     and install the service components on their adaptive devices.
//   - Control: activation, parameter changes and log readback are relayed
//     the same way.
package tcsp

import (
	"bytes"
	"crypto/ed25519"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"dtc/internal/auth"
	"dtc/internal/nms"
	"dtc/internal/ownership"
	"dtc/internal/packet"
	"dtc/internal/telemetry"
)

// Backend is a participating ISP's management interface. *nms.NMS
// satisfies it in-process; the ctl package provides a TCP-backed client
// with the same shape.
type Backend interface {
	Deploy(cert *auth.Certificate, sreq *auth.SignedRequest) (*nms.DeployResult, error)
	Control(cert *auth.Certificate, sreq *auth.SignedRequest) (*nms.ControlResult, error)
}

// DefaultCertTTL is the certificate lifetime in seconds.
const DefaultCertTTL = 365 * 24 * 3600

// TCSP is the traffic control service provider. It is safe for concurrent
// use: a server may call it from one goroutine per connection.
type TCSP struct {
	id        *auth.Identity
	authority *ownership.Registry
	clock     func() int64
	store     *telemetry.Store

	CertTTL int64

	// mu guards the fields below. It is never held across a backend call,
	// an onReport hook or an ed25519 sign or verify, so backends and hooks
	// may call back into the TCSP and users' signatures are checked in
	// parallel.
	mu       sync.Mutex
	isps     map[string]Backend
	ispList  []string
	certs    map[uint64]*auth.Certificate
	byOwner  map[string]uint64
	revoked  map[uint64]bool
	serial   uint64
	onReport []func(isp string, snaps []*telemetry.Snapshot)
}

// New creates a TCSP with its own signing identity, the number-authority
// database it verifies ownership against, and a seconds clock.
func New(id *auth.Identity, authority *ownership.Registry, clock func() int64) *TCSP {
	return &TCSP{
		id: id, authority: authority, clock: clock,
		CertTTL: DefaultCertTTL,
		isps:    make(map[string]Backend),
		certs:   make(map[uint64]*auth.Certificate),
		byOwner: make(map[string]uint64),
		revoked: make(map[uint64]bool),
		store:   telemetry.NewStore(0),
	}
}

// Telemetry returns the provider-side snapshot store feeding dashboards
// and the defense controller.
func (t *TCSP) Telemetry() *telemetry.Store { return t.store }

// OnReport registers a hook invoked after each telemetry report is
// ingested — the defense controller's entry point.
func (t *TCSP) OnReport(fn func(isp string, snaps []*telemetry.Snapshot)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.onReport = append(t.onReport, fn)
}

// Report ingests one ISP's device snapshots into the telemetry store. The
// ISP must be a registered participant; snapshots from strangers are
// rejected rather than silently aggregated.
func (t *TCSP) Report(isp string, snaps []*telemetry.Snapshot) error {
	t.mu.Lock()
	_, ok := t.isps[isp]
	hooks := t.onReport
	t.mu.Unlock()
	if !ok {
		return fmt.Errorf("tcsp: telemetry report from unknown ISP %q", isp)
	}
	for _, s := range snaps {
		t.store.Ingest(isp, s)
	}
	for _, fn := range hooks {
		fn(isp, snaps)
	}
	return nil
}

// PublicKey returns the TCSP's certificate-signing key; ISPs configure it
// as their trust anchor.
func (t *TCSP) PublicKey() ed25519.PublicKey { return t.id.Pub }

// AddISP registers a participating ISP (contract setup, §5.1).
func (t *TCSP) AddISP(name string, b Backend) error {
	if name == "" || b == nil {
		return fmt.Errorf("tcsp: invalid ISP registration")
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.isps[name]; dup {
		return fmt.Errorf("tcsp: ISP %q already registered", name)
	}
	t.isps[name] = b
	t.ispList = append(t.ispList, name)
	sort.Strings(t.ispList)
	return nil
}

// ISPs returns the names of participating ISPs.
func (t *TCSP) ISPs() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]string(nil), t.ispList...)
}

// RegistrationBytes is the canonical byte string a user signs to prove key
// possession during registration.
func RegistrationBytes(user string, pub ed25519.PublicKey, prefixes []string) []byte {
	var b bytes.Buffer
	w := func(s string) {
		var l [4]byte
		binary.BigEndian.PutUint32(l[:], uint32(len(s)))
		b.Write(l[:])
		b.WriteString(s)
	}
	w("dtc-register")
	w(user)
	b.Write(pub)
	for _, p := range prefixes {
		w(p)
	}
	return b.Bytes()
}

// Register implements Figure 4: verify the user's identity (signature with
// the presented key), verify claimed ownership of every prefix with the
// number authority, then issue and record a certificate.
func (t *TCSP) Register(user string, pub ed25519.PublicKey, prefixes []string, sig []byte) (*auth.Certificate, error) {
	if user == "" {
		return nil, fmt.Errorf("tcsp: empty user name")
	}
	if len(prefixes) == 0 {
		return nil, fmt.Errorf("tcsp: registration without prefixes")
	}
	if !auth.Verify(pub, RegistrationBytes(user, pub, prefixes), sig) {
		return nil, fmt.Errorf("tcsp: identity check failed for %q", user)
	}
	parsed := make([]packet.Prefix, 0, len(prefixes))
	for _, s := range prefixes {
		p, err := packet.ParsePrefix(s)
		if err != nil {
			return nil, fmt.Errorf("tcsp: %w", err)
		}
		if !t.authority.Verify(p, ownership.OwnerID(user)) {
			return nil, fmt.Errorf("tcsp: number authority does not confirm %q owns %v", user, p)
		}
		parsed = append(parsed, p)
	}
	t.mu.Lock()
	t.serial++
	serial := t.serial
	t.mu.Unlock()
	now := t.clock()
	subject := &auth.Identity{Name: user, Pub: pub}
	cert, err := auth.IssueCertificate(t.id, subject, parsed, serial, now, now+t.CertTTL)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.certs[serial] = cert
	if serial > t.byOwner[user] { // concurrent registrations: latest serial wins
		t.byOwner[user] = serial
	}
	return cert, nil
}

// CertificateFor returns the latest certificate issued to owner.
func (t *TCSP) CertificateFor(owner string) (*auth.Certificate, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.byOwner[owner]
	if !ok {
		return nil, false
	}
	return t.certs[s], true
}

// lookupCert resolves the signed request's certificate serial. Users do
// not resend the full certificate on every request; the TCSP issued it and
// keeps it. The signature checks run outside the lock.
func (t *TCSP) lookupCert(sreq *auth.SignedRequest) (*auth.Certificate, error) {
	t.mu.Lock()
	revoked := t.revoked[sreq.CertSerial]
	cert, ok := t.certs[sreq.CertSerial]
	t.mu.Unlock()
	if revoked {
		return nil, fmt.Errorf("tcsp: certificate serial %d has been revoked", sreq.CertSerial)
	}
	if !ok {
		return nil, fmt.Errorf("tcsp: unknown certificate serial %d", sreq.CertSerial)
	}
	if err := cert.Verify(t.id.Pub, t.clock()); err != nil {
		return nil, err
	}
	if err := auth.VerifyRequest(cert, sreq); err != nil {
		return nil, err
	}
	return cert, nil
}

// Revoke withdraws a certificate: further TCSP-mediated requests under
// that serial fail (e.g. because the registered address range changed
// hands at the number authority). Revocation is TCSP-side; ISPs that
// accept direct requests learn of it when they next sync — the same
// freshness trade-off real CAs make.
func (t *TCSP) Revoke(serial uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.certs[serial]; !ok {
		return fmt.Errorf("tcsp: unknown certificate serial %d", serial)
	}
	t.revoked[serial] = true
	return nil
}

// Revoked reports whether a serial has been revoked.
func (t *TCSP) Revoked(serial uint64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.revoked[serial]
}

// selectISPs resolves an ISP name list (empty = all) to the names and
// their backends, so callers can reach the backends without the lock.
func (t *TCSP) selectISPs(names []string) ([]string, []Backend, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(names) == 0 {
		names = append([]string(nil), t.ispList...)
	}
	backends := make([]Backend, len(names))
	for i, n := range names {
		b, ok := t.isps[n]
		if !ok {
			return nil, nil, fmt.Errorf("tcsp: unknown ISP %q", n)
		}
		backends[i] = b
	}
	return names, backends, nil
}

// Deploy implements Figure 5: verify the request once, then instruct each
// selected ISP's management system. Per-ISP failures abort with an error
// identifying the ISP; partial results are returned alongside.
func (t *TCSP) Deploy(sreq *auth.SignedRequest, isps []string) ([]*nms.DeployResult, error) {
	cert, err := t.lookupCert(sreq)
	if err != nil {
		return nil, err
	}
	names, backends, err := t.selectISPs(isps)
	if err != nil {
		return nil, err
	}
	var results []*nms.DeployResult
	for i, b := range backends {
		r, err := b.Deploy(cert, sreq)
		if err != nil {
			return results, fmt.Errorf("tcsp: ISP %q: %w", names[i], err)
		}
		results = append(results, r)
	}
	return results, nil
}

// Control relays a control request to the selected ISPs.
func (t *TCSP) Control(sreq *auth.SignedRequest, isps []string) ([]*nms.ControlResult, error) {
	cert, err := t.lookupCert(sreq)
	if err != nil {
		return nil, err
	}
	names, backends, err := t.selectISPs(isps)
	if err != nil {
		return nil, err
	}
	var results []*nms.ControlResult
	for i, b := range backends {
		r, err := b.Control(cert, sreq)
		if err != nil {
			return results, fmt.Errorf("tcsp: ISP %q: %w", names[i], err)
		}
		results = append(results, r)
	}
	return results, nil
}
