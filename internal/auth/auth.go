// Package auth implements the identity and certificate machinery the paper
// sketches for the traffic control service (§5.1): the TCSP acts like a
// certification authority, binding a network user's public key to the set
// of IP prefixes whose ownership it has verified with the Internet number
// authority. ISP network management systems later accept traffic-control
// requests only when accompanied by a valid TCSP certificate covering the
// addresses being controlled.
package auth

import (
	"bytes"
	"crypto/ed25519"
	"crypto/rand"
	"encoding/binary"
	"encoding/json"
	"fmt"

	"dtc/internal/metrics"
	"dtc/internal/packet"
)

// Identity is a named ed25519 key pair.
type Identity struct {
	Name string
	Priv ed25519.PrivateKey
	Pub  ed25519.PublicKey
}

// NewIdentity creates an identity. A 32-byte seed makes key generation
// deterministic (tests, reproducible simulations); a nil seed draws from
// crypto/rand.
func NewIdentity(name string, seed []byte) (*Identity, error) {
	if name == "" {
		return nil, fmt.Errorf("auth: empty identity name")
	}
	var priv ed25519.PrivateKey
	switch {
	case seed == nil:
		var err error
		_, priv, err = ed25519.GenerateKey(rand.Reader)
		if err != nil {
			return nil, fmt.Errorf("auth: key generation: %w", err)
		}
	case len(seed) == ed25519.SeedSize:
		priv = ed25519.NewKeyFromSeed(seed)
	default:
		return nil, fmt.Errorf("auth: seed must be %d bytes, got %d", ed25519.SeedSize, len(seed))
	}
	return &Identity{Name: name, Priv: priv, Pub: priv.Public().(ed25519.PublicKey)}, nil
}

// Sign signs msg with the identity's private key.
func (id *Identity) Sign(msg []byte) []byte { return ed25519.Sign(id.Priv, msg) }

// verifications counts ed25519 signature checks, the control plane's
// dominant CPU cost.
var verifications metrics.AtomicCounter

// Verifications returns how many ed25519 signature checks this process has
// made, so tests can pin what one signed operation costs.
func Verifications() uint64 { return verifications.Value() }

// Verify checks a signature against a public key.
func Verify(pub ed25519.PublicKey, msg, sig []byte) bool {
	if len(pub) != ed25519.PublicKeySize {
		return false
	}
	verifications.Inc()
	return ed25519.Verify(pub, msg, sig)
}

// Certificate binds an owner name and public key to verified IP prefixes.
// Validity is expressed in simulation seconds so certificates work inside
// deterministic experiments; the live demo uses wall-clock seconds.
type Certificate struct {
	Owner     string   `json:"owner"`
	PublicKey []byte   `json:"public_key"`
	Prefixes  []string `json:"prefixes"`
	Serial    uint64   `json:"serial"`
	NotBefore int64    `json:"not_before"`
	NotAfter  int64    `json:"not_after"`
	Issuer    string   `json:"issuer"`
	Signature []byte   `json:"signature,omitempty"`
}

// signingBytes returns the canonical byte string covered by the signature.
func (c *Certificate) signingBytes() []byte {
	var b bytes.Buffer
	writeStr := func(s string) {
		var l [4]byte
		binary.BigEndian.PutUint32(l[:], uint32(len(s)))
		b.Write(l[:])
		b.WriteString(s)
	}
	writeStr(c.Owner)
	writeStr(c.Issuer)
	b.Write(c.PublicKey)
	var nums [24]byte
	binary.BigEndian.PutUint64(nums[0:], c.Serial)
	binary.BigEndian.PutUint64(nums[8:], uint64(c.NotBefore))
	binary.BigEndian.PutUint64(nums[16:], uint64(c.NotAfter))
	b.Write(nums[:])
	for _, p := range c.Prefixes {
		writeStr(p)
	}
	return b.Bytes()
}

// IssueCertificate signs a certificate binding subject's key to prefixes.
func IssueCertificate(ca *Identity, subject *Identity, prefixes []packet.Prefix, serial uint64, notBefore, notAfter int64) (*Certificate, error) {
	if notAfter <= notBefore {
		return nil, fmt.Errorf("auth: certificate validity window empty")
	}
	c := &Certificate{
		Owner:     subject.Name,
		PublicKey: append([]byte(nil), subject.Pub...),
		Serial:    serial,
		NotBefore: notBefore,
		NotAfter:  notAfter,
		Issuer:    ca.Name,
	}
	for _, p := range prefixes {
		c.Prefixes = append(c.Prefixes, p.String())
	}
	c.Signature = ca.Sign(c.signingBytes())
	return c, nil
}

// Verify checks the certificate's signature and validity at time `at`.
func (c *Certificate) Verify(caPub ed25519.PublicKey, at int64) error {
	if err := c.ValidAt(at); err != nil {
		return err
	}
	return c.verifySignature(caPub, c.signingBytes())
}

// ValidAt checks the certificate's validity window: NotBefore <= at <
// NotAfter. It does not check the signature.
func (c *Certificate) ValidAt(at int64) error {
	if at < c.NotBefore || at >= c.NotAfter {
		return fmt.Errorf("auth: certificate for %q not valid at %d (window [%d,%d))", c.Owner, at, c.NotBefore, c.NotAfter)
	}
	return nil
}

// verifySignature checks the CA signature over signed, which must be
// c.signingBytes().
func (c *Certificate) verifySignature(caPub ed25519.PublicKey, signed []byte) error {
	if !Verify(caPub, signed, c.Signature) {
		return fmt.Errorf("auth: certificate for %q has invalid signature", c.Owner)
	}
	return nil
}

// Clone returns a deep copy of the certificate.
func (c *Certificate) Clone() *Certificate {
	cp := *c
	cp.PublicKey = bytes.Clone(c.PublicKey)
	cp.Prefixes = append([]string(nil), c.Prefixes...)
	cp.Signature = bytes.Clone(c.Signature)
	return &cp
}

// Covers reports whether the certificate authorizes control over prefix p
// (p must be contained in one of the certified prefixes).
func (c *Certificate) Covers(p packet.Prefix) bool {
	for _, s := range c.Prefixes {
		cp, err := packet.ParsePrefix(s)
		if err != nil {
			continue
		}
		if cp.Bits <= p.Bits && cp.Contains(p.Addr) {
			return true
		}
	}
	return false
}

// Marshal encodes the certificate as JSON for the control-plane wire.
func (c *Certificate) Marshal() ([]byte, error) { return json.Marshal(c) }

// UnmarshalCertificate decodes a certificate.
func UnmarshalCertificate(data []byte) (*Certificate, error) {
	var c Certificate
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("auth: bad certificate encoding: %w", err)
	}
	return &c, nil
}

// SignedRequest wraps a control-plane request body with a proof of key
// possession: the owner signs (serial || nonce || body).
type SignedRequest struct {
	CertSerial uint64 `json:"cert_serial"`
	Nonce      uint64 `json:"nonce"`
	Body       []byte `json:"body"`
	Signature  []byte `json:"signature"`
}

func requestBytes(serial, nonce uint64, body []byte) []byte {
	buf := make([]byte, 16+len(body))
	binary.BigEndian.PutUint64(buf[0:], serial)
	binary.BigEndian.PutUint64(buf[8:], nonce)
	copy(buf[16:], body)
	return buf
}

// SignRequest produces a signed request for the given certificate serial.
func SignRequest(id *Identity, serial, nonce uint64, body []byte) *SignedRequest {
	return &SignedRequest{
		CertSerial: serial,
		Nonce:      nonce,
		Body:       append([]byte(nil), body...),
		Signature:  id.Sign(requestBytes(serial, nonce, body)),
	}
}

// VerifyRequest checks the request signature against the certificate's
// bound public key.
func VerifyRequest(c *Certificate, r *SignedRequest) error {
	if r.CertSerial != c.Serial {
		return fmt.Errorf("auth: request serial %d does not match certificate %d", r.CertSerial, c.Serial)
	}
	if !Verify(c.PublicKey, requestBytes(r.CertSerial, r.Nonce, r.Body), r.Signature) {
		return fmt.Errorf("auth: request signature invalid for owner %q", c.Owner)
	}
	return nil
}
