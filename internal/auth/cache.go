package auth

import (
	"bytes"
	"crypto/ed25519"
	"sync"
)

// certCacheSize bounds a CertCache. An NMS holds one entry per user that
// sends it requests; past the bound an arbitrary entry is evicted and its
// owner pays one more full verification.
const certCacheSize = 1024

// CertCache remembers certificates whose CA signature verified, so a
// verifier that sees the same certificate on every request from a user
// checks that signature once. Entries are keyed by serial; a hit requires
// the presented signing bytes, signature and CA key to equal the verified
// ones byte for byte, and anything else is verified in full. Only
// successful verifications are cached and the validity window is checked
// on every call, so Verify returns exactly what Certificate.Verify would
// for every input. The zero value is ready to use and safe for concurrent
// use.
type CertCache struct {
	mu      sync.Mutex
	entries map[uint64]*certEntry
}

// certEntry is what one successful verification covered. It is never
// modified after it is stored, so hits read it outside the lock.
type certEntry struct {
	signed, sig []byte
	ca          ed25519.PublicKey
}

// Verify is c.Verify(caPub, at), skipping the signature check when the
// same certificate bytes already verified under the same CA key.
func (cc *CertCache) Verify(c *Certificate, caPub ed25519.PublicKey, at int64) error {
	if err := c.ValidAt(at); err != nil {
		return err
	}
	signed := c.signingBytes()
	cc.mu.Lock()
	e := cc.entries[c.Serial]
	cc.mu.Unlock()
	if e != nil && bytes.Equal(e.signed, signed) && bytes.Equal(e.sig, c.Signature) && bytes.Equal(e.ca, caPub) {
		return nil
	}
	if err := c.verifySignature(caPub, signed); err != nil {
		return err
	}
	e = &certEntry{signed: signed, sig: bytes.Clone(c.Signature), ca: bytes.Clone(caPub)}
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.entries == nil {
		cc.entries = make(map[uint64]*certEntry)
	}
	if _, ok := cc.entries[c.Serial]; !ok && len(cc.entries) >= certCacheSize {
		for serial := range cc.entries {
			delete(cc.entries, serial)
			break
		}
	}
	cc.entries[c.Serial] = e
	return nil
}
