package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"dtc/internal/auth"
	"dtc/internal/packet"
)

func TestKeyFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "user.key")

	seed := make([]byte, 32)
	for i := range seed {
		seed[i] = 7
	}
	id, err := auth.NewIdentity("demo", seed)
	if err != nil {
		t.Fatal(err)
	}
	ca, err := auth.NewIdentity("tcsp", append([]byte(nil), seed...))
	if err != nil {
		t.Fatal(err)
	}
	cert, err := auth.IssueCertificate(ca, id, []packet.Prefix{packet.MustParsePrefix("10.0.0.0/16")}, 3, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}

	kf := &keyFile{User: "demo", Seed: seed, Prefixes: []string{"10.0.0.0/16"}, Cert: cert, Nonce: 5}
	if err := kf.save(path); err != nil {
		t.Fatal(err)
	}
	got, gotID, err := loadKey(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.User != "demo" || got.Nonce != 5 || len(got.Prefixes) != 1 {
		t.Errorf("loaded = %+v", got)
	}
	if !bytes.Equal(gotID.Pub, id.Pub) {
		t.Error("reloaded identity has different key")
	}
	if got.Cert.Serial != 3 {
		t.Errorf("cert serial = %d", got.Cert.Serial)
	}
	// Requests signed with the reloaded identity verify against the cert.
	req := auth.SignRequest(gotID, got.Cert.Serial, got.Nonce+1, []byte("x"))
	if err := auth.VerifyRequest(got.Cert, req); err != nil {
		t.Errorf("reloaded identity cannot sign: %v", err)
	}
}

func TestLoadKeyErrors(t *testing.T) {
	if _, _, err := loadKey(filepath.Join(t.TempDir(), "missing.key")); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.key")
	if err := writeFile(bad, []byte("{broken")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := loadKey(bad); err == nil {
		t.Error("broken JSON accepted")
	}
}

func writeFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o600)
}

// TestSignSpendsNonceBeforeSending: the nonce is on disk before the
// request leaves, so a request that fails after the TCSP accepted its
// nonce cannot make the next invocation reuse it.
func TestSignSpendsNonceBeforeSending(t *testing.T) {
	path := filepath.Join(t.TempDir(), "user.key")
	seed := make([]byte, 32)
	id, err := auth.NewIdentity("demo", seed)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := auth.IssueCertificate(id, id, []packet.Prefix{packet.MustParsePrefix("10.0.0.0/16")}, 3, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	kf := &keyFile{User: "demo", Seed: seed, Cert: cert, Nonce: 5}
	req := kf.sign(path, id, []byte("x"))
	if req.Nonce != 6 {
		t.Errorf("signed nonce = %d, want 6", req.Nonce)
	}
	got, _, err := loadKey(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Nonce != 6 {
		t.Errorf("persisted nonce = %d, want 6", got.Nonce)
	}
}
