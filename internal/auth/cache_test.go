package auth

import (
	"fmt"
	"sync"
	"testing"

	"dtc/internal/packet"
	"dtc/internal/sim"
)

func issueTest(t testing.TB, ca, subject *Identity, prefix string, serial uint64, notBefore, notAfter int64) *Certificate {
	t.Helper()
	c, err := IssueCertificate(ca, subject, []packet.Prefix{packet.MustParsePrefix(prefix)}, serial, notBefore, notAfter)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// verifyCost returns how many ed25519 checks fn made, and its error.
func verifyCost(fn func() error) (uint64, error) {
	before := Verifications()
	err := fn()
	return Verifications() - before, err
}

func TestVerificationsCounts(t *testing.T) {
	id, _ := NewIdentity("a", seed(2))
	sig := id.Sign([]byte("m"))
	if n, _ := verifyCost(func() error { Verify(id.Pub, []byte("m"), sig); return nil }); n != 1 {
		t.Errorf("Verify counted %d checks, want 1", n)
	}
	if n, _ := verifyCost(func() error { Verify(id.Pub[:5], []byte("m"), sig); return nil }); n != 0 {
		t.Errorf("malformed key counted %d checks, want 0 (no ed25519 work)", n)
	}
}

func TestCertCacheVerifiesOnce(t *testing.T) {
	ca, _ := NewIdentity("tcsp", seed(1))
	user, _ := NewIdentity("acme", seed(2))
	cert := issueTest(t, ca, user, "10.0.0.0/16", 7, 0, 100)
	var cc CertCache
	if n, err := verifyCost(func() error { return cc.Verify(cert, ca.Pub, 10) }); err != nil || n != 1 {
		t.Fatalf("first verify: err %v, %d checks; want nil, 1", err, n)
	}
	// A byte-identical copy, as a fresh wire decode would produce, hits.
	if n, err := verifyCost(func() error { return cc.Verify(cert.Clone(), ca.Pub, 20) }); err != nil || n != 0 {
		t.Errorf("cached verify: err %v, %d checks; want nil, 0", err, n)
	}
}

// TestCertCacheMismatchReverified presents certificates that share a
// cached serial but differ in one signed field, the signature or the CA
// key: each is verified in full and rejected, and none displaces the
// genuine entry.
func TestCertCacheMismatchReverified(t *testing.T) {
	ca, _ := NewIdentity("tcsp", seed(1))
	rogue, _ := NewIdentity("tcsp", seed(9))
	user, _ := NewIdentity("acme", seed(2))
	mallory, _ := NewIdentity("acme", seed(3))
	cert := issueTest(t, ca, user, "10.0.0.0/16", 7, 0, 100)
	var cc CertCache
	if err := cc.Verify(cert, ca.Pub, 10); err != nil {
		t.Fatal(err)
	}
	tamper := func(f func(c *Certificate)) *Certificate {
		c := cert.Clone()
		f(c)
		return c
	}
	cases := []struct {
		name string
		cert *Certificate
		ca   *Identity
	}{
		{"subject key", tamper(func(c *Certificate) { c.PublicKey = mallory.Pub }), ca},
		{"prefixes", tamper(func(c *Certificate) { c.Prefixes = []string{"0.0.0.0/0"} }), ca},
		{"window", tamper(func(c *Certificate) { c.NotAfter = 1 << 40 }), ca},
		{"owner", tamper(func(c *Certificate) { c.Owner = "mallory" }), ca},
		{"signature", tamper(func(c *Certificate) { c.Signature[0] ^= 1 }), ca},
		// Signed by another CA under the same serial: genuine bytes, wrong
		// trust anchor for them.
		{"other CA", issueTest(t, rogue, user, "10.0.0.0/16", 7, 0, 100), ca},
		// The genuine certificate presented against another trust anchor.
		{"CA key", cert, rogue},
	}
	for _, tc := range cases {
		n, err := verifyCost(func() error { return cc.Verify(tc.cert, tc.ca.Pub, 10) })
		if err == nil {
			t.Errorf("%s: tampered certificate accepted", tc.name)
		}
		if n != 1 {
			t.Errorf("%s: %d signature checks, want 1 (full verify)", tc.name, n)
		}
		if want := tc.cert.Verify(tc.ca.Pub, 10); fmt.Sprint(err) != fmt.Sprint(want) {
			t.Errorf("%s: cache says %v, Certificate.Verify says %v", tc.name, err, want)
		}
	}
	if n, err := verifyCost(func() error { return cc.Verify(cert, ca.Pub, 10) }); err != nil || n != 0 {
		t.Errorf("genuine certificate after rejects: err %v, %d checks; want nil, 0", err, n)
	}
}

func TestCertCacheChecksWindowOnHit(t *testing.T) {
	ca, _ := NewIdentity("tcsp", seed(1))
	user, _ := NewIdentity("acme", seed(2))
	cert := issueTest(t, ca, user, "10.0.0.0/16", 7, 10, 100)
	var cc CertCache
	if err := cc.Verify(cert, ca.Pub, 50); err != nil {
		t.Fatal(err)
	}
	for _, at := range []int64{100, 1000, 9} {
		if err := cc.Verify(cert, ca.Pub, at); err == nil {
			t.Errorf("cached certificate accepted at %d outside [10,100)", at)
		}
	}
}

func TestCertCacheNeverCachesFailure(t *testing.T) {
	ca, _ := NewIdentity("tcsp", seed(1))
	user, _ := NewIdentity("acme", seed(2))
	bad := issueTest(t, ca, user, "10.0.0.0/16", 7, 0, 100)
	bad.Signature[3] ^= 0x40
	var cc CertCache
	for i := 0; i < 2; i++ {
		if n, err := verifyCost(func() error { return cc.Verify(bad, ca.Pub, 10) }); err == nil || n != 1 {
			t.Errorf("attempt %d: err %v, %d checks; want rejection after 1 check", i, err, n)
		}
	}
	expired := issueTest(t, ca, user, "10.0.0.0/16", 8, 0, 5)
	if err := cc.Verify(expired, ca.Pub, 10); err == nil {
		t.Error("expired certificate accepted")
	}
	if len(cc.entries) != 0 {
		t.Errorf("cache holds %d entries after only failures", len(cc.entries))
	}
}

func TestCertCacheBounded(t *testing.T) {
	ca, _ := NewIdentity("tcsp", seed(1))
	user, _ := NewIdentity("acme", seed(2))
	var cc CertCache
	for serial := uint64(1); serial <= certCacheSize+50; serial++ {
		if err := cc.Verify(issueTest(t, ca, user, "10.0.0.0/16", serial, 0, 100), ca.Pub, 1); err != nil {
			t.Fatal(err)
		}
		if len(cc.entries) > certCacheSize {
			t.Fatalf("cache holds %d entries, bound %d", len(cc.entries), certCacheSize)
		}
	}
	if len(cc.entries) != certCacheSize {
		t.Errorf("cache holds %d entries, want the bound %d", len(cc.entries), certCacheSize)
	}
}

// TestCertCacheMatchesVerify drives one cache with a random stream of
// genuine, tampered and foreign certificates at random times and checks
// every verdict against Certificate.Verify.
func TestCertCacheMatchesVerify(t *testing.T) {
	ca, _ := NewIdentity("tcsp", seed(1))
	rogue, _ := NewIdentity("tcsp", seed(9))
	users := []*Identity{}
	for i := byte(0); i < 3; i++ {
		u, _ := NewIdentity(fmt.Sprintf("u%d", i), seed(20+i))
		users = append(users, u)
	}
	var pool []*Certificate
	for serial := uint64(1); serial <= 4; serial++ {
		for i, u := range users {
			for _, signer := range []*Identity{ca, rogue} {
				c := issueTest(t, signer, u, fmt.Sprintf("10.%d.0.0/16", i), serial, int64(serial), int64(serial)+20)
				pool = append(pool, c)
				bad := c.Clone()
				bad.Signature[int(serial)%len(bad.Signature)] ^= 1
				pool = append(pool, bad)
			}
		}
	}
	rng := sim.NewRNG(42)
	var cc CertCache
	for i := 0; i < 400; i++ {
		c := pool[rng.Intn(len(pool))]
		anchor := ca
		if rng.Intn(8) == 0 {
			anchor = rogue
		}
		at := int64(rng.Intn(30))
		got, want := cc.Verify(c, anchor.Pub, at), c.Verify(anchor.Pub, at)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("step %d serial %d at %d: cache says %v, Certificate.Verify says %v", i, c.Serial, at, got, want)
		}
	}
}

// TestCertCacheConcurrent verifies genuine and tampered certificates from
// several goroutines at once, as an NMS serving several connections does.
func TestCertCacheConcurrent(t *testing.T) {
	ca, _ := NewIdentity("tcsp", seed(1))
	user, _ := NewIdentity("acme", seed(2))
	var certs []*Certificate
	for serial := uint64(1); serial <= 4; serial++ {
		certs = append(certs, issueTest(t, ca, user, "10.0.0.0/16", serial, 0, 100))
	}
	var cc CertCache
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				c := certs[(g+i)%len(certs)]
				if err := cc.Verify(c, ca.Pub, 1); err != nil {
					t.Errorf("genuine serial %d: %v", c.Serial, err)
				}
				bad := c.Clone()
				bad.Prefixes = []string{"0.0.0.0/0"}
				if err := cc.Verify(bad, ca.Pub, 1); err == nil {
					t.Errorf("tampered serial %d accepted", c.Serial)
				}
			}
		}(g)
	}
	wg.Wait()
}
