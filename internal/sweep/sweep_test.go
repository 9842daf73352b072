package sweep

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"dtc/internal/flowsim"
	"dtc/internal/netsim"
	"dtc/internal/sim"
	"dtc/internal/topology"
)

// TestRunDeterministicAcrossWorkers is the package contract: identical
// results at any worker count, including worker counts above GOMAXPROCS.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	const n = 37
	point := func(p int, rng *sim.RNG) ([]uint64, error) {
		out := make([]uint64, 8)
		for i := range out {
			out[i] = rng.Uint64()
		}
		return out, nil
	}
	want, err := Run(n, 1, 42, point)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 4, 8, 64} {
		got, err := Run(n, workers, 42, point)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			for j := range want[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("workers=%d point %d draw %d: got %d want %d",
						workers, i, j, got[i][j], want[i][j])
				}
			}
		}
	}
}

// TestRunSubstreamsIndependentOfOrder: a point's RNG must not depend on
// other points having run. Compare a full sweep against single-point runs.
func TestRunSubstreamsIndependentOfOrder(t *testing.T) {
	full, err := Run(10, 4, 7, func(p int, rng *sim.RNG) (uint64, error) {
		return rng.Uint64(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 10; p++ {
		if got := sim.NewRNG(7).Substream(uint64(p)).Uint64(); got != full[p] {
			t.Fatalf("point %d drew %d in sweep, %d standalone", p, full[p], got)
		}
	}
}

func TestRunReturnsLowestFailingPoint(t *testing.T) {
	for _, workers := range []int{1, 4} {
		_, err := Run(20, workers, 1, func(p int, rng *sim.RNG) (int, error) {
			if p >= 5 {
				return 0, fmt.Errorf("point %d failed", p)
			}
			return p, nil
		})
		if err == nil || err.Error() != "point 5 failed" {
			t.Errorf("workers=%d: err = %v, want point 5's", workers, err)
		}
	}
}

func TestRunEmpty(t *testing.T) {
	res, err := Run(0, 4, 1, func(p int, rng *sim.RNG) (int, error) { return p, nil })
	if err != nil || res != nil {
		t.Errorf("empty sweep: res=%v err=%v", res, err)
	}
}

// TestSubstrateSharedAcrossPoints drives real flow models over one
// substrate from many goroutines — the exact concurrent-read pattern the
// experiment ports use — and checks results match private-table runs.
// Under -race this also proves routing.Shared and the compiled trie are
// data-race free.
func TestSubstrateSharedAcrossPoints(t *testing.T) {
	s := sim.New(3)
	g, err := topology.BarabasiAlbert(150, 2, s.RNG())
	if err != nil {
		t.Fatal(err)
	}
	sub := NewSubstrate(g)
	stubs := g.Stubs()
	mkFlows := func(rng *sim.RNG) []flowsim.Flow {
		flows := make([]flowsim.Flow, 100)
		for i := range flows {
			flows[i] = flowsim.Flow{
				From: stubs[rng.Intn(len(stubs))], To: stubs[0],
				Rate: 1, Size: 100, Src: flowsim.SrcUnallocated,
			}
		}
		return flows
	}
	point := func(p int, rng *sim.RNG, m *flowsim.Model) (flowsim.Sweep, error) {
		if err := m.Deploy(g.NodesByDegree()[:p*3], true); err != nil {
			return flowsim.Sweep{}, err
		}
		return m.EvalBatch(mkFlows(rng))
	}
	want, err := Run(12, 1, 9, func(p int, rng *sim.RNG) (flowsim.Sweep, error) {
		return point(p, rng, flowsim.New(g)) // private table per point
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(12, 8, 9, func(p int, rng *sim.RNG) (flowsim.Sweep, error) {
		return point(p, rng, flowsim.NewOnRoutes(g, sub.Routes))
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("point %d: shared=%+v private=%+v", i, got[i], want[i])
		}
	}
	if sub.Routes.Stats().Builds < 1 {
		t.Error("shared table built no trees")
	}
}

func TestGetSubstrateCachesAndDedups(t *testing.T) {
	ResetCache()
	defer ResetCache()
	var builds int
	var mu sync.Mutex
	build := func() (*Substrate, error) {
		mu.Lock()
		builds++
		mu.Unlock()
		s := sim.New(5)
		g, err := topology.BarabasiAlbert(50, 2, s.RNG())
		if err != nil {
			return nil, err
		}
		return NewSubstrate(g), nil
	}
	key := Key{Name: "test-ba50", Seed: 5}
	var wg sync.WaitGroup
	subs := make([]*Substrate, 16)
	for i := range subs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			subs[i], _ = GetSubstrate(key, build)
		}(i)
	}
	wg.Wait()
	for i := range subs {
		if subs[i] == nil || subs[i] != subs[0] {
			t.Fatalf("caller %d got %p, want shared %p", i, subs[i], subs[0])
		}
	}
	if builds != 1 {
		t.Errorf("build ran %d times, want 1", builds)
	}
	failKey := Key{Name: "fails", Seed: 1}
	wantErr := errors.New("boom")
	if _, err := GetSubstrate(failKey, func() (*Substrate, error) { return nil, wantErr }); err != wantErr {
		t.Errorf("err = %v", err)
	}
	// Failed builds are retried, not cached.
	if sub, err := GetSubstrate(failKey, build); err != nil || sub == nil {
		t.Errorf("retry after failure: sub=%v err=%v", sub, err)
	}
}

func TestGetSubstrateEvicts(t *testing.T) {
	ResetCache()
	defer ResetCache()
	mk := func() (*Substrate, error) { return &Substrate{}, nil }
	first, _ := GetSubstrate(Key{Name: "k0"}, mk)
	for i := 1; i <= cacheCap; i++ {
		GetSubstrate(Key{Name: fmt.Sprintf("k%d", i)}, mk)
	}
	again, _ := GetSubstrate(Key{Name: "k0"}, mk)
	if again == first {
		t.Error("oldest entry survived past the cache cap")
	}
}

// TestNodeOwnersMatchesNetsim: the owner map a Substrate shares with its
// sweep points matches the one a network builds for itself, so a network
// on the substrate resolves every node's hosts as a fresh one would.
func TestNodeOwnersMatchesNetsim(t *testing.T) {
	s := sim.New(11)
	g, err := topology.BarabasiAlbert(40, 2, s.RNG())
	if err != nil {
		t.Fatal(err)
	}
	sub := NewSubstrate(g)
	if sub.Owners.Len() != g.Len() {
		t.Fatalf("owners has %d prefixes, want %d", sub.Owners.Len(), g.Len())
	}
	own, err := netsim.New(s, g, netsim.DefaultLink)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := netsim.NewOnSubstrate(s, g, netsim.DefaultLink, sub.Routes, sub.Owners)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= g.Len(); i++ {
		a := netsim.NodePrefix(i).Nth(1)
		want, wantOK := own.NodeOfAddr(a)
		if got, ok := shared.NodeOfAddr(a); got != want || ok != wantOK {
			t.Errorf("NodeOfAddr(%v) on the substrate = %d,%v, want %d,%v", a, got, ok, want, wantOK)
		}
	}
}
