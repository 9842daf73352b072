package routing

import (
	"sync"
	"testing"

	"dtc/internal/sim"
	"dtc/internal/topology"
)

// Steady-state TreeTo cache hits must not allocate: they sit on the
// per-packet forwarding path.
func TestTreeToHitZeroAlloc(t *testing.T) {
	g, err := topology.BarabasiAlbert(500, 2, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	tbl := NewTable(g, nil)
	sh := NewShared(g, nil)
	if _, err := tbl.TreeTo(7); err != nil {
		t.Fatal(err)
	}
	if _, err := sh.TreeTo(7); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := tbl.TreeTo(7); err != nil {
			t.Fatal(err)
		}
		if _, ok := tbl.NextHop(100, 7); !ok {
			t.Fatal("no route")
		}
	}); n != 0 {
		t.Errorf("Table hit path allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := sh.TreeTo(7); err != nil {
			t.Fatal(err)
		}
		if _, ok := sh.NextHop(100, 7); !ok {
			t.Fatal("no route")
		}
	}); n != 0 {
		t.Errorf("Shared hit path allocates %v/op, want 0", n)
	}
}

// After warmup, Dijkstra builds into a reused tree allocate nothing: the
// heap, done bitmap and tree arrays are all retained scratch.
func TestBuildIntoZeroAllocSteadyState(t *testing.T) {
	g, err := topology.BarabasiAlbert(500, 2, sim.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(g, nil)
	tr := &Tree{}
	if err := b.BuildInto(tr, 0); err != nil {
		t.Fatal(err)
	}
	dst := 0
	if n := testing.AllocsPerRun(50, func() {
		dst = (dst + 17) % g.Len()
		if err := b.BuildInto(tr, dst); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("warm BuildInto allocates %v/op, want 0", n)
	}
}

// Repair must also be allocation-free after warmup (it runs at quiescent
// points of live simulations).
func TestRepairZeroAllocSteadyState(t *testing.T) {
	g, err := topology.BarabasiAlbert(500, 2, sim.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(g, nil)
	tr := &Tree{}
	if err := b.BuildInto(tr, 0); err != nil {
		t.Fatal(err)
	}
	e := g.Edges()[100]
	g.RemoveEdge(e.A, e.B)
	if _, err := b.Repair(tr, e.A, e.B); err != nil {
		t.Fatal(err)
	}
	// Rebuild on the cut graph, re-add + re-remove so each run repairs the
	// same cut from a consistent tree. The graph mutation itself is not
	// measured; AllocsPerRun averages, so the AddEdge/RemoveEdge slice
	// churn is avoided by mutating outside via restoring state per run.
	if err := g.AddEdge(e.A, e.B); err != nil {
		t.Fatal(err)
	}
	if err := b.BuildInto(tr, 0); err != nil {
		t.Fatal(err)
	}
	g.RemoveEdge(e.A, e.B)
	if n := testing.AllocsPerRun(20, func() {
		if _, err := b.Repair(tr, e.A, e.B); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("warm Repair allocates %v/op, want 0", n)
	}
}

// Concurrent readers racing on cold and warm slots must agree on one
// canonical tree per destination and never misroute. Run under -race via
// make race.
func TestSharedConcurrentReaders(t *testing.T) {
	g, err := topology.BarabasiAlbert(400, 2, sim.NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	sh := NewShared(g, nil)
	const workers = 8
	trees := make([][]*Tree, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		w := w
		go func() {
			defer wg.Done()
			trees[w] = make([]*Tree, g.Len())
			for d := 0; d < g.Len(); d++ {
				tr, err := sh.TreeTo(d)
				if err != nil {
					t.Error(err)
					return
				}
				trees[w][d] = tr
				if !sh.FeasibleIngress(int(tr.Next[(d+1)%g.Len()]), (d+1)%g.Len(), d) {
					_ = tr // feasibility may be false; just exercise the path
				}
			}
		}()
	}
	wg.Wait()
	for d := 0; d < g.Len(); d++ {
		for w := 1; w < workers; w++ {
			if trees[w][d] != trees[0][d] {
				t.Fatalf("dst %d: workers saw different canonical trees", d)
			}
		}
	}
	st := sh.Stats()
	if st.Builds < uint64(g.Len()) {
		t.Errorf("builds = %d, want >= %d", st.Builds, g.Len())
	}
	if st.Hits == 0 {
		t.Error("no hits recorded")
	}
}

// Prebuild fills the requested slots (in parallel on a Shared), building
// each destination once, and subsequent lookups are all hits. Destinations
// are checked before any build: a bad one fails the whole batch.
func TestSharedPrebuild(t *testing.T) {
	g, err := topology.BarabasiAlbert(200, 2, sim.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []Source{NewShared(g, nil), NewTable(g, nil)} {
		dsts := []int{3, 50, 50, 199, 0}
		if err := src.Prebuild(dsts, 4); err != nil {
			t.Fatal(err)
		}
		before := src.Stats().Builds
		if before != 4 {
			t.Errorf("%T: Prebuild of 4 distinct destinations built %d trees", src, before)
		}
		for _, d := range dsts {
			if _, err := src.TreeTo(d); err != nil {
				t.Fatal(err)
			}
		}
		if after := src.Stats().Builds; after != before {
			t.Errorf("%T: lookups after Prebuild built %d more trees", src, after-before)
		}
		if err := src.Prebuild([]int{-1}, 2); err == nil {
			t.Errorf("%T: Prebuild accepted out-of-range destination", src)
		}
		for _, workers := range []int{1, 4} {
			before := src.Stats().Builds
			if err := src.Prebuild([]int{7, 8, g.Len(), 9, 10}, workers); err == nil {
				t.Errorf("%T workers=%d: Prebuild accepted destination %d among valid ones", src, workers, g.Len())
			}
			if got := src.Stats().Builds; got != before {
				t.Errorf("%T workers=%d: rejected batch built %d trees", src, workers, got-before)
			}
		}
		before = src.Stats().Builds
		if err := src.Prebuild([]int{11, 11, 3, 11}, 4); err != nil {
			t.Fatal(err)
		}
		if got := src.Stats().Builds; got != before+1 {
			t.Errorf("%T: repeated destination built %d trees, want 1", src, got-before)
		}
	}
}
