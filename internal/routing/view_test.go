package routing

import (
	"fmt"
	"sync"
	"testing"

	"dtc/internal/sim"
	"dtc/internal/topology"
)

// viewSet picks a deterministic node set: the top-degree hubs plus every
// seventh node, the shape of a victim cone with its reflector fan-in.
func viewSet(g *topology.Graph) []int {
	set := append([]int(nil), g.NodesByDegree()[:4]...)
	for v := 3; v < g.Len(); v += 7 {
		set = append(set, v)
	}
	return set
}

// checkViewMatches asserts that for every destination, every set node and
// every half-edge incident to it (plus a non-adjacent probe), the view
// answers exactly as its parent's full trees do, and that nodes outside
// the set get no route.
func checkViewMatches(t *testing.T, label string, g *topology.Graph, sh *Shared, vw Source, set []int) {
	t.Helper()
	in := make([]bool, g.Len())
	for _, v := range set {
		in[v] = true
	}
	// The view goes first, so rows whose tree the parent has not cached
	// come from scratch builds rather than copies.
	type answer struct {
		next int
		ok   bool
	}
	var got []answer
	var feas []bool
	for dst := 0; dst < g.Len(); dst++ {
		for _, at := range set {
			n, ok := vw.NextHop(at, dst)
			got = append(got, answer{n, ok})
			for _, from := range g.Neighbors(at) {
				feas = append(feas, vw.FeasibleIngress(at, from, dst))
			}
			feas = append(feas, vw.FeasibleIngress(at, (at+g.Len()/2)%g.Len(), dst))
		}
	}
	i, j := 0, 0
	for dst := 0; dst < g.Len(); dst++ {
		for _, at := range set {
			n, ok := sh.NextHop(at, dst)
			if got[i] != (answer{n, ok}) {
				t.Fatalf("%s: NextHop(%d, %d) = %v, full tree says %v", label, at, dst, got[i], answer{n, ok})
			}
			i++
			froms := append(append([]int(nil), g.Neighbors(at)...), (at+g.Len()/2)%g.Len())
			for _, from := range froms {
				if want := sh.FeasibleIngress(at, from, dst); feas[j] != want {
					t.Fatalf("%s: FeasibleIngress(%d, %d, %d) = %v, full tree says %v", label, at, from, dst, feas[j], want)
				}
				j++
			}
		}
	}
	for v := 0; v < g.Len(); v++ {
		if in[v] {
			continue
		}
		if n, ok := vw.NextHop(v, set[0]); ok || n != NoRoute {
			t.Fatalf("%s: NextHop from out-of-set node %d = %d, %v", label, v, n, ok)
		}
		if len(g.Neighbors(v)) > 0 && vw.FeasibleIngress(v, g.Neighbors(v)[0], set[0]) {
			t.Fatalf("%s: FeasibleIngress at out-of-set node %d answered true", label, v)
		}
	}
}

// TestSharedViewMatchesFullTrees is the view's differential test: next
// hops and uRPF verdicts equal the full trees', for rows copied from
// cached trees and rows built into scratch, before and after LinkDown
// repair and after Invalidate, on hop-count and tie-heavy weights.
func TestSharedViewMatchesFullTrees(t *testing.T) {
	for _, w := range []WeightFunc{nil, intWeight} {
		g, err := topology.BarabasiAlbert(240, 2, sim.NewRNG(9))
		if err != nil {
			t.Fatal(err)
		}
		sh := NewShared(g, w)
		set := viewSet(g)
		// Cache every other destination's full tree first: those rows are
		// copied, the rest are scratch builds.
		for d := 0; d < g.Len(); d += 2 {
			if _, err := sh.TreeTo(d); err != nil {
				t.Fatal(err)
			}
		}
		vw := sh.View(set)
		perm := append([]int{set[len(set)-1], -1, g.Len()}, set...)
		if again := sh.View(perm); again != vw {
			t.Fatal("View is not memoized by node set")
		}
		before := sh.Stats().Builds
		checkViewMatches(t, "fresh", g, sh, vw, set)
		// Each uncached destination was built exactly once, by the view;
		// the parent then built its own trees for the comparison.
		half := uint64(g.Len() / 2)
		if got := sh.Stats().Builds - before; got != 2*half {
			t.Fatalf("builds = %d, want %d view rows + %d parent trees", got, half, half)
		}

		// Cut tree edges of a few destinations; the parent repairs its
		// trees in place and the view's rows are rebuilt from them.
		for _, d := range []int{0, 17, 101} {
			tr, err := sh.TreeTo(d)
			if err != nil {
				t.Fatal(err)
			}
			a := set[len(set)/2]
			for k := 0; a == d || tr.Next[a] == NoRoute; k++ {
				a = set[k]
			}
			b := int(tr.Next[a])
			if !g.RemoveEdge(a, b) {
				t.Fatalf("edge (%d,%d) not in graph", a, b)
			}
			vw.LinkDown(a, b)
			checkViewMatches(t, "after LinkDown", g, sh, vw, set)
		}
		if sh.Stats().Repairs == 0 {
			t.Fatal("no tree was repaired; the cuts missed every tree")
		}
		vw.Invalidate()
		checkViewMatches(t, "after Invalidate", g, sh, vw, set)
	}
	g := topology.Line(3)
	if tbl := NewTable(g, nil); tbl.View([]int{1}) != Source(tbl) {
		t.Fatal("Table.View is not the table itself")
	}
}

// TestSharedViewConcurrentReaders races readers over cold view rows (run
// under -race via make race): every reader sees the rows a
// sequential pass over a separate cache computes, and racing builds of
// one destination publish a single row.
func TestSharedViewConcurrentReaders(t *testing.T) {
	g, err := topology.BarabasiAlbert(300, 2, sim.NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	set := viewSet(g)
	ref := NewShared(g, nil)
	want := make([]int, 0, g.Len()*len(set))
	for d := 0; d < g.Len(); d++ {
		for _, at := range set {
			n, _ := ref.NextHop(at, d)
			want = append(want, n)
		}
	}
	sh := NewShared(g, nil)
	vw := sh.View(set)
	const workers = 8
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		w := w
		go func() {
			defer wg.Done()
			for k := 0; k < g.Len(); k++ {
				d := (k + w*37) % g.Len()
				for i, at := range set {
					if n, _ := vw.NextHop(at, d); n != want[d*len(set)+i] {
						t.Errorf("worker %d: NextHop(%d, %d) = %d, want %d", w, at, d, n, want[d*len(set)+i])
						return
					}
					nb := g.Neighbors(at)[0]
					if vw.FeasibleIngress(at, nb, d) != ref.FeasibleIngress(at, nb, d) {
						t.Errorf("worker %d: FeasibleIngress(%d, %d, %d) disagrees", w, at, nb, d)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if b := sh.Stats().Builds; b < uint64(g.Len()) || b > uint64(workers*g.Len()) {
		t.Fatalf("builds = %d, want within [%d, %d]", b, g.Len(), workers*g.Len())
	}
}

// viewAnswers reads every row of vw for the set: the next hop of each set
// node, then its FeasibleIngress verdict (1 or 0) over each incident
// half-edge.
func viewAnswers(g *topology.Graph, vw Source, set []int) []int {
	var out []int
	for dst := 0; dst < g.Len(); dst++ {
		for _, at := range set {
			n, _ := vw.NextHop(at, dst)
			out = append(out, n)
			for _, from := range g.Neighbors(at) {
				ok := 0
				if vw.FeasibleIngress(at, from, dst) {
					ok = 1
				}
				out = append(out, ok)
			}
		}
	}
	return out
}

// TestSharedViewPrebuildMatchesLazy is Prebuild's differential test: at
// 1, 2 and 8 workers, on hop-count and tie-heavy weights, prebuilt rows
// answer exactly as lazily built ones, fresh and after LinkDown and
// Invalidate. Rows whose tree the parent has cached are copied without a
// build, each other destination is built once however often dsts repeats
// it, and readers may query cold rows while Prebuild runs.
func TestSharedViewPrebuildMatchesLazy(t *testing.T) {
	for wi, w := range []WeightFunc{nil, intWeight} {
		for _, workers := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("weights%d/workers%d", wi, workers), func(t *testing.T) {
				checkPrebuildMatchesLazy(t, w, workers)
			})
		}
	}
}

func checkPrebuildMatchesLazy(t *testing.T, w WeightFunc, workers int) {
	g, err := topology.BarabasiAlbert(240, 2, sim.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	set := viewSet(g)
	// Both caches hold every third destination's full tree, whose rows
	// are copies. LinkDown repairs those trees in place, and a repaired
	// tree may break equal-cost ties unlike a fresh build, so the lazy
	// reference keeps the same trees to copy from.
	lazyParent, sh := NewShared(g, w), NewShared(g, w)
	cached := 0
	for d := 0; d < g.Len(); d += 3 {
		for _, c := range []*Shared{lazyParent, sh} {
			if _, err := c.TreeTo(d); err != nil {
				t.Fatal(err)
			}
		}
		cached++
	}
	lazy := lazyParent.View(set)
	wantNext := make([]int, 0, g.Len()*len(set))
	for d := 0; d < g.Len(); d++ {
		for _, at := range set {
			n, _ := lazy.NextHop(at, d)
			wantNext = append(wantNext, n)
		}
	}

	vw := sh.View(set)
	dsts := make([]int, g.Len(), g.Len()+80)
	for d := range dsts {
		dsts[d] = d
	}
	dsts = append(dsts, dsts[:40]...)
	dsts = append(dsts, dsts[100:140]...)

	check := func(phase string) {
		t.Helper()
		b0 := sh.Stats().Builds
		got := viewAnswers(g, vw, set)
		if b := sh.Stats().Builds; b != b0 {
			t.Fatalf("%s: reading prebuilt rows built %d more", phase, b-b0)
		}
		want := viewAnswers(g, lazy, set)
		if len(got) != len(want) {
			t.Fatalf("%s: %d answers, want %d", phase, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: answer %d is %d, lazily built rows say %d", phase, i, got[i], want[i])
			}
		}
	}
	// Without racing readers the counts are exact: every uncached
	// destination is built once, copies and repeats cost nothing.
	prebuild := func(phase string, wantBuilds int) {
		t.Helper()
		b0 := sh.Stats().Builds
		if err := vw.Prebuild(dsts, workers); err != nil {
			t.Fatal(err)
		}
		if got := sh.Stats().Builds - b0; got != uint64(wantBuilds) {
			t.Fatalf("%s: Prebuild built %d rows, want %d", phase, got, wantBuilds)
		}
		check(phase)
	}

	// Two readers walk cold rows while Prebuild fills them.
	before := sh.Stats().Builds
	var wg sync.WaitGroup
	var perr error
	wg.Add(3)
	go func() {
		defer wg.Done()
		perr = vw.Prebuild(dsts, workers)
	}()
	for r := 0; r < 2; r++ {
		go func() {
			defer wg.Done()
			for d := g.Len() - 1; d >= 0; d -= 1 + r {
				for i, at := range set {
					if n, _ := vw.NextHop(at, d); n != wantNext[d*len(set)+i] {
						t.Errorf("racing reader: NextHop(%d, %d) = %d, want %d", at, d, n, wantNext[d*len(set)+i])
						return
					}
					vw.FeasibleIngress(at, g.Neighbors(at)[0], d)
				}
			}
		}()
	}
	wg.Wait()
	if perr != nil {
		t.Fatal(perr)
	}
	if got, lo := sh.Stats().Builds-before, uint64(g.Len()-cached); got < lo || got > 3*lo {
		t.Fatalf("racing Prebuild: %d builds for %d uncached rows", got, lo)
	}
	check("fresh")
	prebuild("again", 0)

	tr, err := sh.TreeTo(0)
	if err != nil {
		t.Fatal(err)
	}
	a := set[len(set)/2]
	for k := 0; a == 0 || tr.Next[a] == NoRoute; k++ {
		a = set[k]
	}
	b := int(tr.Next[a])
	if !g.RemoveEdge(a, b) {
		t.Fatalf("edge (%d,%d) not in graph", a, b)
	}
	lazy.LinkDown(a, b)
	vw.LinkDown(a, b)
	// LinkDown repairs the parent's cached trees in place, so their rows
	// are copies again.
	prebuild("after LinkDown", g.Len()-cached)

	lazy.Invalidate()
	vw.Invalidate()
	prebuild("after Invalidate", g.Len())
}
