package routing

import (
	"fmt"
	"testing"

	"dtc/internal/sim"
	"dtc/internal/topology"
)

// cutStep is one step of a cut sequence: the destinations whose trees and
// view rows are warmed before the cut (each either looked up or
// prebuilt), then the edge removed.
type cutStep struct {
	trees, rows       []int
	prebuildTrees     bool
	prebuildRows      bool
	cutA, cutB        int
	treeFirstInChecks bool
}

// planCuts draws a sequence of up to cuts steps on a private copy of the
// graph: a random subset of destinations to warm as trees and as view
// rows before each cut, and an edge of the graph as it stands at that
// step. About half the cuts take an edge of a warmed destination's tree,
// so cuts regularly change cached state.
func planCuts(t *testing.T, g *topology.Graph, w WeightFunc, rng *sim.RNG, cuts int) []cutStep {
	var plan []cutStep
	for c := 0; c < cuts; c++ {
		edges := g.Edges()
		if len(edges) == 0 {
			break
		}
		st := cutStep{
			prebuildTrees:     rng.Intn(2) == 0,
			prebuildRows:      rng.Intn(2) == 0,
			treeFirstInChecks: rng.Intn(2) == 0,
		}
		for d := 0; d < g.Len(); d++ {
			if rng.Intn(3) == 0 {
				st.trees = append(st.trees, d)
			}
			if rng.Intn(3) == 0 {
				st.rows = append(st.rows, d)
			}
		}
		e := edges[rng.Intn(len(edges))]
		st.cutA, st.cutB = e.A, e.B
		if len(st.trees) > 0 && rng.Intn(2) == 0 {
			tr, err := BuildTree(g, st.trees[rng.Intn(len(st.trees))], w)
			if err != nil {
				t.Fatal(err)
			}
			if v := rng.Intn(g.Len()); v != tr.Dst && tr.Next[v] != NoRoute {
				st.cutA, st.cutB = v, int(tr.Next[v])
			}
		}
		g.RemoveEdge(st.cutA, st.cutB)
		plan = append(plan, st)
	}
	return plan
}

// warm caches st's trees and view rows in sh and vw.
func (st *cutStep) warm(t *testing.T, sh *Shared, vw Source, set []int) {
	t.Helper()
	if st.prebuildTrees {
		if err := sh.Prebuild(st.trees, 2); err != nil {
			t.Fatal(err)
		}
	} else {
		for _, d := range st.trees {
			if _, err := sh.TreeTo(d); err != nil {
				t.Fatal(err)
			}
		}
	}
	if st.prebuildRows {
		if err := vw.Prebuild(st.rows, 2); err != nil {
			t.Fatal(err)
		}
	} else {
		for _, d := range st.rows {
			vw.NextHop(set[d%len(set)], d)
		}
	}
}

// checkMatchesFresh asserts that sh and its view vw answer exactly as a
// fresh cache on g does, for every node pair: TreeTo's trees, NextHop,
// FeasibleIngress over every half-edge of the uncut graph orig (cut edges
// included) plus a non-adjacent probe, and the view's NextHop and
// FeasibleIngress at each set node. treeFirst decides
// whether a destination's full tree is read before its view row (the row
// is then a copy) or after (the row is built into scratch).
func checkMatchesFresh(t *testing.T, label string, g, orig *topology.Graph, w WeightFunc, sh *Shared, vw Source, set []int, treeFirst bool) {
	t.Helper()
	fresh := NewShared(g, w)
	n := g.Len()
	// froms lists at's neighbours before the cuts and one non-adjacent
	// probe.
	froms := func(at int) []int {
		return append(append([]int(nil), orig.Neighbors(at)...), (at+n/2)%n)
	}
	checkView := func(dst int) {
		for _, at := range set {
			got, ok := vw.NextHop(at, dst)
			if want, wok := fresh.NextHop(at, dst); got != want || ok != wok {
				t.Fatalf("%s: view NextHop(%d, %d) = %d, %v; a fresh cache says %d, %v", label, at, dst, got, ok, want, wok)
			}
			for _, from := range froms(at) {
				if got, want := vw.FeasibleIngress(at, from, dst), fresh.FeasibleIngress(at, from, dst); got != want {
					t.Fatalf("%s: view FeasibleIngress(%d, %d, %d) = %v; a fresh cache says %v", label, at, from, dst, got, want)
				}
			}
		}
	}
	for dst := 0; dst < n; dst++ {
		if !treeFirst {
			checkView(dst)
		}
		got, err := sh.TreeTo(dst)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.TreeTo(dst)
		if err != nil {
			t.Fatal(err)
		}
		treesExactlyEqual(t, label+": TreeTo", want, got)
		for cur := 0; cur < n; cur++ {
			g1, ok1 := sh.NextHop(cur, dst)
			g2, ok2 := fresh.NextHop(cur, dst)
			if g1 != g2 || ok1 != ok2 {
				t.Fatalf("%s: NextHop(%d, %d) = %d, %v; a fresh cache says %d, %v", label, cur, dst, g1, ok1, g2, ok2)
			}
			for _, from := range froms(cur) {
				if a, b := sh.FeasibleIngress(cur, from, dst), fresh.FeasibleIngress(cur, from, dst); a != b {
					t.Fatalf("%s: FeasibleIngress(%d, %d, %d) = %v; a fresh cache says %v", label, cur, from, dst, a, b)
				}
			}
		}
		if treeFirst {
			checkView(dst)
		}
	}
}

// runCutsTrial checks that routing after a sequence of cuts is a function
// of the cut graph alone. The trial draws a plan of cuts with random warm
// sets, then for every prefix of it replays the prefix on a new graph and
// cache — warm, cut, Invalidate, step by step — and compares every answer
// with a fresh cache on the cut graph. Replaying per prefix keeps the
// state each cut meets random instead of whatever the previous
// comparison warmed.
func runCutsTrial(t *testing.T, seed uint64, n, cuts int, weighted bool) {
	var w WeightFunc
	if weighted {
		w = intWeight
	}
	graph := func() *topology.Graph {
		g, err := topology.BarabasiAlbert(n, 2, sim.NewRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	orig := graph()
	plan := planCuts(t, graph(), w, sim.NewRNG(seed+11), cuts)
	for k := 1; k <= len(plan); k++ {
		g := graph()
		set := viewSet(g)
		sh := NewShared(g, w)
		vw := sh.View(set)
		for _, st := range plan[:k] {
			st.warm(t, sh, vw, set)
			if !g.RemoveEdge(st.cutA, st.cutB) {
				t.Fatalf("planned cut (%d,%d) is not an edge", st.cutA, st.cutB)
			}
			sh.Invalidate()
		}
		st := plan[k-1]
		label := fmt.Sprintf("seed %d n %d weighted %v, after cut %d (%d,%d)", seed, n, weighted, k, st.cutA, st.cutB)
		checkMatchesFresh(t, label, g, orig, w, sh, vw, set, st.treeFirstInChecks)
	}
}

// FuzzCutsMatchFresh cuts random edges of random power-law graphs, with a
// random part of the routing state warmed before each cut, and checks
// that every answer after each cut equals a fresh cache's on the cut
// graph.
func FuzzCutsMatchFresh(f *testing.F) {
	f.Add(uint64(1), uint8(40), uint8(3), true)
	f.Add(uint64(2), uint8(9), uint8(1), false)
	f.Add(uint64(42), uint8(200), uint8(5), true)
	f.Add(uint64(7), uint8(120), uint8(4), false)
	f.Fuzz(func(t *testing.T, seed uint64, nRaw uint8, cuts uint8, weighted bool) {
		runCutsTrial(t, seed, 5+int(nRaw), 1+int(cuts)%6, weighted)
	})
}

// TestCutsMatchFresh runs a broad deterministic sweep of the same property
// in the normal test run (the fuzz target above only replays its corpus
// there).
func TestCutsMatchFresh(t *testing.T) {
	for seed := uint64(0); seed < 12; seed++ {
		runCutsTrial(t, seed, 30+int(seed)*17, 4, seed%2 == 0)
	}
}
