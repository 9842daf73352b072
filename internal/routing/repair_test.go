package routing

import (
	"math"
	"testing"

	"dtc/internal/sim"
	"dtc/internal/topology"
)

// intWeight is a deterministic integer-valued weight in {1,2,3}: shortest
// distances are exact small integers, so repaired-vs-rebuilt distance
// comparison can demand bit equality without float-associativity caveats.
func intWeight(a, b int) float64 {
	if a > b {
		a, b = b, a
	}
	return float64(1 + (uint64(a)*2654435761+uint64(b)*40503)%3)
}

// checkRepairedTree verifies a repaired tree against a fresh reference
// build on the post-cut graph:
//
//   - Dist is bit-exact everywhere (shortest distances are unique even
//     when shortest paths are not);
//   - reachability agrees (NoRoute exactly where the rebuild has it);
//   - every Next pointer is a real edge of the post-cut graph whose
//     endpoint achieves Dist[v] = Dist[parent] + w(v, parent) — i.e. the
//     repaired tree is a valid shortest-path tree, even where equal-cost
//     parent choices differ from the rebuild's;
//   - nodes outside the orphan region kept their pre-cut parents.
func checkRepairedTree(t *testing.T, g *topology.Graph, w WeightFunc, repaired, preCut *Tree, orphan []bool) {
	t.Helper()
	fresh, err := referenceBuildTree(g, repaired.Dst, w)
	if err != nil {
		t.Fatal(err)
	}
	if w == nil {
		w = UniformWeight
	}
	for v := range fresh.Next {
		if repaired.Dist[v] != fresh.Dist[v] && !(math.IsInf(repaired.Dist[v], 1) && math.IsInf(fresh.Dist[v], 1)) {
			t.Fatalf("dst %d: Dist[%d] = %v after repair, want %v", repaired.Dst, v, repaired.Dist[v], fresh.Dist[v])
		}
		if (repaired.Next[v] == NoRoute) != (fresh.Next[v] == NoRoute) {
			t.Fatalf("dst %d: reachability of %d diverged (repair %d, rebuild %d)",
				repaired.Dst, v, repaired.Next[v], fresh.Next[v])
		}
		if repaired.Next[v] == NoRoute || v == repaired.Dst {
			continue
		}
		p := int(repaired.Next[v])
		if !g.HasEdge(v, p) {
			t.Fatalf("dst %d: repaired Next[%d] = %d is not an edge", repaired.Dst, v, p)
		}
		if got, want := repaired.Dist[p]+w(v, p), repaired.Dist[v]; got != want {
			t.Fatalf("dst %d: repaired parent of %d not on a shortest path (%v via parent, dist %v)",
				repaired.Dst, v, got, want)
		}
		if orphan != nil && !orphan[v] && repaired.Next[v] != preCut.Next[v] {
			t.Fatalf("dst %d: intact node %d changed parent %d -> %d",
				repaired.Dst, v, preCut.Next[v], repaired.Next[v])
		}
	}
}

// markOrphans computes, from the pre-cut tree, the set of nodes whose root
// path crossed the removed edge — the only nodes repair may rewrite.
func markOrphans(preCut *Tree, x, y int) []bool {
	n := len(preCut.Next)
	child := -1
	if int(preCut.Next[x]) == y {
		child = x
	} else if int(preCut.Next[y]) == x {
		child = y
	}
	orphan := make([]bool, n)
	if child < 0 {
		return orphan
	}
	for v := 0; v < n; v++ {
		if preCut.Next[v] == NoRoute {
			continue
		}
		for u, hops := v, 0; hops <= n; u, hops = int(preCut.Next[u]), hops+1 {
			if u == child {
				orphan[v] = true
				break
			}
			if u == preCut.Dst {
				break
			}
		}
	}
	return orphan
}

func runRepairTrial(t *testing.T, seed uint64, n int, cuts int, weighted bool) {
	g, err := topology.BarabasiAlbert(n, 2, sim.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	var w WeightFunc
	if weighted {
		w = intWeight
	}
	tbl := NewTable(g, w)
	rng := sim.NewRNG(seed + 11)
	// Cache a spread of destinations, then cut random edges one after
	// another, repairing after each cut (repair-on-repaired is the
	// steady-state the fault schedules produce).
	var dsts []int
	for d := 0; d < n; d += 1 + n/16 {
		dsts = append(dsts, d)
		if _, err := tbl.TreeTo(d); err != nil {
			t.Fatal(err)
		}
	}
	for c := 0; c < cuts; c++ {
		edges := g.Edges()
		if len(edges) == 0 {
			return
		}
		e := edges[rng.Intn(len(edges))]
		pre := make(map[int]*Tree, len(dsts))
		orphans := make(map[int][]bool, len(dsts))
		for _, d := range dsts {
			tr, err := tbl.TreeTo(d)
			if err != nil {
				t.Fatal(err)
			}
			cp := &Tree{Dst: tr.Dst, Next: append([]int32(nil), tr.Next...), Dist: append([]float64(nil), tr.Dist...)}
			pre[d] = cp
			orphans[d] = markOrphans(cp, e.A, e.B)
		}
		g.RemoveEdge(e.A, e.B)
		tbl.LinkDown(e.A, e.B)
		for _, d := range dsts {
			tr, err := tbl.TreeTo(d)
			if err != nil {
				t.Fatal(err)
			}
			checkRepairedTree(t, g, w, tr, pre[d], orphans[d])
		}
	}
}

// FuzzFailLinkRepair cuts random edges of random power-law graphs and
// checks every repaired tree against a fresh rebuild (distances bit-exact,
// reachability equal, parents valid, intact region untouched).
func FuzzFailLinkRepair(f *testing.F) {
	f.Add(uint64(1), uint8(40), uint8(3), true)
	f.Add(uint64(2), uint8(9), uint8(1), false)
	f.Add(uint64(42), uint8(200), uint8(5), true)
	f.Add(uint64(7), uint8(120), uint8(4), false)
	f.Fuzz(func(t *testing.T, seed uint64, nRaw uint8, cuts uint8, weighted bool) {
		n := 5 + int(nRaw)
		runRepairTrial(t, seed, n, 1+int(cuts)%6, weighted)
	})
}

// TestFailLinkRepairDeterministic pins a broad sweep of the same property
// in the normal test run (the fuzz target above only replays its corpus
// there).
func TestFailLinkRepairDeterministic(t *testing.T) {
	for seed := uint64(0); seed < 12; seed++ {
		runRepairTrial(t, seed, 30+int(seed)*17, 4, seed%2 == 0)
	}
}

// TestSharedLinkDownMatchesTable runs the same cut through a Shared cache
// and checks it repairs to the same trees as Table (the concurrent cache's
// repair path vs the single-simulation table's).
func TestSharedLinkDownMatchesTable(t *testing.T) {
	mk := func() *topology.Graph {
		g, err := topology.BarabasiAlbert(300, 2, sim.NewRNG(5))
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	g1, g2 := mk(), mk()
	tbl := NewTable(g1, nil)
	sh := NewShared(g2, nil)
	// Cut an edge the dst-0 tree actually uses, so at least one repair runs.
	tr0, err := tbl.TreeTo(0)
	if err != nil {
		t.Fatal(err)
	}
	e := topology.Edge{A: 123, B: int(tr0.Next[123])}
	for d := 0; d < 300; d += 29 {
		if _, err := tbl.TreeTo(d); err != nil {
			t.Fatal(err)
		}
		if _, err := sh.TreeTo(d); err != nil {
			t.Fatal(err)
		}
	}
	g1.RemoveEdge(e.A, e.B)
	tbl.LinkDown(e.A, e.B)
	g2.RemoveEdge(e.A, e.B)
	sh.LinkDown(e.A, e.B)
	for d := 0; d < 300; d += 29 {
		a, err := tbl.TreeTo(d)
		if err != nil {
			t.Fatal(err)
		}
		b, err := sh.TreeTo(d)
		if err != nil {
			t.Fatal(err)
		}
		treesExactlyEqual(t, "shared vs table repair", a, b)
	}
	ts, ss := tbl.Stats(), sh.Stats()
	if ts.Repairs == 0 || ts.Repairs != ss.Repairs {
		t.Fatalf("repair counters diverged: table %d, shared %d", ts.Repairs, ss.Repairs)
	}
}
