package routing

import (
	"math"
	"testing"
	"testing/quick"

	"dtc/internal/sim"
	"dtc/internal/topology"
)

func TestLinePaths(t *testing.T) {
	g := topology.Line(5)
	tr, err := BuildTree(g, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := tr.Path(0)
	want := []int{0, 1, 2, 3, 4}
	if len(p) != len(want) {
		t.Fatalf("Path = %v", p)
	}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("Path = %v, want %v", p, want)
		}
	}
	if tr.Hops(0) != 4 || tr.Hops(4) != 0 || tr.Hops(3) != 1 {
		t.Errorf("hops wrong: %d %d %d", tr.Hops(0), tr.Hops(4), tr.Hops(3))
	}
}

func TestStarNextHops(t *testing.T) {
	g := topology.Star(6)
	tr, err := BuildTree(g, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	// All leaves route via hub 0; hub routes direct.
	for leaf := 1; leaf <= 6; leaf++ {
		if leaf == 3 {
			continue
		}
		if tr.Next[leaf] != 0 {
			t.Errorf("leaf %d next hop = %d, want 0", leaf, tr.Next[leaf])
		}
	}
	if tr.Next[0] != 3 {
		t.Errorf("hub next hop = %d, want 3", tr.Next[0])
	}
	if tr.Next[3] != 3 {
		t.Errorf("dst next hop = %d, want self", tr.Next[3])
	}
}

func TestUnreachable(t *testing.T) {
	g := topology.NewGraph(4)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	tr, err := BuildTree(g, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Next[2] != NoRoute || tr.Next[3] != NoRoute {
		t.Error("disconnected nodes have routes")
	}
	if tr.Path(2) != nil {
		t.Error("Path from disconnected node non-nil")
	}
	if tr.Hops(2) != -1 {
		t.Error("Hops from disconnected node != -1")
	}
}

func TestWeightedRouting(t *testing.T) {
	// Square: 0-1-3 (cost 1+1), 0-2-3 (cost 10+1). Shortest 0->3 via 1.
	g := topology.NewGraph(4)
	for _, e := range [][2]int{{0, 1}, {1, 3}, {0, 2}, {2, 3}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	w := func(a, b int) float64 {
		if (a == 0 && b == 2) || (a == 2 && b == 0) {
			return 10
		}
		return 1
	}
	tr, err := BuildTree(g, 3, w)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Next[0] != 1 {
		t.Errorf("next hop from 0 = %d, want 1 (cheap path)", tr.Next[0])
	}
	if tr.Dist[0] != 2 {
		t.Errorf("dist from 0 = %v, want 2", tr.Dist[0])
	}
}

func TestInvalidInputs(t *testing.T) {
	g := topology.Line(3)
	if _, err := BuildTree(g, -1, nil); err == nil {
		t.Error("negative dst accepted")
	}
	if _, err := BuildTree(g, 3, nil); err == nil {
		t.Error("out-of-range dst accepted")
	}
	if _, err := BuildTree(g, 0, func(a, b int) float64 { return 0 }); err == nil {
		t.Error("zero weight accepted")
	}
	if _, err := BuildTree(g, 0, func(a, b int) float64 { return -1 }); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := BuildTree(g, 0, func(a, b int) float64 { return math.NaN() }); err == nil {
		t.Error("NaN weight accepted")
	}
}

func TestTableCaching(t *testing.T) {
	g := topology.Line(10)
	tbl := NewShared(g, nil)
	for i := 0; i < 5; i++ {
		if _, ok := tbl.NextHop(0, 9); !ok {
			t.Fatal("no route on line")
		}
	}
	if b := tbl.Stats().Builds; b != 1 {
		t.Errorf("builds = %d, want 1 (cached)", b)
	}
	if _, ok := tbl.NextHop(9, 0); !ok {
		t.Fatal("no reverse route")
	}
	if b := tbl.Stats().Builds; b != 2 {
		t.Errorf("builds = %d, want 2", b)
	}
	tbl.Invalidate()
	if _, ok := tbl.NextHop(0, 9); !ok {
		t.Fatal("no route after invalidate")
	}
	if b := tbl.Stats().Builds; b != 3 {
		t.Errorf("builds = %d after invalidate, want 3", b)
	}
}

func TestTableNextHopBounds(t *testing.T) {
	g := topology.Line(3)
	tbl := NewShared(g, nil)
	if _, ok := tbl.NextHop(-1, 2); ok {
		t.Error("negative cur accepted")
	}
	if _, ok := tbl.NextHop(0, 99); ok {
		t.Error("out-of-range dst accepted")
	}
}

// Property: on random connected BA graphs, following Next from any source
// reaches the destination in at most n-1 hops and distances decrease
// monotonically along the path.
func TestPropertyTreeConsistency(t *testing.T) {
	f := func(seed uint64, nRaw uint8, dstRaw uint8) bool {
		n := 10 + int(nRaw)%100
		g, err := topology.BarabasiAlbert(n, 2, sim.NewRNG(seed))
		if err != nil {
			return false
		}
		dst := int(dstRaw) % n
		tr, err := BuildTree(g, dst, nil)
		if err != nil {
			return false
		}
		for src := 0; src < n; src++ {
			p := tr.Path(src)
			if p == nil || p[len(p)-1] != dst || len(p) > n {
				return false
			}
			for i := 1; i < len(p); i++ {
				if tr.Dist[p[i]] >= tr.Dist[p[i-1]] {
					return false
				}
				if !g.HasEdge(p[i-1], p[i]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: hop-count distances computed by Dijkstra match a BFS.
func TestPropertyDijkstraEqualsBFS(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := 5 + int(nRaw)%60
		g, err := topology.BarabasiAlbert(n, 1, sim.NewRNG(seed))
		if err != nil {
			return false
		}
		dst := 0
		tr, err := BuildTree(g, dst, nil)
		if err != nil {
			return false
		}
		// BFS from dst.
		dist := make([]int, n)
		for i := range dist {
			dist[i] = -1
		}
		dist[dst] = 0
		queue := []int{dst}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, u := range g.Neighbors(v) {
				if dist[u] < 0 {
					dist[u] = dist[v] + 1
					queue = append(queue, u)
				}
			}
		}
		for v := 0; v < n; v++ {
			if dist[v] < 0 {
				if tr.Next[v] != NoRoute {
					return false
				}
				continue
			}
			if int(tr.Dist[v]) != dist[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
