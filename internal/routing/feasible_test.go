package routing

import (
	"testing"
	"testing/quick"

	"dtc/internal/sim"
	"dtc/internal/topology"
)

// Property: every hop of every actual forwarding path is feasible ingress
// for the path's origin — i.e. strict route-based filtering never drops
// traffic that the network itself routed (no false positives), even on
// graphs with equal-cost alternatives.
func TestPropertyForwardingPathsAreFeasible(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := 8 + int(nRaw)%80
		g, err := topology.BarabasiAlbert(n, 2, sim.NewRNG(seed))
		if err != nil {
			return false
		}
		tbl := NewShared(g, nil)
		rng := sim.NewRNG(seed + 1)
		for trial := 0; trial < 30; trial++ {
			src := rng.Intn(n)
			dst := rng.Intn(n)
			if src == dst {
				continue
			}
			tr, err := tbl.TreeTo(dst)
			if err != nil {
				return false
			}
			// The packet originates at src and follows next hops toward
			// dst; at every intermediate node `cur`, it arrived from
			// `prev`, and FeasibleIngress(cur, prev, src) must hold.
			prev := src
			cur := int(tr.Next[src])
			for cur != dst {
				if !tbl.FeasibleIngress(cur, prev, src) {
					return false
				}
				prev, cur = cur, int(tr.Next[cur])
			}
			if prev != src && !tbl.FeasibleIngress(dst, prev, src) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: feasibility correctly rejects wrong-direction arrivals — a
// neighbor that is strictly farther from the source can never be a
// feasible previous hop.
func TestPropertyFeasibleRejectsWrongDirection(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := 8 + int(nRaw)%60
		g, err := topology.BarabasiAlbert(n, 2, sim.NewRNG(seed))
		if err != nil {
			return false
		}
		tbl := NewShared(g, nil)
		rng := sim.NewRNG(seed + 2)
		for trial := 0; trial < 30; trial++ {
			src := rng.Intn(n)
			tr, err := tbl.TreeTo(src)
			if err != nil {
				return false
			}
			at := rng.Intn(n)
			for _, nb := range g.Neighbors(at) {
				feasible := tbl.FeasibleIngress(at, nb, src)
				closer := tr.Dist[nb] < tr.Dist[at]
				// Feasible implies the neighbor is strictly closer to src.
				if feasible && !closer {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestFeasibleIngressEdgeCases(t *testing.T) {
	g := topology.Line(4)
	tbl := NewShared(g, nil)
	if tbl.FeasibleIngress(-1, 0, 3) || tbl.FeasibleIngress(0, -1, 3) {
		t.Error("negative nodes accepted")
	}
	if tbl.FeasibleIngress(0, 2, 3) {
		t.Error("non-adjacent previous hop accepted")
	}
	if !tbl.FeasibleIngress(1, 2, 3) {
		t.Error("legitimate hop rejected")
	}
	if tbl.FeasibleIngress(2, 1, 3) {
		t.Error("wrong-direction hop accepted")
	}
	// Disconnected source.
	g2 := topology.NewGraph(3)
	if err := g2.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	tbl2 := NewShared(g2, nil)
	if tbl2.FeasibleIngress(1, 0, 2) {
		t.Error("unreachable source accepted")
	}
}
