// Package routing computes shortest-path forwarding state over a topology
// graph. The simulator forwards hop by hop: each router asks its routing
// table for the next hop toward a destination node.
//
// Routes are built per destination as a shortest-path tree rooted at the
// destination (one Dijkstra run), and cached lazily. DDoS experiments have
// many sources converging on few destinations, so per-destination trees are
// both the cheapest and the most natural representation. For symmetric
// metrics the reverse paths coincide with forward paths, matching the
// paper's assumption that devices on the path see both directions.
//
// The implementation is built for the hot paths the big experiments hit
// (DESIGN.md §14): Dijkstra iterates the graph's compiled CSR view with
// pre-compiled per-half-edge weights and a value-type binary heap, tree
// arrays are int32/float64 carved from a grow-only arena, and the one
// cache, Shared, indexes trees by destination in a flat slot table.
//
// Routing state is a function of the graph alone, never of cache history:
// after a topology change (a link failure) the owner calls Invalidate,
// which drops every cached tree and view row, and each is rebuilt on
// demand by the same build the cold path uses.
//
// Equal-cost tie-breaking contract: when several shortest paths exist, the
// parent chosen for a node is decided by heap pop order among equal
// distances. The fast builder replicates the binary-heap semantics of the
// original container/heap implementation exactly (see builder.go), so the
// chosen paths — and every experiment output downstream of them — are
// byte-identical to the seed implementation. A differential test pins this.
package routing

import "dtc/internal/topology"

// WeightFunc returns the cost of the edge between adjacent nodes a and b.
// It must be positive, symmetric, and pure: weights are compiled once per
// topology snapshot, so a WeightFunc must depend only on its arguments.
type WeightFunc func(a, b int) float64

// UniformWeight assigns cost 1 to every edge (hop-count routing).
func UniformWeight(a, b int) float64 { return 1 }

// NoRoute marks an unreachable destination in a Tree.
const NoRoute = -1

// Tree is a shortest-path tree rooted at Dst: Next[v] is v's next hop
// toward Dst (NoRoute if unreachable, Dst's own entry is Dst), and Dist[v]
// is the total path cost. Next is int32 — graphs are bounded well below
// 2^31 nodes and halving the index width keeps a full 18k-node tree in
// ~70 KB of next-hop array.
//
// Trees handed out by Shared are arena-backed and never freed or rebuilt
// in place, so holding a *Tree across cache operations is always safe:
// after Invalidate it is stale but still readable.
type Tree struct {
	Dst  int
	Next []int32
	Dist []float64
}

// BuildTree runs Dijkstra from dst and returns the shortest-path tree
// toward dst. Edge weights must be positive. One-shot convenience; callers
// building many trees should reuse a Builder (or a Shared cache).
func BuildTree(g *topology.Graph, dst int, w WeightFunc) (*Tree, error) {
	b := NewBuilder(g, w)
	t := &Tree{}
	if err := b.BuildInto(t, dst); err != nil {
		return nil, err
	}
	return t, nil
}

// Path returns the node sequence from src to the tree's destination,
// inclusive of both endpoints, or nil if unreachable.
func (t *Tree) Path(src int) []int {
	if src < 0 || src >= len(t.Next) || t.Next[src] == NoRoute {
		return nil
	}
	path := []int{src}
	for v := src; v != t.Dst; {
		v = int(t.Next[v])
		path = append(path, v)
		if len(path) > len(t.Next) {
			// Defensive: a corrupted tree would loop forever otherwise.
			return nil
		}
	}
	return path
}

// Hops returns the path length in hops from src, or -1 if unreachable.
func (t *Tree) Hops(src int) int {
	p := t.Path(src)
	if p == nil {
		return -1
	}
	return len(p) - 1
}

// CacheStats is a snapshot of a routing cache's behaviour counters.
type CacheStats struct {
	Hits          uint64 // TreeTo/NextHop served from cache
	Builds        uint64 // Dijkstra runs (cache misses), view rows included
	Invalidations uint64 // whole-cache invalidations
}

// Source is the routing state consumers depend on: next-hop lookup,
// per-destination trees, the reverse-path feasibility check, and topology
// change notification. Shared implements it, for one simulation or for
// concurrent sweeps where many simulations read one cache; its restricted
// views implement it for packet engines confined to a node set.
type Source interface {
	TreeTo(dst int) (*Tree, error)
	NextHop(cur, dst int) (next int, ok bool)
	FeasibleIngress(at, from, src int) bool
	// Invalidate drops all cached routing state after an edge was removed
	// from the graph; it is rebuilt on demand. Quiescent-only: no
	// concurrent readers.
	Invalidate()
	Stats() CacheStats
	// Prebuild builds, before they are asked for, the routing state
	// NextHop and FeasibleIngress read for each destination in dsts, on
	// up to workers goroutines where the implementation is concurrent (0
	// means GOMAXPROCS). Built state and repeated destinations are
	// skipped; an out-of-range destination fails the batch before
	// anything is built. Answers are the same with or without it.
	Prebuild(dsts []int, workers int) error
	// View returns a Source for a consumer that only ever forwards from
	// and filters at the given nodes. Its NextHop(cur, ·) and
	// FeasibleIngress(at, ·, ·) answer exactly as the receiver's for cur
	// and at in nodes; TreeTo, Invalidate and the counters are the
	// receiver's. What it answers elsewhere is up to the
	// implementation (Shared's view reports no route).
	View(nodes []int) Source
}

// feasible reports whether `from` lies on some shortest path from tr.Dst's
// root toward `at` — the reverse-path check behind FeasibleIngress.
// One scan of from's CSR row replaces the old HasEdge probe + WeightFunc
// call pair.
func feasible(cw *compiled, tr *Tree, at, from int) bool {
	if at < 0 || at >= len(tr.Next) || from < 0 || from >= len(tr.Next) {
		return false
	}
	row := cw.csr.Row(from)
	base := cw.csr.Off[from]
	for k, u := range row {
		if int(u) == at {
			return feasibleVia(tr, at, from, cw.wadj[int(base)+k])
		}
	}
	return false
}

// feasibleVia is feasible's verdict once the half-edge from->at and its
// weight w are known; restricted views precompute the half-edge instead
// of scanning from's row per destination.
func feasibleVia(tr *Tree, at, from int, w float64) bool {
	if tr.Next[at] == NoRoute || tr.Next[from] == NoRoute {
		return false
	}
	d := tr.Dist[from] + w - tr.Dist[at]
	return d > -feasibleEps && d < feasibleEps
}

// feasibleEps is feasibleVia's tolerance: a half-edge is on a shortest
// path when its slack is within it.
const feasibleEps = 1e-9
