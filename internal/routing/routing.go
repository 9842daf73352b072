// Package routing computes shortest-path forwarding state over a topology
// graph. The simulator forwards hop by hop: each router asks its routing
// table for the next hop toward a destination node.
//
// Tables are built per destination as a shortest-path tree rooted at the
// destination (one Dijkstra run), and cached lazily. DDoS experiments have
// many sources converging on few destinations, so per-destination trees are
// both the cheapest and the most natural representation. For symmetric
// metrics the reverse paths coincide with forward paths, matching the
// paper's assumption that devices on the path see both directions.
//
// The implementation is built for the hot paths the big experiments hit
// (DESIGN.md §14): Dijkstra iterates the graph's compiled CSR view with
// pre-compiled per-half-edge weights and a value-type binary heap, tree
// arrays are int32/float64 carved from a grow-only arena, caches index
// trees by destination in flat slot tables, and link failures repair only
// the trees whose paths crossed the cut edge instead of invalidating the
// world.
//
// Equal-cost tie-breaking contract: when several shortest paths exist, the
// parent chosen for a node is decided by heap pop order among equal
// distances. The fast builder replicates the binary-heap semantics of the
// original container/heap implementation exactly (see builder.go), so the
// chosen paths — and every experiment output downstream of them — are
// byte-identical to the seed implementation. A differential test pins this.
package routing

import (
	"fmt"

	"dtc/internal/metrics"
	"dtc/internal/topology"
)

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
// Trees handed out by Table or Shared are arena-backed: they stay valid
// until the owning cache is dropped and are never freed individually, so
// holding a *Tree across cache operations is always safe (after LinkDown
// the contents are repaired in place; after Invalidate they are stale but
// still readable).
type Tree struct {
	Dst  int
	Next []int32
	Dist []float64
}

// BuildTree runs Dijkstra from dst and returns the shortest-path tree
// toward dst. Edge weights must be positive. One-shot convenience; callers
// building many trees should reuse a Builder (or a Table/Shared cache).
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
	Builds        uint64 // full Dijkstra runs (cache misses)
	Repairs       uint64 // trees incrementally repaired by LinkDown
	Invalidations uint64 // whole-cache invalidations
}

// Source is the routing state consumers depend on: next-hop lookup,
// per-destination trees, the reverse-path feasibility check, and topology
// change notifications. Table implements it for single-simulation use;
// Shared implements it for concurrent sweeps where many simulations read
// one table.
type Source interface {
	TreeTo(dst int) (*Tree, error)
	NextHop(cur, dst int) (next int, ok bool)
	FeasibleIngress(at, from, src int) bool
	// LinkDown incrementally repairs cached trees after edge (a, b) was
	// removed from the graph. Quiescent-only: no concurrent readers.
	LinkDown(a, b int)
	Invalidate()
	Builds() int
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
	// and at in nodes; TreeTo, LinkDown, Invalidate and the counters are
	// the receiver's. What it answers elsewhere is up to the
	// implementation (Shared's view reports no route).
	View(nodes []int) Source
}

// feasible reports whether `from` lies on some shortest path from tr.Dst's
// root toward `at` — the reverse-path check shared by Table and Shared.
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
	const eps = 1e-9
	d := tr.Dist[from] + w - tr.Dist[at]
	return d > -eps && d < eps
}

// Table provides next-hop lookup toward any destination, building and
// caching one tree per destination on demand, with incremental repair on
// link failure. Lookup state is single-goroutine (each simulation owns one
// Table); the behaviour counters are atomic so observability endpoints may
// scrape them from another goroutine.
type Table struct {
	g     *topology.Graph
	w     WeightFunc
	slots []*Tree // indexed by destination
	b     Builder
	arena arena

	hits    metrics.AtomicCounter
	builds  metrics.AtomicCounter
	repairs metrics.AtomicCounter
	invals  metrics.AtomicCounter
}

var _ Source = (*Table)(nil)

// NewTable returns a routing table over g with edge weights w (nil means
// hop count).
func NewTable(g *topology.Graph, w WeightFunc) *Table {
	if w == nil {
		w = UniformWeight
	}
	t := &Table{g: g, w: w, slots: make([]*Tree, g.Len())}
	t.b.init(g, w, &t.arena)
	return t
}

// TreeTo returns the (cached) shortest-path tree toward dst.
func (t *Table) TreeTo(dst int) (*Tree, error) {
	if dst >= 0 && dst < len(t.slots) {
		if tr := t.slots[dst]; tr != nil {
			t.hits.Inc()
			return tr, nil
		}
	}
	return t.buildSlot(dst)
}

func (t *Table) buildSlot(dst int) (*Tree, error) {
	if dst < 0 || dst >= t.g.Len() {
		return nil, fmt.Errorf("routing: destination %d out of range [0,%d)", dst, t.g.Len())
	}
	tr := &Tree{}
	if err := t.b.BuildInto(tr, dst); err != nil {
		return nil, err
	}
	t.builds.Inc()
	t.slots[dst] = tr
	return tr, nil
}

// NextHop returns the next hop from cur toward dst. ok is false if dst is
// unreachable from cur.
func (t *Table) NextHop(cur, dst int) (next int, ok bool) {
	tr, err := t.TreeTo(dst)
	if err != nil {
		return NoRoute, false
	}
	if cur < 0 || cur >= len(tr.Next) {
		return NoRoute, false
	}
	n := int(tr.Next[cur])
	return n, n != NoRoute
}

// FeasibleIngress reports whether a packet originating at node src may
// legitimately arrive at node `at` from neighbor `from` under shortest-path
// routing — i.e. whether `from` lies on *some* shortest path from src to
// `at`. This is the reverse-path check route-based packet filtering needs;
// unlike comparing against the single installed next hop, it tolerates
// equal-cost path choices made by other routers.
func (t *Table) FeasibleIngress(at, from, src int) bool {
	tr, err := t.TreeTo(src)
	if err != nil {
		return false
	}
	return feasible(&t.b.cw, tr, at, from)
}

// LinkDown repairs the cached trees after edge (a, b) was removed from the
// graph: only trees whose shortest paths traversed the cut edge are
// touched, and within those only the orphaned subtree is re-run through a
// partial Dijkstra (builder.go). Callers must remove the edge from the
// graph first, as Network.FailLink does.
func (t *Table) LinkDown(a, b int) {
	for _, tr := range t.slots {
		if tr == nil {
			continue
		}
		if repaired, err := t.b.Repair(tr, a, b); err != nil {
			// Weight compilation failed mid-repair; drop to a full rebuild
			// on next lookup rather than serve a half-repaired tree.
			t.slots[tr.Dst] = nil
		} else if repaired {
			t.repairs.Inc()
		}
	}
}

// Invalidate drops all cached trees; callers must invoke it after weight
// changes or wholesale topology edits (single link failures should use
// LinkDown instead). Outstanding *Tree pointers remain readable but stale:
// the arena is never reset.
func (t *Table) Invalidate() {
	for i := range t.slots {
		t.slots[i] = nil
	}
	t.invals.Inc()
}

// Prebuild builds the trees for dsts one after another: a Table belongs
// to one goroutine, so workers is ignored.
func (t *Table) Prebuild(dsts []int, _ int) error {
	return prebuild(len(t.slots), dsts, 1,
		func(d int) bool { return t.slots[d] != nil },
		func(d int) error { _, err := t.buildSlot(d); return err })
}

// View returns the table itself: a Table is private to one simulation
// and already answers every query from its own full trees.
func (t *Table) View([]int) Source { return t }

// Builds reports how many trees have been computed (cache-miss count).
func (t *Table) Builds() int { return int(t.builds.Value()) }

// Stats returns a snapshot of the cache behaviour counters. Safe to call
// from any goroutine.
func (t *Table) Stats() CacheStats {
	return CacheStats{
		Hits:          t.hits.Value(),
		Builds:        t.builds.Value(),
		Repairs:       t.repairs.Value(),
		Invalidations: t.invals.Value(),
	}
}
