package routing

import (
	"fmt"
	"math"

	"dtc/internal/topology"
)

// compiled is an immutable weight-annotated snapshot of a graph's CSR
// view: wadj[k] is the cost of the half-edge CSR.Adj[k], i.e. the weight
// of edge (v, Adj[k]) for k in row v. Compiling the WeightFunc once per
// topology snapshot moves the per-relaxation function call (and its
// positivity check) out of the Dijkstra inner loop. wmin is the smallest
// compiled weight (+Inf for an edgeless graph), the bound a restricted
// build's early stop rests on.
type compiled struct {
	csr  *topology.CSR
	wadj []float64
	wmin float64
}

// refresh recompiles the snapshot if the graph's CSR view has changed
// (edge added or removed). Returns an error on the first weight that is
// not positive (NaN included), identifying the offending edge like the
// original lazy check did.
func (cw *compiled) refresh(g *topology.Graph, w WeightFunc) error {
	csr := g.CSR()
	if cw.csr == csr {
		return nil
	}
	if cap(cw.wadj) < len(csr.Adj) {
		cw.wadj = make([]float64, len(csr.Adj))
	}
	wadj := cw.wadj[:len(csr.Adj)]
	wmin := math.Inf(1)
	n := csr.NumNodes()
	for v := 0; v < n; v++ {
		base := csr.Off[v]
		for k, u := range csr.Row(v) {
			c := w(v, int(u))
			if !(c > 0) {
				return fmt.Errorf("routing: non-positive weight %v on edge (%d,%d)", c, v, u)
			}
			wadj[int(base)+k] = c
			wmin = min(wmin, c)
		}
	}
	cw.csr, cw.wadj, cw.wmin = csr, wadj, wmin
	return nil
}

// hNode is a value-type heap element for Dijkstra.
type hNode struct {
	dist float64
	node int32
}

// Builder runs Dijkstra over a graph's compiled CSR view with reusable
// scratch: after warmup a BuildInto call performs zero allocations. A
// Builder is single-goroutine state; Shared keeps a pool of them.
//
// The heap below hand-rolls exactly the binary-heap algorithm of
// container/heap (sift-up on push; swap-root-to-end, sift-down, truncate
// on pop) over a concrete []hNode, ordered by dist alone. This is not
// incidental: among equal distances, pop order decides which equal-cost
// parent a node gets, and the seed implementation's container/heap pop
// order is pinned by the byte-identical-experiments guarantee. Do not
// "improve" the ordering (e.g. node-index tie-breaks or d-ary layout)
// without re-pinning every experiment output; TestBuilderMatchesSeedHeap
// enforces the equivalence.
type Builder struct {
	g  *topology.Graph
	w  WeightFunc
	cw compiled

	heap []hNode

	// scratch is the tree a restricted view builds into and copies its
	// rows out of (view.go). It is never handed out: a restricted build
	// stops early, so the scratch tree is partial, exact only in the
	// set's entries and in feasibleVia's verdicts on its half-edges.
	scratch Tree
}

// NewBuilder returns a Dijkstra builder over g with edge weights w (nil
// means hop count). Weight errors surface from BuildInto, matching
// BuildTree.
func NewBuilder(g *topology.Graph, w WeightFunc) *Builder {
	if w == nil {
		w = UniformWeight
	}
	return &Builder{g: g, w: w}
}

func (b *Builder) hpush(x hNode) {
	h := append(b.heap, x)
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	b.heap = h
}

func (b *Builder) hpop() hNode {
	h := b.heap
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].dist < h[j].dist {
			j = j2
		}
		if !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	it := h[n]
	b.heap = h[:n]
	return it
}

// grow sizes t's arrays to n nodes, reusing their capacity when possible.
func grow(t *Tree, n int) {
	if cap(t.Next) >= n && cap(t.Dist) >= n {
		t.Next, t.Dist = t.Next[:n], t.Dist[:n]
		return
	}
	t.Next, t.Dist = make([]int32, n), make([]float64, n)
}

// BuildInto runs Dijkstra from dst into t, reusing t's arrays and the
// builder's scratch. Zero allocations steady-state.
func (b *Builder) BuildInto(t *Tree, dst int) error {
	return b.build(t, dst, nil, nil)
}

// build is the one Dijkstra loop. With a nil pos it builds the full tree.
// With a node set (nodes, and pos mapping a node to its index in nodes or
// -1) it stops as soon as nothing a restricted view reads can change: the
// Next and Dist of every set node, and feasibleVia's verdict on every
// half-edge into a set node. The tree is then partial — entries off the
// set may be tentative or unset — and only those reads are exact.
//
// The stop rule. Let h be the distance at the heap top, a lower bound on
// every later pop, so every later relaxation offers at least h+wmin
// (rounding is monotone). Once every set node is reached, let D be the
// largest set-node distance. If D <= h+wmin no set node can strictly
// improve, so its Next and Dist are final. A node whose tentative
// distance is below h+wmin is final too; any other neighbour u of a set
// node a ends, in the full build, at a distance of at least h+wmin (or
// unreachable), and w(u,a) >= wmin, so feasibleVia's slack
// Dist[u]+w-Dist[a] is at least (h+wmin)+wmin-D in both builds. Stopping
// when that is >= feasibleVia's eps makes the half-edge infeasible in
// both. Under hop count the build stops once the last set node is reached.
func (b *Builder) build(t *Tree, dst int, nodes, pos []int32) error {
	if err := b.cw.refresh(b.g, b.w); err != nil {
		return err
	}
	n := b.cw.csr.NumNodes()
	if dst < 0 || dst >= n {
		return fmt.Errorf("routing: destination %d out of range [0,%d)", dst, n)
	}
	grow(t, n)
	t.Dst = dst
	inf := math.Inf(1)
	for i := range t.Next {
		t.Next[i] = NoRoute
		t.Dist[i] = inf
	}
	t.Next[dst] = int32(dst)
	t.Dist[dst] = 0

	// left counts set nodes not yet reached; D bounds their largest
	// distance from above and is exact unless dirty (the node holding it
	// improved since it was computed).
	left, D, dirty := len(nodes), 0.0, false
	if pos != nil && pos[dst] >= 0 {
		left--
	}
	wmin := b.cw.wmin
	b.heap = b.heap[:0]
	b.hpush(hNode{dist: 0, node: int32(dst)})
	csr, wadj := b.cw.csr, b.cw.wadj
	for len(b.heap) > 0 {
		if pos != nil && left == 0 {
			if dirty {
				D, dirty = 0, false
				for _, a := range nodes {
					D = max(D, t.Dist[a])
				}
			}
			if x := b.heap[0].dist + wmin; D <= x && x+wmin-D >= feasibleEps {
				break
			}
		}
		it := b.hpop()
		v := it.node
		// A node is pushed only on a strict improvement, so an entry is
		// stale exactly when a shorter one for its node was pushed (and,
		// being shorter, popped) since.
		if it.dist > t.Dist[v] {
			continue
		}
		base := csr.Off[v]
		dv := it.dist
		for k, u := range csr.Row(int(v)) {
			if nd := dv + wadj[int(base)+k]; nd < t.Dist[u] {
				if pos != nil && pos[u] >= 0 {
					if old := t.Dist[u]; old == inf {
						left--
						D = max(D, nd)
					} else if old == D {
						dirty = true
					}
				}
				t.Dist[u] = nd
				// Traffic from u toward dst goes via v.
				t.Next[u] = v
				b.hpush(hNode{dist: nd, node: u})
			}
		}
	}
	return nil
}
