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
// positivity check) out of the Dijkstra inner loop.
type compiled struct {
	csr  *topology.CSR
	wadj []float64
}

// refresh recompiles the snapshot if the graph's CSR view has changed
// (edge added or removed). Returns an error on the first non-positive
// weight, identifying the offending edge like the original lazy check did.
func (cw *compiled) refresh(g *topology.Graph, w WeightFunc) error {
	csr := g.CSR()
	if cw.csr == csr {
		return nil
	}
	if cap(cw.wadj) < len(csr.Adj) {
		cw.wadj = make([]float64, len(csr.Adj))
	}
	wadj := cw.wadj[:len(csr.Adj)]
	n := csr.NumNodes()
	for v := 0; v < n; v++ {
		base := csr.Off[v]
		for k, u := range csr.Row(v) {
			c := w(v, int(u))
			if c <= 0 {
				return fmt.Errorf("routing: non-positive weight %v on edge (%d,%d)", c, v, u)
			}
			wadj[int(base)+k] = c
		}
	}
	cw.csr, cw.wadj = csr, wadj
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
	ar *arena // nil: allocate tree arrays with make

	heap []hNode
	done []bool

	// Repair scratch (see Repair).
	state []uint8
	chain []int32

	// scratch is the tree a restricted view builds into and copies its
	// rows out of (view.go); it is never handed out.
	scratch Tree
}

// NewBuilder returns a Dijkstra builder over g with edge weights w (nil
// means hop count). Weight errors surface from BuildInto, matching
// BuildTree.
func NewBuilder(g *topology.Graph, w WeightFunc) *Builder {
	b := &Builder{}
	b.init(g, w, nil)
	return b
}

func (b *Builder) init(g *topology.Graph, w WeightFunc, ar *arena) {
	if w == nil {
		w = UniformWeight
	}
	b.g, b.w, b.ar = g, w, ar
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

// grow sizes t's arrays to n nodes, reusing their capacity when possible
// and otherwise carving from the arena (or plain make without one).
func (b *Builder) grow(t *Tree, n int) {
	if cap(t.Next) >= n && cap(t.Dist) >= n {
		t.Next, t.Dist = t.Next[:n], t.Dist[:n]
		return
	}
	if b.ar != nil {
		t.Next, t.Dist = b.ar.alloc(n)
		return
	}
	t.Next, t.Dist = make([]int32, n), make([]float64, n)
}

// BuildInto runs Dijkstra from dst into t, reusing t's arrays and the
// builder's scratch. Zero allocations steady-state.
func (b *Builder) BuildInto(t *Tree, dst int) error {
	if err := b.cw.refresh(b.g, b.w); err != nil {
		return err
	}
	n := b.cw.csr.NumNodes()
	if dst < 0 || dst >= n {
		return fmt.Errorf("routing: destination %d out of range [0,%d)", dst, n)
	}
	b.grow(t, n)
	t.Dst = dst
	inf := math.Inf(1)
	for i := range t.Next {
		t.Next[i] = NoRoute
		t.Dist[i] = inf
	}
	t.Next[dst] = int32(dst)
	t.Dist[dst] = 0

	if cap(b.done) < n {
		b.done = make([]bool, n)
	}
	done := b.done[:n]
	for i := range done {
		done[i] = false
	}
	b.heap = b.heap[:0]
	b.hpush(hNode{dist: 0, node: int32(dst)})
	csr, wadj := b.cw.csr, b.cw.wadj
	for len(b.heap) > 0 {
		it := b.hpop()
		v := it.node
		if done[v] {
			continue
		}
		done[v] = true
		base := csr.Off[v]
		dv := t.Dist[v]
		for k, u := range csr.Row(int(v)) {
			if nd := dv + wadj[int(base)+k]; nd < t.Dist[u] {
				t.Dist[u] = nd
				// Traffic from u toward dst goes via v.
				t.Next[u] = v
				b.hpush(hNode{dist: nd, node: u})
			}
		}
	}
	return nil
}

// Orphan-marking states for Repair.
const (
	rsUnknown uint8 = iota
	rsSafe          // path to root avoids the cut edge (or node unreachable)
	rsOrphan        // path to root crossed the cut edge
)

// Repair incrementally fixes tree t after undirected edge (x, y) was
// removed from the graph, returning whether the tree was affected at all.
//
// The tree used the edge iff one endpoint's next hop was the other — an
// O(1) check that skips roughly half the cached trees for a random cut.
// For an affected tree, the nodes whose root path crossed the cut edge
// (the subtree hanging off the child endpoint) are found by memoized
// parent-chain walks, reset, re-seeded from their intact neighbors, and
// re-run through a Dijkstra confined to the orphan region. Removing an
// edge can never shorten a path, so every intact node's distance and
// parent are final and untouched; repaired orphan distances are
// bit-identical to a fresh rebuild's (same additions along the chosen
// path). Equal-cost parent choices inside the orphan region may differ
// from what a from-scratch build would pick — both are valid shortest-path
// trees, and FuzzFailLinkRepair pins the equivalence.
func (b *Builder) Repair(t *Tree, x, y int) (bool, error) {
	n := len(t.Next)
	if x < 0 || y < 0 || x >= n || y >= n {
		return false, nil
	}
	if t.Next[x] != int32(y) && t.Next[y] != int32(x) {
		return false, nil
	}
	if err := b.cw.refresh(b.g, b.w); err != nil {
		return false, err
	}
	child := x
	if t.Next[y] == int32(x) {
		child = y
	}

	if cap(b.state) < n {
		b.state = make([]uint8, n)
	}
	state := b.state[:n]
	for i := range state {
		state[i] = rsUnknown
	}
	state[t.Dst] = rsSafe
	state[child] = rsOrphan
	chain := b.chain[:0]
	for v := 0; v < n; v++ {
		if state[v] != rsUnknown {
			continue
		}
		u := v
		for state[u] == rsUnknown {
			if t.Next[u] == NoRoute {
				state[u] = rsSafe
				break
			}
			chain = append(chain, int32(u))
			u = int(t.Next[u])
		}
		st := state[u]
		for _, c := range chain {
			state[c] = st
		}
		chain = chain[:0]
	}
	b.chain = chain

	// Reset the orphan region, then seed the heap with the best intact
	// neighbor of each orphan. Orphans reachable only through other
	// orphans enter the heap later, via relaxation.
	inf := math.Inf(1)
	for v := 0; v < n; v++ {
		if state[v] == rsOrphan {
			t.Next[v] = NoRoute
			t.Dist[v] = inf
		}
	}
	if cap(b.done) < n {
		b.done = make([]bool, n)
	}
	done := b.done[:n]
	for i := range done {
		done[i] = false
	}
	b.heap = b.heap[:0]
	csr, wadj := b.cw.csr, b.cw.wadj
	for v := 0; v < n; v++ {
		if state[v] != rsOrphan {
			continue
		}
		base := csr.Off[v]
		for k, u := range csr.Row(v) {
			if state[u] != rsSafe || math.IsInf(t.Dist[u], 1) {
				continue
			}
			if nd := t.Dist[u] + wadj[int(base)+k]; nd < t.Dist[v] {
				t.Dist[v] = nd
				t.Next[v] = u
			}
		}
		if t.Next[v] != NoRoute {
			b.hpush(hNode{dist: t.Dist[v], node: int32(v)})
		}
	}
	for len(b.heap) > 0 {
		it := b.hpop()
		v := it.node
		if done[v] || it.dist > t.Dist[v] {
			continue
		}
		done[v] = true
		base := csr.Off[v]
		dv := t.Dist[v]
		for k, u := range csr.Row(int(v)) {
			if state[u] != rsOrphan {
				continue
			}
			if nd := dv + wadj[int(base)+k]; nd < t.Dist[u] {
				t.Dist[u] = nd
				t.Next[u] = v
				b.hpush(hNode{dist: nd, node: u})
			}
		}
	}
	return true, nil
}
