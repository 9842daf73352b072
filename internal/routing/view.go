package routing

import (
	"encoding/binary"
	"slices"
	"sync/atomic"
)

// view is a Shared cache restricted to a node set, for a packet engine
// that only forwards from and filters at those nodes (the hybrid cone).
// Per destination it keeps what such an engine reads and nothing else:
// the next hop of every set node, and one reverse-path feasibility bit per
// half-edge in a set node's CSR row. For the full-size e15 cone (239
// nodes, 3,474 incident half-edges) that is ~1.4 KB per destination,
// against 216 KB for a full tree over 18k nodes.
//
// A row is filled from the parent's cached tree when there is one, and
// otherwise from a full Dijkstra run into a pooled builder's scratch tree
// (counted in the parent's builds); the bits are feasible()'s own verdicts
// on that tree. Either way every answer equals the parent's, bit for bit.
// Rows are published by CAS like Shared's slots, so concurrent readers are
// safe; the parent's LinkDown and Invalidate drop them (quiescent points),
// and they are rebuilt on demand.
//
// Queries from or at nodes outside the set report no route and infeasible
// ingress: a restricted view never builds a full tree. TreeTo, LinkDown,
// Invalidate and the counters are the parent's.
type view struct {
	s     *Shared
	nodes []int32 // set members, ascending
	pos   []int32 // node -> index in nodes, -1 outside the set

	// Half-edge layout over the parent's CSR snapshot, rebuilt by reset:
	// member i's row holds bits hoff[i] .. hoff[i+1]-1, and rev[h] is the
	// wadj index of h's reverse half-edge (the weight feasible reads), or
	// -1 when the reverse is missing.
	hoff []int32
	rev  []int32

	rows []atomic.Pointer[viewRow] // by destination
}

// viewRow is one destination's restricted routing state.
type viewRow struct {
	next []int32  // by member index
	ok   []uint64 // feasibility bit per half-edge
}

var _ Source = (*view)(nil)

// View returns the routing view restricted to nodes (out-of-range entries
// are ignored). Views are memoized by node set, so every consumer of the
// same set shares one view and each destination's row is built once.
func (s *Shared) View(nodes []int) Source {
	set := make([]int32, 0, len(nodes))
	for _, v := range nodes {
		if v >= 0 && v < len(s.slots) {
			set = append(set, int32(v))
		}
	}
	slices.Sort(set)
	set = slices.Compact(set)
	key := make([]byte, 0, 4*len(set))
	for _, v := range set {
		key = binary.LittleEndian.AppendUint32(key, uint32(v))
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if v, ok := s.views[string(key)]; ok {
		return v
	}
	v := &view{s: s, nodes: set, pos: make([]int32, len(s.slots)), rows: make([]atomic.Pointer[viewRow], len(s.slots))}
	for i := range v.pos {
		v.pos[i] = -1
	}
	for i, n := range set {
		v.pos[n] = int32(i)
	}
	v.layout()
	if s.views == nil {
		s.views = map[string]*view{}
	}
	s.views[string(key)] = v
	return v
}

// layout indexes the set's half-edges over the parent's current CSR
// snapshot. Called under the parent's mutex at quiescent points.
func (v *view) layout() {
	csr := v.s.cw.csr
	v.hoff = make([]int32, len(v.nodes)+1)
	if csr == nil { // weights failed to compile; every build errors
		v.rev = nil
		return
	}
	var h int32
	for i, a := range v.nodes {
		v.hoff[i] = h
		h += int32(len(csr.Row(int(a))))
	}
	v.hoff[len(v.nodes)] = h
	v.rev = make([]int32, h)
	for i, a := range v.nodes {
		for k, u := range csr.Row(int(a)) {
			r := int32(-1)
			for j, x := range csr.Row(int(u)) {
				if x == a {
					r = csr.Off[u] + int32(j)
					break
				}
			}
			v.rev[v.hoff[i]+int32(k)] = r
		}
	}
}

// reset drops every row and re-indexes the half-edges after the parent's
// graph snapshot changed. Quiescent-only, under the parent's mutex.
func (v *view) reset() {
	for i := range v.rows {
		v.rows[i].Store(nil)
	}
	v.layout()
}

// row returns dst's row, building it on first use; nil if the build
// failed.
func (v *view) row(dst int) *viewRow {
	if r := v.rows[dst].Load(); r != nil {
		v.s.hits.Inc(dst)
		return r
	}
	r, _ := v.build(dst)
	return r
}

// build fills dst's row from the parent's cached tree if there is one,
// else from a scratch Dijkstra run, and publishes it by CAS.
func (v *view) build(dst int) (*viewRow, error) {
	s := v.s
	r := &viewRow{next: make([]int32, len(v.nodes)), ok: make([]uint64, (len(v.rev)+63)/64)}
	if tr := s.slots[dst].Load(); tr != nil {
		v.fill(r, tr)
	} else {
		b := s.getBuilder()
		err := b.BuildInto(&b.scratch, dst)
		if err == nil {
			v.fill(r, &b.scratch)
		}
		s.putBuilder(b)
		if err != nil {
			return nil, err
		}
		s.builds.Inc()
	}
	if !v.rows[dst].CompareAndSwap(nil, r) {
		r = v.rows[dst].Load()
	}
	return r, nil
}

// Prebuild fills the rows for dsts on up to `workers` goroutines (0 means
// GOMAXPROCS), so a packet engine about to fault them in one by one finds
// them built. Each missing row is built once, exactly as row would build
// it; published rows and repeats are skipped.
func (v *view) Prebuild(dsts []int, workers int) error {
	return prebuild(len(v.rows), dsts, workers,
		func(d int) bool { return v.rows[d].Load() != nil },
		func(d int) error { _, err := v.build(d); return err })
}

// fill copies the set's next hops out of tr and evaluates every set
// half-edge's feasibility on it.
func (v *view) fill(r *viewRow, tr *Tree) {
	csr, wadj := v.s.cw.csr, v.s.cw.wadj
	for i, a := range v.nodes {
		r.next[i] = tr.Next[a]
		h := v.hoff[i]
		for k, u := range csr.Row(int(a)) {
			bit := h + int32(k)
			if rv := v.rev[bit]; rv >= 0 && feasibleVia(tr, int(a), int(u), wadj[rv]) {
				r.ok[bit>>6] |= 1 << (bit & 63)
			}
		}
	}
}

// NextHop returns the next hop from set node cur toward dst.
func (v *view) NextHop(cur, dst int) (next int, ok bool) {
	if cur < 0 || cur >= len(v.pos) || dst < 0 || dst >= len(v.rows) || v.pos[cur] < 0 {
		return NoRoute, false
	}
	r := v.row(dst)
	if r == nil {
		return NoRoute, false
	}
	n := int(r.next[v.pos[cur]])
	return n, n != NoRoute
}

// FeasibleIngress reports whether a packet from src may arrive at set node
// `at` from neighbor `from` (Shared.FeasibleIngress's verdict).
func (v *view) FeasibleIngress(at, from, src int) bool {
	if at < 0 || at >= len(v.pos) || src < 0 || src >= len(v.rows) || v.pos[at] < 0 {
		return false
	}
	r := v.row(src)
	if r == nil {
		return false
	}
	h := v.hoff[v.pos[at]]
	for k, u := range v.s.cw.csr.Row(at) {
		if int(u) == from {
			bit := h + int32(k)
			return r.ok[bit>>6]&(1<<(bit&63)) != 0
		}
	}
	return false
}

func (v *view) TreeTo(dst int) (*Tree, error) { return v.s.TreeTo(dst) }
func (v *view) LinkDown(a, b int)             { v.s.LinkDown(a, b) }
func (v *view) Invalidate()                   { v.s.Invalidate() }
func (v *view) Builds() int                   { return v.s.Builds() }
func (v *view) Stats() CacheStats             { return v.s.Stats() }
func (v *view) View(nodes []int) Source       { return v.s.View(nodes) }
