package routing

// arena is a grow-only slab allocator for tree arrays. Trees carved from
// it live exactly as long as their owning cache: Invalidate drops slot
// pointers but never recycles slabs, so any *Tree a caller still holds
// stays readable forever. Slab granularity amortizes the per-tree
// allocations that used to dominate Shared's build churn (three heap
// objects per tree) down to two slab allocations per slabTrees trees.
//
// Not safe for concurrent use; Shared guards it with the builder mutex.
type arena struct {
	next []int32
	dist []float64
}

// slabTrees is how many same-sized trees one slab holds.
const slabTrees = 8

func (a *arena) alloc(n int) ([]int32, []float64) {
	if len(a.next) < n {
		a.next = make([]int32, n*slabTrees)
		a.dist = make([]float64, n*slabTrees)
	}
	ni, di := a.next[:n:n], a.dist[:n:n]
	a.next, a.dist = a.next[n:], a.dist[n:]
	return ni, di
}
