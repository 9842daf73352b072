package routing

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"dtc/internal/metrics"
	"dtc/internal/topology"
)

// Shared is a routing table safe for concurrent readers, used by the sweep
// runner and the hybrid substrate to let every worker share one set of
// shortest-path trees instead of re-running Dijkstra per point.
//
// The cache is a fixed-size slot table indexed by destination — topologies
// are static while shared, so the destination space is known up front — and
// reads are a single atomic pointer load: no lock, no map hashing, no
// contention between sweep workers. Builds happen outside any lock on
// pooled Builders; two goroutines racing on the same destination both build
// the same (deterministic) tree and the CAS loser is discarded, so no
// reader ever blocks on a Dijkstra run it did not ask for. Tree arrays are
// carved from a shared grow-only arena and stay valid until the Shared is
// dropped; they are never freed or recycled individually.
//
// The topology graph must not be mutated while readers are active.
// Quiescent-point mutations are supported: LinkDown (after a RemoveEdge)
// repairs affected trees in place, Invalidate drops every slot. Both
// require the caller to guarantee no concurrent readers.
type Shared struct {
	g     *topology.Graph
	w     WeightFunc
	slots []atomic.Pointer[Tree]

	// cw is the weight-compiled CSR snapshot readers use for feasibility
	// checks; rebuilt only at quiescent points (construction, LinkDown,
	// Invalidate), read concurrently otherwise.
	cw compiled

	// Builder pool + arena, serialized by mu: builds and repairs are rare
	// next to reads, so one mutex around scratch acquisition is invisible.
	mu       sync.Mutex
	builders []*Builder
	arena    arena
	views    map[string]*view // restricted views by node set (view.go)

	hits    metrics.StripedCounter
	builds  metrics.AtomicCounter
	repairs metrics.AtomicCounter
	invals  metrics.AtomicCounter
}

var _ Source = (*Shared)(nil)

// NewShared returns a concurrent routing table over g with edge weights w
// (nil means hop count).
func NewShared(g *topology.Graph, w WeightFunc) *Shared {
	if w == nil {
		w = UniformWeight
	}
	s := &Shared{g: g, w: w, slots: make([]atomic.Pointer[Tree], g.Len())}
	// Compile weights eagerly so concurrent FeasibleIngress readers never
	// race on the snapshot; a weight error surfaces from the first TreeTo.
	_ = s.cw.refresh(g, w)
	return s
}

// TreeTo returns the (cached) shortest-path tree toward dst.
func (s *Shared) TreeTo(dst int) (*Tree, error) {
	if dst < 0 || dst >= len(s.slots) {
		return nil, fmt.Errorf("routing: destination %d out of range [0,%d)", dst, len(s.slots))
	}
	if tr := s.slots[dst].Load(); tr != nil {
		s.hits.Inc(dst)
		return tr, nil
	}
	return s.buildSlot(dst)
}

func (s *Shared) buildSlot(dst int) (*Tree, error) {
	// Carve the tree's arrays from the arena under the mutex, then run the
	// actual Dijkstra outside it: BuildInto reuses pre-sized arrays without
	// touching the arena, so concurrent builds only serialize on the cheap
	// scratch handoff, never on the O(n log n) build.
	tr := &Tree{}
	s.mu.Lock()
	tr.Next, tr.Dist = s.arena.alloc(s.g.Len())
	s.mu.Unlock()
	b := s.getBuilder()
	err := b.BuildInto(tr, dst)
	s.putBuilder(b)
	if err != nil {
		return nil, err
	}
	s.builds.Inc()
	if !s.slots[dst].CompareAndSwap(nil, tr) {
		// Another goroutine published first; keep theirs so every reader
		// sees one canonical *Tree per destination.
		tr = s.slots[dst].Load()
	}
	return tr, nil
}

// getBuilder pops a pooled builder. Builders never touch the arena
// themselves (ar == nil): buildSlot pre-carves tree arrays under the
// mutex, so a checked-out builder shares nothing mutable.
func (s *Shared) getBuilder() *Builder {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.builders); n > 0 {
		b := s.builders[n-1]
		s.builders = s.builders[:n-1]
		return b
	}
	b := &Builder{}
	b.init(s.g, s.w, nil)
	return b
}

func (s *Shared) putBuilder(b *Builder) {
	s.mu.Lock()
	s.builders = append(s.builders, b)
	s.mu.Unlock()
}

// Prebuild constructs the trees for dsts in parallel on up to `workers`
// goroutines (0 means GOMAXPROCS), so sweeps and the hybrid cone pay tree
// construction once, up front, on all cores instead of faulting trees in
// one by one. Destinations already cached and repeats are skipped; an
// out-of-range destination fails the batch before anything is built.
func (s *Shared) Prebuild(dsts []int, workers int) error {
	return prebuild(len(s.slots), dsts, workers,
		func(d int) bool { return s.slots[d].Load() != nil },
		func(d int) error { _, err := s.buildSlot(d); return err })
}

// prebuild is the batch loop behind every Prebuild. It checks every
// destination against [0, n) and drops repeats and those built reports
// as present before any work starts, then runs build on the rest on up
// to workers goroutines (0 means GOMAXPROCS). After the first build error
// no worker takes another destination.
func prebuild(n int, dsts []int, workers int, built func(int) bool, build func(int) error) error {
	seen := make([]bool, n)
	todo := make([]int, 0, len(dsts))
	for _, d := range dsts {
		if d < 0 || d >= n {
			return fmt.Errorf("routing: destination %d out of range [0,%d)", d, n)
		}
		if !seen[d] && !built(d) {
			todo = append(todo, d)
		}
		seen[d] = true
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers = min(workers, len(todo)); workers <= 1 {
		for _, d := range todo {
			if err := build(d); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
		emu    sync.Mutex
		ferr   error
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(todo) {
					return
				}
				if err := build(todo[i]); err != nil {
					emu.Lock()
					if ferr == nil {
						ferr = err
					}
					emu.Unlock()
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	return ferr
}

// NextHop returns the next hop from cur toward dst. ok is false if dst is
// unreachable from cur.
func (s *Shared) NextHop(cur, dst int) (next int, ok bool) {
	tr, err := s.TreeTo(dst)
	if err != nil {
		return NoRoute, false
	}
	if cur < 0 || cur >= len(tr.Next) {
		return NoRoute, false
	}
	n := int(tr.Next[cur])
	return n, n != NoRoute
}

// FeasibleIngress reports whether a packet from node src may legitimately
// arrive at node `at` from neighbor `from` under shortest-path routing.
// Semantics match Table.FeasibleIngress exactly.
func (s *Shared) FeasibleIngress(at, from, src int) bool {
	tr, err := s.TreeTo(src)
	if err != nil {
		return false
	}
	return feasible(&s.cw, tr, at, from)
}

// LinkDown repairs every cached tree after edge (a, b) was removed from
// the graph (see Table.LinkDown) and drops every view row, which views
// rebuild on demand. Quiescent-only: callers must guarantee
// no concurrent readers, exactly like Invalidate.
func (s *Shared) LinkDown(a, b int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_ = s.cw.refresh(s.g, s.w)
	var b0 *Builder
	if n := len(s.builders); n > 0 {
		b0 = s.builders[n-1]
	} else {
		b0 = &Builder{}
		b0.init(s.g, s.w, nil)
		s.builders = append(s.builders, b0)
	}
	for i := range s.slots {
		tr := s.slots[i].Load()
		if tr == nil {
			continue
		}
		if repaired, err := b0.Repair(tr, a, b); err != nil {
			s.slots[i].Store(nil)
		} else if repaired {
			s.repairs.Inc()
		}
	}
	for _, v := range s.views {
		v.reset()
	}
}

// Invalidate drops all cached trees and view rows. Callers must guarantee
// no concurrent readers. Outstanding *Tree pointers remain readable but
// stale: the arena is never reset.
func (s *Shared) Invalidate() {
	for i := range s.slots {
		s.slots[i].Store(nil)
	}
	s.mu.Lock()
	_ = s.cw.refresh(s.g, s.w)
	for _, v := range s.views {
		v.reset()
	}
	s.mu.Unlock()
	s.invals.Inc()
}

// Builds reports how many trees have been computed, including discarded
// duplicate builds from racing goroutines.
func (s *Shared) Builds() int { return int(s.builds.Value()) }

// Stats returns a snapshot of the cache behaviour counters. Safe to call
// from any goroutine.
func (s *Shared) Stats() CacheStats {
	return CacheStats{
		Hits:          s.hits.Value(),
		Builds:        s.builds.Value(),
		Repairs:       s.repairs.Value(),
		Invalidations: s.invals.Value(),
	}
}
