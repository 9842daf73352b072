package sweep

import (
	"container/list"
	"sync"

	"dtc/internal/netsim"
	"dtc/internal/ownership"
	"dtc/internal/routing"
	"dtc/internal/topology"
)

// Substrate is the immutable state every point of a sweep reads: the
// topology, a concurrency-safe routing table over it, the compiled
// NodePrefix->node address map, and any experiment-specific precomputation
// (generated flows, placement orders) stashed in Aux. Build it once per
// (topology, seed) and hand it to every point; nothing in it may be
// mutated after Build returns.
type Substrate struct {
	Graph  *topology.Graph
	Routes *routing.Shared
	Owners *ownership.Compiled[int]
	Aux    any
}

// Prebuild constructs the routing trees for dsts up front on all cores
// (routing.Shared.Prebuild), so the first sweep points don't fault them in
// serially. Call it from the substrate build function, where the
// experiment knows its destination set.
func (s *Substrate) Prebuild(dsts []int) error {
	return s.Routes.Prebuild(dsts, 0)
}

// Key identifies a substrate: an experiment-chosen name (encode topology
// family and size in it) plus the seed the substrate was derived from.
type Key struct {
	Name string
	Seed uint64
}

// cacheCap bounds the substrate cache. Entries are evicted FIFO. An
// 18k-AS substrate is tens of MB of graph, address map and client table,
// plus 216 KB per cached full routing tree and ~1.4 KB per restricted-view
// row: full-size e15 peaks at ~100 MB live heap (perfbench hybrid_internet
// on a 2-core AMD EPYC, Go 1.24.0). The cap keeps a whole `-all`
// experiment run from pinning every topology it ever built.
const cacheCap = 8

type cacheEntry struct {
	once sync.Once
	sub  *Substrate
	err  error
}

var (
	cacheMu  sync.Mutex
	cache    = map[Key]*cacheEntry{}
	cacheLRU = list.New() // of Key, oldest at front
)

// GetSubstrate returns the cached substrate for key, calling build to
// create it on first use. Concurrent callers with the same key share one
// build. Builds that fail are not cached.
func GetSubstrate(key Key, build func() (*Substrate, error)) (*Substrate, error) {
	cacheMu.Lock()
	e, ok := cache[key]
	if !ok {
		e = &cacheEntry{}
		cache[key] = e
		cacheLRU.PushBack(key)
		for cacheLRU.Len() > cacheCap {
			old := cacheLRU.Remove(cacheLRU.Front()).(Key)
			delete(cache, old)
		}
	}
	cacheMu.Unlock()
	e.once.Do(func() {
		e.sub, e.err = build()
		if e.err != nil {
			cacheMu.Lock()
			if cache[key] == e {
				delete(cache, key)
				for el := cacheLRU.Front(); el != nil; el = el.Next() {
					if el.Value.(Key) == key {
						cacheLRU.Remove(el)
						break
					}
				}
			}
			cacheMu.Unlock()
		}
	})
	return e.sub, e.err
}

// ResetCache empties the substrate cache (tests).
func ResetCache() {
	cacheMu.Lock()
	cache = map[Key]*cacheEntry{}
	cacheLRU.Init()
	cacheMu.Unlock()
}

// NewSubstrate builds the standard substrate over g: shared hop-count
// routing plus the compiled node address map.
func NewSubstrate(g *topology.Graph) *Substrate {
	return &Substrate{
		Graph:  g,
		Routes: routing.NewShared(g, nil),
		Owners: NodeOwners(g),
	}
}

// NodeOwners compiles the NodePrefix(i) -> i address map netsim builds for
// every network, so sweep points can share one copy.
func NodeOwners(g *topology.Graph) *ownership.Compiled[int] {
	var t ownership.Trie[int]
	for i := 0; i < g.Len(); i++ {
		t.Insert(netsim.NodePrefix(i), i)
	}
	return t.Compiled()
}
