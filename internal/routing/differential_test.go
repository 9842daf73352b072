package routing

import (
	"container/heap"
	"math"
	"testing"
	"testing/quick"

	"dtc/internal/sim"
	"dtc/internal/topology"
)

// seedPQ is a verbatim copy of the seed implementation's container/heap
// priority queue, kept test-only: it is the ground truth for heap pop
// order among equal distances, which decides every equal-cost parent
// choice and therefore every experiment output.
type seedPQ []pqItem

func (q seedPQ) Len() int           { return len(q) }
func (q seedPQ) Less(i, j int) bool { return q[i].dist < q[j].dist }
func (q seedPQ) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *seedPQ) Push(x any)        { *q = append(*q, x.(pqItem)) }
func (q *seedPQ) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// seedBuildTree is the seed BuildTree, verbatim modulo the int32 Next type.
func seedBuildTree(g *topology.Graph, dst int, w WeightFunc) (*Tree, error) {
	n := g.Len()
	if w == nil {
		w = UniformWeight
	}
	t := &Tree{Dst: dst, Next: make([]int32, n), Dist: make([]float64, n)}
	for i := range t.Next {
		t.Next[i] = NoRoute
		t.Dist[i] = math.Inf(1)
	}
	t.Next[dst] = int32(dst)
	t.Dist[dst] = 0

	q := seedPQ{{node: dst, dist: 0}}
	done := make([]bool, n)
	for q.Len() > 0 {
		it := heap.Pop(&q).(pqItem)
		v := it.node
		if done[v] {
			continue
		}
		done[v] = true
		for _, u := range g.Neighbors(v) {
			if nd := t.Dist[v] + w(v, u); nd < t.Dist[u] {
				t.Dist[u] = nd
				t.Next[u] = int32(v)
				q.push(pqItem{node: u, dist: nd})
			}
		}
	}
	return t, nil
}

func (q *seedPQ) push(it pqItem) { heap.Push(q, it) }

// intWeight is a deterministic integer-valued weight in {1,2,3}: plenty
// of equal-cost ties, and shortest distances are exact small integers, so
// comparisons can demand bit equality without float-associativity
// caveats.
func intWeight(a, b int) float64 {
	if a > b {
		a, b = b, a
	}
	return float64(1 + (uint64(a)*2654435761+uint64(b)*40503)%3)
}

func treesExactlyEqual(t *testing.T, label string, want, got *Tree) {
	t.Helper()
	if want.Dst != got.Dst || len(want.Next) != len(got.Next) {
		t.Fatalf("%s: shape mismatch", label)
	}
	for v := range want.Next {
		if want.Next[v] != got.Next[v] {
			t.Fatalf("%s: Next[%d] = %d, want %d", label, v, got.Next[v], want.Next[v])
		}
		wd, gd := want.Dist[v], got.Dist[v]
		if wd != gd && !(math.IsInf(wd, 1) && math.IsInf(gd, 1)) {
			t.Fatalf("%s: Dist[%d] = %v, want %v (bit-exact required)", label, v, gd, wd)
		}
	}
}

// TestBuilderMatchesSeedHeap pins the byte-identical-experiments
// guarantee: on random power-law graphs — uniform and non-uniform weights,
// both with many equal-cost ties — the fast Builder and the unboxed
// reference oracle produce Next/Dist arrays exactly equal to the seed
// container/heap implementation's, equal-cost choices included.
func TestBuilderMatchesSeedHeap(t *testing.T) {
	f := func(seed uint64, nRaw uint8, weighted bool) bool {
		n := 5 + int(nRaw)%150
		g, err := topology.BarabasiAlbert(n, 2, sim.NewRNG(seed))
		if err != nil {
			return false
		}
		var w WeightFunc
		if weighted {
			w = intWeight
		}
		b := NewBuilder(g, w)
		tr := &Tree{}
		rng := sim.NewRNG(seed + 3)
		for trial := 0; trial < 12; trial++ {
			dst := rng.Intn(n)
			want, err := seedBuildTree(g, dst, w)
			if err != nil {
				return false
			}
			if err := b.BuildInto(tr, dst); err != nil {
				return false
			}
			treesExactlyEqual(t, "builder vs seed", want, tr)
			ref, err := referenceBuildTree(g, dst, w)
			if err != nil {
				return false
			}
			treesExactlyEqual(t, "reference vs seed", want, ref)
		}
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// The cache sits on top of the builder; make sure it agrees with the seed
// implementation too (Shared builds into arrays carved from its arena,
// where the test above builds into arrays BuildInto sized itself).
func TestCachesMatchSeedHeap(t *testing.T) {
	g, err := topology.BarabasiAlbert(400, 2, sim.NewRNG(99))
	if err != nil {
		t.Fatal(err)
	}
	sh := NewShared(g, nil)
	for dst := 0; dst < 400; dst += 13 {
		want, err := seedBuildTree(g, dst, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sh.TreeTo(dst)
		if err != nil {
			t.Fatal(err)
		}
		treesExactlyEqual(t, "shared vs seed", want, got)
	}
}
