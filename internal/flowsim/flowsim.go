// Package flowsim is the flow-level fast path for the large deployment
// sweeps (DESIGN.md §5.6): instead of simulating individual packets, it
// routes aggregate flows along the same shortest-path trees the packet
// simulator uses and applies the same reverse-path filtering decision at
// each hop. For filtering experiments the two models agree exactly —
// a property the cross-validation test enforces — while the flow model
// handles Internet-scale graphs (tens of thousands of ASes) in
// milliseconds.
//
// The model deliberately covers only what the sweeps need: spoofed-source
// floods, per-node anti-spoofing deployments (edge-only or strict
// route-based), delivery accounting and byte·hop accounting. Congestion,
// queuing and timing remain the packet simulator's job.
package flowsim

import (
	"fmt"

	"dtc/internal/routing"
	"dtc/internal/topology"
)

// SourceKind describes the provenance of a flow's source address,
// which is all the reverse-path check depends on.
type SourceKind uint8

// Source kinds.
const (
	SrcGenuine     SourceKind = iota // the sender's own address
	SrcUnallocated                   // spoofed, not in any node's block
	SrcOfNode                        // spoofed, belongs to SpoofNode's block
)

// Flow is an aggregate unidirectional flow.
type Flow struct {
	From      int     // origin node
	To        int     // destination node
	Rate      float64 // packets/second (any consistent unit)
	Size      int     // bytes per packet
	Src       SourceKind
	SpoofNode int // meaningful when Src == SrcOfNode
}

// Result is the fate of one flow.
type Result struct {
	Delivered bool
	DropHop   int     // hops travelled before the drop (0 = dropped at origin); -1 if delivered
	ByteHops  float64 // rate*size*links-traversed per unit time
}

// Routes is the routing state the flow model reads: per-destination trees
// and the reverse-path feasibility check (consulted for spoofed sources
// only). Both *routing.Table (private, single goroutine) and
// *routing.Shared (one Dijkstra cache serving many concurrent models)
// satisfy it.
type Routes interface {
	TreeTo(dst int) (*routing.Tree, error)
	FeasibleIngress(at, from, src int) bool
}

// Model evaluates flows over a topology with a deployment of
// anti-spoofing filters.
type Model struct {
	g   *topology.Graph
	tbl Routes

	deployed []bool
	strict   []bool

	// Scratch reused across EvalBatch calls so steady-state batched
	// evaluation allocates nothing. A Model is single-goroutine state
	// (sweep points share Routes, never Models), so plain fields suffice.
	res    []Result
	order  []int
	groups map[int][]int32
	alive  []int32
	cur    []int32
}

// New creates a model over g with its own private routing table.
func New(g *topology.Graph) *Model {
	return NewOnRoutes(g, routing.NewTable(g, nil))
}

// NewOnRoutes creates a model over g reading routing state from routes,
// letting sweep points share one tree cache. The model itself (deployment
// bitmaps) stays private per instance.
func NewOnRoutes(g *topology.Graph, routes Routes) *Model {
	return &Model{
		g:        g,
		tbl:      routes,
		deployed: make([]bool, g.Len()),
		strict:   make([]bool, g.Len()),
	}
}

// Deploy marks nodes as running the anti-spoofing service. strict selects
// route-based filtering (check transit interfaces too); otherwise the
// conservative edge-only rule applies.
func (m *Model) Deploy(nodes []int, strict bool) error {
	for _, n := range nodes {
		if n < 0 || n >= m.g.Len() {
			return fmt.Errorf("flowsim: node %d out of range", n)
		}
		m.deployed[n] = true
		m.strict[n] = strict
	}
	return nil
}

// Reset clears the deployment.
func (m *Model) Reset() {
	for i := range m.deployed {
		m.deployed[i] = false
		m.strict[i] = false
	}
}

// filterDrops reports whether a deployed filter at `at` drops a packet of
// flow f arriving from `prev` (prev == at means locally originated).
// The decision mirrors modules.AntiSpoof + nms.uRPF exactly.
//
// A genuine source is never dropped, so its walk never consults
// FeasibleIngress (nor builds the tree toward f.From that the check would
// read). Every walk follows a shortest path from f.From, and with
// symmetric weights each hop of a shortest path from f.From is on some
// shortest path from f.From to that hop: route-based filtering has no
// false positives (Park & Lee). TestPropertyGenuineWalksPassEveryFilter
// keeps the per-hop check as the oracle.
func (m *Model) filterDrops(f *Flow, at, prev int) bool {
	if !m.deployed[at] || f.Src == SrcGenuine {
		return false
	}
	local := prev == at
	if !m.strict[at] && !local && m.g.Nodes[prev].Role == topology.RoleTransit {
		return false // conservative rule: never filter transit interfaces
	}
	switch f.Src {
	case SrcUnallocated:
		return true // no feasible origin anywhere
	case SrcOfNode:
		if local {
			return f.SpoofNode != f.From
		}
		if f.SpoofNode == at {
			return true // own addresses cannot arrive from outside
		}
		return !m.tbl.FeasibleIngress(at, prev, f.SpoofNode)
	}
	return false
}

// Route walks a flow along the shortest path and returns its fate.
func (m *Model) Route(f *Flow) (Result, error) {
	tr, err := m.tbl.TreeTo(f.To)
	if err != nil {
		return Result{}, err
	}
	path := tr.Path(f.From)
	if path == nil {
		return Result{Delivered: false, DropHop: 0}, nil
	}
	byteRate := f.Rate * float64(f.Size)
	// Hop 0: the origin node's own router (local ingress).
	if m.filterDrops(f, path[0], path[0]) {
		return Result{Delivered: false, DropHop: 0}, nil
	}
	for i := 1; i < len(path); i++ {
		if m.filterDrops(f, path[i], path[i-1]) {
			return Result{Delivered: false, DropHop: i, ByteHops: byteRate * float64(i)}, nil
		}
	}
	return Result{Delivered: true, DropHop: -1, ByteHops: byteRate * float64(len(path)-1)}, nil
}

// FateFrom walks flow f along tr starting mid-path: the flow is at node
// `at` having arrived from neighbor `prev` (pass prev == at for a locally
// originated flow, which makes FateFrom(tr, f, f.From, f.From) agree with
// Route hop for hop, without materializing the path). DropHop and
// ByteHops are counted from `at`, not from f.From.
//
// Unlike Evaluate/EvalBatch, FateFrom touches no Model scratch: when the
// Model reads a concurrency-safe Routes (routing.Shared) and the
// deployment is frozen, concurrent FateFrom calls are safe. The hybrid
// substrate uses it to evaluate clients' fluid prefixes and background
// flows.
func (m *Model) FateFrom(tr *routing.Tree, f *Flow, at, prev int) Result {
	n := len(tr.Next)
	if at < 0 || at >= n || (at != tr.Dst && tr.Next[at] == routing.NoRoute) {
		return Result{Delivered: false, DropHop: 0}
	}
	if m.filterDrops(f, at, prev) {
		return Result{Delivered: false, DropHop: 0}
	}
	byteRate := f.Rate * float64(f.Size)
	hop := 0
	for at != tr.Dst {
		next := tr.Next[at]
		if next == routing.NoRoute || hop >= n-1 {
			return Result{Delivered: false, DropHop: hop, ByteHops: byteRate * float64(hop)}
		}
		prev, at = at, int(next)
		hop++
		if m.filterDrops(f, at, prev) {
			return Result{Delivered: false, DropHop: hop, ByteHops: byteRate * float64(hop)}
		}
	}
	return Result{Delivered: true, DropHop: -1, ByteHops: byteRate * float64(hop)}
}

// Sweep evaluates many flows and aggregates delivery and waste.
type Sweep struct {
	Flows          int
	Delivered      int
	DeliveredRate  float64
	TotalRate      float64
	AttackByteHops float64
	MeanDropHop    float64
}

// Evaluate routes all flows and aggregates.
func (m *Model) Evaluate(flows []Flow) (Sweep, error) {
	var s Sweep
	var dropHops, drops float64
	for i := range flows {
		r, err := m.Route(&flows[i])
		if err != nil {
			return s, err
		}
		s.Flows++
		s.TotalRate += flows[i].Rate
		s.AttackByteHops += r.ByteHops
		if r.Delivered {
			s.Delivered++
			s.DeliveredRate += flows[i].Rate
		} else {
			dropHops += float64(r.DropHop)
			drops++
		}
	}
	if drops > 0 {
		s.MeanDropHop = dropHops / drops
	}
	return s, nil
}

// EvalBatch evaluates flows as a batched structure-of-arrays pass: flows
// are grouped by destination and each group is advanced hop-synchronously
// along the shared tree, so one tree's Next array is walked with good
// locality and no per-flow path materialization. The returned Sweep is
// bit-identical to Evaluate's: per-flow fates are recorded into an array
// and reduced in flow order with the same arithmetic. On error (an
// out-of-range destination, surfaced for the earliest offending flow, as
// in Evaluate) the returned Sweep is zero rather than partial.
func (m *Model) EvalBatch(flows []Flow) (Sweep, error) {
	if cap(m.res) < len(flows) {
		m.res = make([]Result, len(flows))
	}
	res := m.res[:len(flows)]
	// Group by destination in first-appearance order: the first group that
	// fails TreeTo is then the destination of the earliest bad flow. The
	// map and its per-destination index slices are scratch: emptied (not
	// dropped) between calls so their backing arrays are reused.
	if m.groups == nil {
		m.groups = make(map[int][]int32, 16)
	}
	for _, d := range m.order {
		m.groups[d] = m.groups[d][:0]
	}
	order := m.order[:0]
	for i := range flows {
		d := flows[i].To
		g := m.groups[d]
		if len(g) == 0 {
			order = append(order, d)
		}
		m.groups[d] = append(g, int32(i))
	}
	m.order = order
	for _, d := range order {
		tr, err := m.tbl.TreeTo(d)
		if err != nil {
			return Sweep{}, err
		}
		m.walkGroup(tr, flows, m.groups[d], res)
	}
	var s Sweep
	var dropHops, drops float64
	for i := range flows {
		r := res[i]
		s.Flows++
		s.TotalRate += flows[i].Rate
		s.AttackByteHops += r.ByteHops
		if r.Delivered {
			s.Delivered++
			s.DeliveredRate += flows[i].Rate
		} else {
			dropHops += float64(r.DropHop)
			drops++
		}
	}
	if drops > 0 {
		s.MeanDropHop = dropHops / drops
	}
	return s, nil
}

// walkGroup advances every flow bound for tr.Dst one hop per round,
// compacting the alive set in place. Fates land in res indexed by flow.
func (m *Model) walkGroup(tr *routing.Tree, flows []Flow, idx []int32, res []Result) {
	n := len(tr.Next)
	alive := m.alive[:0]
	cur := m.cur[:0]
	for _, fi := range idx {
		f := &flows[fi]
		if f.From < 0 || f.From >= n || tr.Next[f.From] == routing.NoRoute {
			res[fi] = Result{Delivered: false, DropHop: 0}
			continue
		}
		// Hop 0: the origin node's own router (local ingress).
		if m.filterDrops(f, f.From, f.From) {
			res[fi] = Result{Delivered: false, DropHop: 0}
			continue
		}
		if f.From == tr.Dst {
			res[fi] = Result{Delivered: true, DropHop: -1}
			continue
		}
		alive = append(alive, fi)
		cur = append(cur, int32(f.From))
	}
	// Valid trees bound paths at n nodes = n-1 links (Route's defensive
	// limit); anything still alive after that is a corrupted tree.
	for hop := 1; len(alive) > 0 && hop <= n-1; hop++ {
		k := 0
		for j, fi := range alive {
			f := &flows[fi]
			prev := int(cur[j])
			at := int(tr.Next[prev])
			if m.filterDrops(f, at, prev) {
				byteRate := f.Rate * float64(f.Size)
				res[fi] = Result{Delivered: false, DropHop: hop, ByteHops: byteRate * float64(hop)}
				continue
			}
			if at == tr.Dst {
				byteRate := f.Rate * float64(f.Size)
				res[fi] = Result{Delivered: true, DropHop: -1, ByteHops: byteRate * float64(hop)}
				continue
			}
			alive[k] = fi
			cur[k] = int32(at)
			k++
		}
		alive = alive[:k]
		cur = cur[:k]
	}
	for _, fi := range alive {
		res[fi] = Result{Delivered: false, DropHop: 0}
	}
	m.alive, m.cur = alive[:0], cur[:0]
}
