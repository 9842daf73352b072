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
// only). *routing.Shared satisfies it, whether private to one model or
// one Dijkstra cache serving many concurrent models.
type Routes interface {
	TreeTo(dst int) (*routing.Tree, error)
	FeasibleIngress(at, from, src int) bool
}

// Model evaluates flows over a topology with a deployment of
// anti-spoofing filters. It is read-only after Deploy: Route and EvalBatch
// may then run concurrently when its Routes is concurrency-safe.
type Model struct {
	g   *topology.Graph
	tbl Routes

	deployed []bool
	strict   []bool
}

// New creates a model over g with its own private routing cache.
func New(g *topology.Graph) *Model {
	return NewOnRoutes(g, routing.NewShared(g, nil))
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

// Route walks a flow along its destination's shortest-path tree and
// returns its fate. It follows tr.Next from f.From without materializing
// the path, checking the origin's own router (local ingress) at hop 0 and
// every router after it.
func (m *Model) Route(f *Flow) (Result, error) {
	tr, err := m.tbl.TreeTo(f.To)
	if err != nil {
		return Result{}, err
	}
	n := len(tr.Next)
	at := f.From
	if at < 0 || at >= n || tr.Next[at] == routing.NoRoute || m.filterDrops(f, at, at) {
		return Result{Delivered: false, DropHop: 0}, nil
	}
	byteRate := f.Rate * float64(f.Size)
	hop := 0
	for at != tr.Dst {
		next := tr.Next[at]
		if next == routing.NoRoute || hop >= n-1 {
			// Defensive: a valid path has at most n-1 links; like
			// Tree.Path, a corrupted tree routes nowhere.
			return Result{Delivered: false, DropHop: 0}, nil
		}
		prev := at
		at = int(next)
		hop++
		if m.filterDrops(f, at, prev) {
			return Result{Delivered: false, DropHop: hop, ByteHops: byteRate * float64(hop)}, nil
		}
	}
	return Result{Delivered: true, DropHop: -1, ByteHops: byteRate * float64(hop)}, nil
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

// EvalBatch routes every flow and aggregates their fates, reducing in
// flow order. On error (an out-of-range destination, surfaced for the
// earliest offending flow) the returned Sweep is zero rather than partial.
func (m *Model) EvalBatch(flows []Flow) (Sweep, error) {
	var s Sweep
	var dropHops, drops float64
	for i := range flows {
		r, err := m.Route(&flows[i])
		if err != nil {
			return Sweep{}, err
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
