// Package hybrid is the fluid/packet co-simulation substrate for
// Internet-scale scenarios (DESIGN.md §12). The idea: packet-level detail
// is only needed where the interesting contention happens — the victim's
// routing cone and the reflector fan-in — while the vast background of
// legitimate clients and far-away attack sources is perfectly served by
// the flow model. The package stitches the two together:
//
//   - a deterministic cone extractor picks the node set simulated at
//     packet level (cone.go);
//   - structure-of-arrays client tables hold millions of modeled hosts at
//     ~20 bytes each without per-host Go objects (table.go);
//   - boundary converters turn per-client fluid rates into deterministic
//     packet arrival schedules at the cone edge and aggregate egress
//     packets back into flow-level accounting (boundary.go);
//   - a World composes cone, tables, converters and a netsim network
//     behind one façade, with an all-packet reference mode for
//     equivalence testing (hybrid.go).
package hybrid

import (
	"fmt"
	"sort"

	"dtc/internal/routing"
	"dtc/internal/topology"
)

// Cone is the set of nodes simulated at packet level: every node within
// Radius tree-hops of the victim (along the victim's shortest-path tree,
// so the set is closed under forwarding toward the victim), united with
// the full forwarding paths from each focus node (reflectors, defended
// vantage points) to the victim so reflector fan-in stays packet-level
// end to end.
type Cone struct {
	g  *topology.Graph
	in []bool

	// Victim is the cone's anchor node.
	Victim int
	// Nodes lists the in-cone nodes in ascending order.
	Nodes []int
	// Shell lists the out-of-cone nodes adjacent to the cone, ascending:
	// the places where packets leaving the cone are absorbed back into
	// fluid accounting.
	Shell []int
}

// ExtractCone computes the packet cone around victim. Membership is
// deterministic: it depends only on the graph, the routing trees and the
// (victim, radius, focus) triple. A radius >= g.Len() puts every node in
// the cone — the all-packet reference configuration.
func ExtractCone(g *topology.Graph, routes routing.Source, victim, radius int, focus []int) (*Cone, error) {
	if victim < 0 || victim >= g.Len() {
		return nil, fmt.Errorf("hybrid: victim %d out of range", victim)
	}
	if radius < 0 {
		return nil, fmt.Errorf("hybrid: negative cone radius %d", radius)
	}
	tr, err := routes.TreeTo(victim)
	if err != nil {
		return nil, err
	}
	c := &Cone{g: g, in: make([]bool, g.Len()), Victim: victim}

	// Radius membership: walk each node's path toward the victim for at
	// most `radius` next-hops. Closure under forwarding holds by
	// construction: if v reaches the victim in h <= radius hops, its next
	// hop reaches it in h-1.
	for v := 0; v < g.Len(); v++ {
		at := v
		ok := false
		for h := 0; h <= radius; h++ {
			if at == victim {
				ok = true
				break
			}
			if at = int(tr.Next[at]); at == routing.NoRoute {
				break
			}
		}
		c.in[v] = ok
	}

	// Focus paths: the entire forwarding path from each focus node to the
	// victim joins the cone, so a reflector's replies stay packet-level
	// all the way in.
	for _, f := range focus {
		if f < 0 || f >= g.Len() {
			return nil, fmt.Errorf("hybrid: focus node %d out of range", f)
		}
		for at, hops := f, 0; ; hops++ {
			c.in[at] = true
			if at == victim {
				break
			}
			if at = int(tr.Next[at]); at == routing.NoRoute || hops > g.Len() {
				return nil, fmt.Errorf("hybrid: focus node %d cannot reach victim %d", f, victim)
			}
		}
	}

	for v, in := range c.in {
		if in {
			c.Nodes = append(c.Nodes, v)
		}
	}
	shell := map[int]bool{}
	for _, v := range c.Nodes {
		for _, nb := range g.Neighbors(v) {
			if !c.in[nb] {
				shell[nb] = true
			}
		}
	}
	for v := range shell {
		c.Shell = append(c.Shell, v)
	}
	sort.Ints(c.Shell)
	return c, nil
}

// Contains reports whether node v is simulated at packet level.
func (c *Cone) Contains(v int) bool { return c.in[v] }

// Len returns the number of in-cone nodes.
func (c *Cone) Len() int { return len(c.Nodes) }

// EntryOf locates the fluid->packet boundary for traffic from src along
// tr (the tree to its destination, which must be in the cone): the first
// node of the FINAL contiguous in-cone run of the path, plus the
// out-of-cone neighbor it arrives from (from == -1, i.e. netsim.Local,
// when src itself starts that run). Using the final run means any
// mid-path excursion out of the cone is charged to the fluid prefix, so
// the packet segment is exactly the suffix the cone simulates.
func (c *Cone) EntryOf(tr *routing.Tree, src int) (node, from int, ok bool) {
	if src < 0 || src >= len(tr.Next) {
		return 0, 0, false
	}
	if src != tr.Dst && tr.Next[src] == routing.NoRoute {
		return 0, 0, false
	}
	entry, entryFrom := -1, -1
	at, prev := src, -1
	for hops := 0; ; hops++ {
		if c.in[at] {
			if entry == -1 {
				entry, entryFrom = at, prev
			}
		} else {
			entry, entryFrom = -1, -1
		}
		if at == tr.Dst {
			break
		}
		if hops > len(tr.Next) {
			return 0, 0, false
		}
		prev, at = at, int(tr.Next[at])
	}
	if entry == -1 {
		return 0, 0, false
	}
	return entry, entryFrom, true
}
