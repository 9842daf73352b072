package device

import (
	"fmt"
	"slices"

	"dtc/internal/packet"
)

// Exit is the pseudo-node a graph edge may point at to mean "processing
// done, forward the packet".
const Exit = -1

// Graph is a service composed of components arranged as a directed acyclic
// graph (paper §5.2, after Click and Chameleon). Node 0 is the entry.
// Each component output port is wired to another component or to Exit.
type Graph struct {
	name  string
	nodes []TypedComponent
	// wires[i][p] is the target of node i's port p: a node index or Exit.
	wires [][]int
}

// NewGraph starts an empty service graph with the given name.
func NewGraph(name string) *Graph {
	return &Graph{name: name}
}

// Name returns the service graph's name.
func (g *Graph) Name() string { return g.name }

// Add appends a component and returns its node index. Wiring defaults to
// Exit on every port.
func (g *Graph) Add(c TypedComponent) int {
	g.nodes = append(g.nodes, c)
	wires := make([]int, c.Ports())
	for i := range wires {
		wires[i] = Exit
	}
	g.wires = append(g.wires, wires)
	return len(g.nodes) - 1
}

// Wire connects node from's output port to node to (or Exit).
func (g *Graph) Wire(from, port, to int) error {
	if from < 0 || from >= len(g.nodes) {
		return fmt.Errorf("device: wire from unknown node %d", from)
	}
	if port < 0 || port >= len(g.wires[from]) {
		return fmt.Errorf("device: node %d has no port %d", from, port)
	}
	if to != Exit && (to < 0 || to >= len(g.nodes)) {
		return fmt.Errorf("device: wire to unknown node %d", to)
	}
	g.wires[from][port] = to
	return nil
}

// Chain is a convenience constructor: components connected in sequence on
// port 0, last one exiting. Components with multiple ports have all their
// ports wired to the next component.
func Chain(name string, comps ...TypedComponent) *Graph {
	g := NewGraph(name)
	for _, c := range comps {
		g.Add(c)
	}
	for i := 0; i+1 < len(g.nodes); i++ {
		for p := 0; p < g.nodes[i].Ports(); p++ {
			// Safe: indexes are in range by construction.
			g.wires[i][p] = i + 1
		}
	}
	return g
}

// Len returns the number of components.
func (g *Graph) Len() int { return len(g.nodes) }

// Component returns the i-th component.
func (g *Graph) Component(i int) TypedComponent { return g.nodes[i] }

// Validate performs the static security check against a registry:
// non-empty, acyclic, fully wired, every component type registered and
// security-checked. It returns a descriptive error on the first violation.
func (g *Graph) Validate(reg *Registry) error {
	if len(g.nodes) == 0 {
		return fmt.Errorf("device: graph %q is empty", g.name)
	}
	for i, c := range g.nodes {
		m, ok := reg.Lookup(c.Type())
		if !ok {
			return fmt.Errorf("device: graph %q component %d: type %q not registered", g.name, i, c.Type())
		}
		if !m.SecurityChecked {
			return fmt.Errorf("device: graph %q component %d: type %q has not passed security review", g.name, i, c.Type())
		}
		if c.Ports() < 1 {
			return fmt.Errorf("device: graph %q component %d (%s): no output ports", g.name, i, c.Name())
		}
	}
	// Cycle check via DFS colors, driven by an explicit worklist: a
	// pathologically deep chain (100k+ nodes) must not overflow the
	// goroutine stack the way a recursive visit would. Each frame holds a
	// node and the next out-port to examine; pushing a frame greys the
	// node, exhausting its ports blackens it.
	const (
		white, grey, black = 0, 1, 2
	)
	color := make([]int, len(g.nodes))
	type frame struct {
		node int
		port int
	}
	stack := []frame{{node: 0}}
	color[0] = grey
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.port >= len(g.wires[f.node]) {
			color[f.node] = black
			stack = stack[:len(stack)-1]
			continue
		}
		w := g.wires[f.node][f.port]
		f.port++
		if w == Exit {
			continue
		}
		switch color[w] {
		case grey:
			return fmt.Errorf("device: graph %q contains a cycle through %s", g.name, g.nodes[w].Name())
		case white:
			color[w] = grey
			stack = append(stack, frame{node: w})
		}
	}
	return nil
}

// node is one component of an installed graph: the component, the target
// of each of its ports, and the capabilities its type's manifest grants.
type node struct {
	comp             TypedComponent
	wires            []int
	mayDrop          bool
	mayModifyPayload bool
}

// frozen is the device's private copy of a validated graph. Install takes
// it, so a later Add or Wire on the caller's Graph changes nothing that
// runs, and every node carries its resolved manifest, so capability checks
// always apply.
type frozen []node

// freeze validates g against reg and returns its frozen copy.
func (g *Graph) freeze(reg *Registry) (frozen, error) {
	if err := g.Validate(reg); err != nil {
		return nil, err
	}
	f := make(frozen, len(g.nodes))
	for i, c := range g.nodes {
		m, _ := reg.Lookup(c.Type())
		f[i] = node{
			comp:             c,
			wires:            slices.Clone(g.wires[i]),
			mayDrop:          m.MayDrop,
			mayModifyPayload: m.MayModifyPayload,
		}
	}
	return f, nil
}

// errCapability marks a per-component capability violation detected by run.
type errCapability struct {
	component string
	what      string
}

func (e errCapability) Error() string {
	return fmt.Sprintf("device: component %q exceeded its manifest: %s", e.component, e.what)
}

// run executes the graph on a packet. It returns Discard if any component
// discards, Forward when the packet exits, and a non-nil error when a
// component exceeded its declared capabilities (the caller quarantines the
// service; the packet may be dirty and must be restored). It is
// unexported: external callers go through Device, which wraps execution in
// the safety monitor. The walk needs no step bound: Validate proved every
// path from node 0 acyclic, and the frozen wiring cannot change.
func (f frozen) run(pkt *packet.Packet, env *Env) (Result, error) {
	n := &f[0]
	for {
		preSize, prePayload := pkt.Size, len(pkt.Payload)
		port, res := n.comp.Process(pkt, env)
		if res == Discard && !n.mayDrop {
			return Discard, errCapability{n.comp.Name(), "discarded a packet without MayDrop"}
		}
		if !n.mayModifyPayload && (pkt.Size != preSize || len(pkt.Payload) != prePayload) {
			return Forward, errCapability{n.comp.Name(), "modified payload/size without MayModifyPayload"}
		}
		if res == Discard {
			return Discard, nil
		}
		if port < 0 || port >= len(n.wires) {
			port = 0
		}
		next := n.wires[port]
		if next == Exit {
			return Forward, nil
		}
		n = &f[next]
	}
}
