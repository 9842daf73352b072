// Package netsim simulates an IP network over a topology graph: routers
// with drop-tail links, hop-by-hop shortest-path forwarding, TTL handling,
// attachable hosts and servers, and per-router packet hooks where adaptive
// devices and baseline defenses plug in.
//
// The simulator is deliberately packet-level and deterministic. Every
// behaviour the paper's experiments depend on — queue overflow under
// flooding, server resource exhaustion, spoofed sources, in-network
// filtering near the attacker — is modelled explicitly; everything else
// (CSMA, checksums, fragmentation) is left out.
package netsim

import (
	"fmt"
	"slices"

	"dtc/internal/ownership"
	"dtc/internal/packet"
	"dtc/internal/routing"
	"dtc/internal/sim"
	"dtc/internal/topology"
)

// Verdict is a packet hook's decision.
type Verdict uint8

// Hook verdicts.
const (
	Pass Verdict = iota // continue processing
	Drop                // discard the packet (counted as a filter drop)
)

// Local is the "neighbor" value identifying packets that enter a router
// from a locally attached host rather than from a link.
const Local = -1

// HookContext tells a packet hook where it is running. The paper requires
// adaptive devices to receive contextual information from the network
// operator — notably whether they see transit traffic or local customer
// traffic (needed for correct ingress filtering, §4.2).
type HookContext struct {
	Node int      // router the hook is attached to
	From int      // neighbor node the packet arrived from, or Local
	Net  *Network // read-only access to topology/addressing context
}

// Hook processes packets entering a router. Returning Drop discards the
// packet. Hooks may mutate packets only within the safety rules enforced
// by the device package; raw netsim hooks are trusted infrastructure
// (baselines, taps).
type Hook interface {
	Name() string
	Process(now sim.Time, pkt *packet.Packet, ctx HookContext) Verdict
}

// BatchHook is an optional interface a Hook may additionally implement to
// process a burst of packets entering one router from one neighbor in a
// single call. Implementations write one verdict per packet into keep
// (true = pass) and must behave exactly as len(pkts) Process calls would;
// the batched form exists so implementations can amortize per-packet
// lookups (the adaptive device reuses its fused pipeline across a run of
// packets from the same flow).
type BatchHook interface {
	Hook
	ProcessBatch(now sim.Time, pkts []*packet.Packet, ctx HookContext, keep []bool)
}

// HookFunc adapts a function to the Hook interface.
type HookFunc struct {
	Label string
	Fn    func(now sim.Time, pkt *packet.Packet, ctx HookContext) Verdict
}

// Name implements Hook.
func (h HookFunc) Name() string { return h.Label }

// Process implements Hook.
func (h HookFunc) Process(now sim.Time, pkt *packet.Packet, ctx HookContext) Verdict {
	return h.Fn(now, pkt, ctx)
}

// LinkConfig sets a link's physical characteristics.
type LinkConfig struct {
	Bandwidth float64  // bits per second
	Delay     sim.Time // one-way propagation delay
	QueueCap  int      // max packets queued per direction
}

// DefaultLink is a 100 Mbit/s, 1 ms, 64-packet link.
var DefaultLink = LinkConfig{Bandwidth: 100e6, Delay: sim.Millisecond, QueueCap: 64}

// Network is a simulated IP network. Construct with New, attach hosts,
// then drive the underlying simulation.
type Network struct {
	Sim   *sim.Simulation
	Graph *topology.Graph
	Table routing.Source
	Stats *Stats

	routers  []*router
	links    map[[2]int]*link
	addrMap  ownership.Trie[int]      // prefix -> node; unused when owners is set
	owners   *ownership.Compiled[int] // shared immutable prefix->node map, or nil
	shared   bool                     // routing/ownership borrowed from a substrate
	hosts    map[packet.Addr]*Host    // global host directory
	byNode   map[int][]*Host          // hosts per node
	nextID   uint64                   // packet ID allocator
	dropObs  []func(now sim.Time, pkt *packet.Packet, reason DropReason, node int)
	routeObs []func()

	// Free lists for the per-packet event objects (link arrival, server
	// completion) and for busy links' in-flight state. The simulator is
	// single-threaded, so a plain slice recycled in Fire keeps the hot
	// path allocation-free without sync.Pool's overhead or its
	// nondeterministic emptying.
	arrPool   []*arrivalEvent
	servePool []*serveEvent
	qPool     []*inflight

	// cbr holds one FIFO per constant-rate period: every source with that
	// period reschedules through it (see StartCBR).
	cbr map[sim.Time]*sim.FIFO

	// Reusable scratch for InjectBatch (survivor compaction + verdicts).
	// Taken out of the struct while in use so a re-entrant call (a hook or
	// delivery that injects) falls back to fresh slices instead of
	// clobbering the outer batch.
	batchPkts []*packet.Packet
	batchKeep []bool

	// Free list for caller-recycled packets (GetPacket/PutPacket). Opt-in:
	// traffic sources that draw from the pool and sinks that return on
	// final delivery make steady-state forwarding fully allocation-free.
	pktPool []*packet.Packet

	// hostSlab is the current block hosts are carved from: AttachHost
	// hands out &hostSlab[0] and reslices, so attaching thousands of
	// hosts (the hybrid cone does) costs one allocation per block, and
	// host pointers stay stable because blocks are never moved or reused.
	hostSlab []Host
}

// New builds a network over g. Every edge gets cfg; use SetLinkConfig to
// override individual links afterwards.
func New(s *sim.Simulation, g *topology.Graph, cfg LinkConfig) (*Network, error) {
	return NewOnSubstrate(s, g, cfg, nil, nil)
}

// NewOnSubstrate builds a network over g reusing precomputed read-only
// substrate state: routes (a concurrency-safe routing.Source, typically
// *routing.Shared) and owners (the compiled NodePrefix(i)->i address map).
// Either may be nil, in which case the network builds its own. Sweeps use
// this to share one Dijkstra cache and one compiled trie across every point
// instead of rebuilding them per simulation. Networks on a shared substrate
// must not mutate topology: FailLink returns an error.
func NewOnSubstrate(s *sim.Simulation, g *topology.Graph, cfg LinkConfig, routes routing.Source, owners *ownership.Compiled[int]) (*Network, error) {
	if cfg.Bandwidth <= 0 || cfg.Delay < 0 || cfg.QueueCap < 1 {
		return nil, fmt.Errorf("netsim: invalid link config %+v", cfg)
	}
	// Routers and directed links come out of one contiguous slab each: a
	// 7000-link network costs two allocations instead of 14000, and the
	// per-link state the forwarding loop touches is packed instead of
	// scattered across the heap.
	edges := g.Edges()
	nLinks := 2 * len(edges)
	n := &Network{
		Sim:    s,
		Graph:  g,
		Table:  routes,
		Stats:  NewStats(),
		owners: owners,
		shared: routes != nil || owners != nil,
		links:  make(map[[2]int]*link, nLinks),
		hosts:  make(map[packet.Addr]*Host),
		byNode: make(map[int][]*Host),
	}
	if n.Table == nil {
		n.Table = routing.NewTable(g, nil)
	}
	rslab := make([]router, g.Len())
	lslab := make([]link, nLinks)
	newLink := func(from, to int) *link {
		l := &lslab[0]
		lslab = lslab[1:]
		*l = link{net: n, from: from, to: to, cfg: cfg}
		return l
	}
	// Routers' next-hop rows come out of two shared slabs sized by total
	// degree (the CSR view's concatenated neighbor lists).
	csr := g.CSR()
	nbrSlab := make([]int32, 0, len(csr.Adj))
	outSlab := make([]*link, len(csr.Adj))
	n.routers = make([]*router, g.Len())
	for i := range n.routers {
		r := &rslab[i]
		row := csr.Row(i)
		base := len(nbrSlab)
		nbrSlab = append(nbrSlab, row...)
		nbr := nbrSlab[base : base+len(row) : base+len(row)]
		slices.Sort(nbr)
		*r = router{net: n, node: i, nbr: nbr, out: outSlab[base : base+len(row) : base+len(row)], lastB: -1}
		n.routers[i] = r
		if owners == nil {
			n.addrMap.Insert(NodePrefix(i), i)
		}
	}
	for _, e := range edges {
		ab := newLink(e.A, e.B)
		n.links[[2]int{e.A, e.B}] = ab
		n.routers[e.A].setLink(e.B, ab)
		ba := newLink(e.B, e.A)
		n.links[[2]int{e.B, e.A}] = ba
		n.routers[e.B].setLink(e.A, ba)
	}
	return n, nil
}

// GetPacket returns a zeroed packet, recycling the free list when
// possible. Pair with PutPacket at the packet's end of life (final
// delivery or drop) to make steady-state traffic allocation-free.
func (n *Network) GetPacket() *packet.Packet {
	if k := len(n.pktPool); k > 0 {
		p := n.pktPool[k-1]
		n.pktPool = n.pktPool[:k-1]
		*p = packet.Packet{}
		return p
	}
	return &packet.Packet{}
}

// PutPacket returns p to the free list. The caller asserts no live
// reference to p remains — recycling a packet still queued in the
// simulator corrupts the run.
func (n *Network) PutPacket(p *packet.Packet) {
	n.pktPool = append(n.pktPool, p)
}

// NodePrefix returns the /16 address block assigned to topology node id.
// Node i owns addresses i<<16 .. i<<16+65535, so the simulator supports up
// to 65536 nodes with 65534 hosts each.
func NodePrefix(id int) packet.Prefix {
	return packet.MakePrefix(packet.Addr(uint32(id)<<16), 16)
}

// NodeOfAddr returns the topology node owning address a. It resolves
// through the compiled address map: this runs once per packet per hop.
func (n *Network) NodeOfAddr(a packet.Addr) (int, bool) {
	if n.owners != nil {
		return n.owners.Lookup(a)
	}
	return n.addrMap.Compiled().Lookup(a)
}

// SetLinkConfig reconfigures the directed link a->b (and only that
// direction). It returns an error if the edge does not exist.
func (n *Network) SetLinkConfig(a, b int, cfg LinkConfig) error {
	l, ok := n.links[[2]int{a, b}]
	if !ok {
		return fmt.Errorf("netsim: no link %d->%d", a, b)
	}
	if cfg.Bandwidth <= 0 || cfg.Delay < 0 || cfg.QueueCap < 1 {
		return fmt.Errorf("netsim: invalid link config %+v", cfg)
	}
	l.cfg = cfg
	return nil
}

// SetDuplexLinkConfig reconfigures both directions of edge (a, b).
func (n *Network) SetDuplexLinkConfig(a, b int, cfg LinkConfig) error {
	if err := n.SetLinkConfig(a, b, cfg); err != nil {
		return err
	}
	return n.SetLinkConfig(b, a, cfg)
}

// AddHook appends a packet hook at node; hooks run in insertion order on
// every packet entering the router (from links and from local hosts).
func (n *Network) AddHook(node int, h Hook) {
	n.routers[node].hooks = append(n.routers[node].hooks, h)
}

// RemoveHook removes the first hook at node whose Name matches.
func (n *Network) RemoveHook(node int, name string) {
	hooks := n.routers[node].hooks
	for i, x := range hooks {
		if x.Name() == name {
			n.routers[node].hooks = append(hooks[:i:i], hooks[i+1:]...)
			return
		}
	}
}

// Hooks returns the hooks installed at node (shared slice).
func (n *Network) Hooks(node int) []Hook { return n.routers[node].hooks }

// OnDrop registers an observer invoked for every dropped packet. Pushback
// uses this to implement its drop-statistics monitoring.
func (n *Network) OnDrop(fn func(now sim.Time, pkt *packet.Packet, reason DropReason, node int)) {
	n.dropObs = append(n.dropObs, fn)
}

// AttachHost creates a host on node with the next free address in the
// node's block.
func (n *Network) AttachHost(node int) (*Host, error) {
	if node < 0 || node >= n.Graph.Len() {
		return nil, fmt.Errorf("netsim: node %d out of range", node)
	}
	p := NodePrefix(node)
	idx := uint64(len(n.byNode[node]) + 1) // .0 reserved for the router
	if idx >= p.NumAddrs() {
		return nil, fmt.Errorf("netsim: node %d address block exhausted", node)
	}
	if len(n.hostSlab) == 0 {
		n.hostSlab = make([]Host, 256)
	}
	h := &n.hostSlab[0]
	n.hostSlab = n.hostSlab[1:]
	*h = Host{net: n, Node: node, Addr: p.Nth(idx)}
	n.hosts[h.Addr] = h
	n.byNode[node] = append(n.byNode[node], h)
	return h, nil
}

// HostByAddr returns the host bound to address a.
func (n *Network) HostByAddr(a packet.Addr) (*Host, bool) {
	h, ok := n.hosts[a]
	return h, ok
}

// HostsOn returns the hosts attached to node (shared slice).
func (n *Network) HostsOn(node int) []*Host { return n.byNode[node] }

// NumHosts returns the total number of attached hosts.
func (n *Network) NumHosts() int { return len(n.hosts) }

// inject runs a packet through node's router as if it arrived from
// neighbor from (use Local for host-originated traffic).
func (n *Network) inject(now sim.Time, pkt *packet.Packet, node, from int) {
	n.routers[node].receive(now, pkt, from)
}

// InjectBatch runs a burst of packets through node's router as if each
// arrived from neighbor `from`, with the hook phase batched: each hook
// sees the whole surviving burst (in one call when it implements
// BatchHook) before the next hook runs, and survivors forward after the
// last hook. With a single hook per router — the deployed configuration —
// verdicts, per-packet hook order and forwarding order are identical to
// per-packet injection; with several stateful hooks the interleaving is
// hook-major rather than packet-major.
func (n *Network) InjectBatch(now sim.Time, pkts []*packet.Packet, node, from int) {
	if len(pkts) == 0 {
		return
	}
	r := n.routers[node]
	ctx := HookContext{Node: node, From: from, Net: n}
	// Claim the scratch buffers; a nested inject during delivery sees nil
	// and allocates its own.
	cur, keep := n.batchPkts, n.batchKeep
	n.batchPkts, n.batchKeep = nil, nil
	cur = append(cur[:0], pkts...)
	for _, h := range r.hooks {
		if cap(keep) < len(cur) {
			keep = make([]bool, len(cur))
		}
		keep = keep[:len(cur)]
		if bh, ok := h.(BatchHook); ok {
			bh.ProcessBatch(now, cur, ctx, keep)
		} else {
			for i, pkt := range cur {
				keep[i] = h.Process(now, pkt, ctx) == Pass
			}
		}
		w := 0
		for i, pkt := range cur {
			if keep[i] {
				cur[w] = pkt
				w++
			} else {
				n.drop(now, pkt, DropFilter, node)
			}
		}
		cur = cur[:w]
		if w == 0 {
			break
		}
	}
	for _, pkt := range cur {
		r.forward(now, pkt)
	}
	n.batchPkts, n.batchKeep = cur[:0], keep[:0]
}

// InjectExternal introduces traffic that originates outside this
// network's packet-level scope — the hybrid substrate's fluid->packet
// boundary converters use it to materialize flows at the edge of the
// packet cone. Each packet is stamped exactly as Host.Send stamps it
// (TTL/Size defaults, a fresh globally unique ID, sent statistics) except
// for Origin, which the caller sets to the true originating node, and
// then the burst enters node's router as if arriving from neighbor `from`
// (Local for traffic materialized at its actual origin).
func (n *Network) InjectExternal(now sim.Time, pkts []*packet.Packet, node, from int) {
	for _, pkt := range pkts {
		if pkt.TTL == 0 {
			pkt.TTL = packet.DefaultTTL
		}
		if pkt.Size == 0 {
			pkt.Size = packet.MinHeaderBytes
		}
		pkt.ID = n.nextID
		n.nextID++
		n.Stats.addSent(pkt)
	}
	n.InjectBatch(now, pkts, node, from)
}

// drop records a packet drop and notifies observers.
func (n *Network) drop(now sim.Time, pkt *packet.Packet, reason DropReason, node int) {
	n.Stats.addDrop(pkt, reason)
	for _, fn := range n.dropObs {
		fn(now, pkt, reason, node)
	}
}

// FailLink removes the edge (a, b) from the topology, drops both directed
// links, repairs routing incrementally, and notifies routing-update
// observers — modelling the routing updates of paper §4.2, on which
// topology-dependent device configuration must adapt. Packets already in
// flight on the link still arrive (signal propagation), but nothing new is
// transmitted. Only cached trees whose shortest paths traversed (a, b)
// are recomputed, and only their orphaned subtrees — the rest of the
// routing state is untouched (DESIGN.md §14).
func (n *Network) FailLink(a, b int) error {
	if n.shared {
		return fmt.Errorf("netsim: FailLink on a network sharing substrate state (topology is immutable)")
	}
	if !n.Graph.RemoveEdge(a, b) {
		return fmt.Errorf("netsim: no edge (%d,%d) to fail", a, b)
	}
	delete(n.links, [2]int{a, b})
	delete(n.links, [2]int{b, a})
	n.routers[a].setLink(b, nil)
	n.routers[b].setLink(a, nil)
	n.Table.LinkDown(a, b)
	for _, fn := range n.routeObs {
		fn()
	}
	return nil
}

// OnRoutingUpdate registers a callback invoked after every topology/routing
// change. ISP management systems use it to refresh or disable
// topology-dependent device configuration (paper §4.2).
func (n *Network) OnRoutingUpdate(fn func()) {
	n.routeObs = append(n.routeObs, fn)
}

// Link returns utilization counters for the directed link a->b.
func (n *Network) Link(a, b int) (*LinkStats, bool) {
	l, ok := n.links[[2]int{a, b}]
	if !ok {
		return nil, false
	}
	return &l.stats, true
}
