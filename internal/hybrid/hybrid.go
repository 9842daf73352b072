package hybrid

import (
	"fmt"

	"dtc/internal/baseline"
	"dtc/internal/flowsim"
	"dtc/internal/netsim"
	"dtc/internal/ownership"
	"dtc/internal/packet"
	"dtc/internal/routing"
	"dtc/internal/sim"
	"dtc/internal/topology"
)

// boundarySalt decorrelates the boundary-phase RNG root from the packet
// engine's own stream, which is seeded with the bare seed.
const boundarySalt = 0x9e3779b97f4a7c15

// Config describes a hybrid world.
type Config struct {
	Graph  *topology.Graph
	Routes routing.Source           // nil -> fresh routing.Shared over Graph
	Owners *ownership.Compiled[int] // nil -> compiled node-prefix map
	Link   netsim.LinkConfig

	Victim int   // cone anchor (the defended service's node)
	Radius int   // cone radius in tree hops; >= Graph.Len() = all-packet reference
	Focus  []int // nodes whose paths to the victim join the cone (reflectors)

	Seed uint64

	// RateScale multiplies client rates per traffic class (fluid kill
	// accounting and packet schedules alike); zero entries mean 1.
	RateScale [5]float64

	// Background is ambient fluid load that never becomes packets: it
	// debits in-cone link capacity (residual bandwidth) and is otherwise
	// accounted purely flow-level.
	Background []flowsim.Flow
}

// World is a composed hybrid simulation: fluid everywhere, packets inside
// the cone, converters at the boundary. Build with NewWorld, attach
// servers/hooks, Deploy filters, then Start and Run.
type World struct {
	Cfg     Config
	Cone    *Cone
	Clients *Clients
	Fluid   *flowsim.Model

	Injectors []*Injector
	Absorbers []*Absorber
	Filters   []*baseline.IngressFilter

	routes routing.Source
	cone   routing.Source // the packet engine's view of routes
	owners *ownership.Compiled[int]
	net    *netsim.Network
	hosts  []*netsim.Host // materialized in-cone client hosts

	started bool
	// warm marks, between Start and the first Run, the nodes whose cone
	// rows the armed traffic will read (see Run).
	warm []bool

	// FluidCutCount/FluidCutRate tally clients whose fluid prefix is
	// dropped by an out-of-cone filter before reaching the packet
	// boundary: they emit no packets at all, by kind and scaled rate.
	FluidCutCount [5]uint64
	FluidCutRate  [5]float64
}

// NewWorld builds the hybrid world: extracts the cone, constructs the
// packet engine over it, materializes in-cone clients as real hosts (in
// client index order, so host addresses equal table addresses), groups
// every client onto its fluid->packet boundary, and installs absorbers on
// the shell. Clients must be sealed. Attach servers and hooks after
// NewWorld — client hosts claim the low addresses first, identically in
// hybrid and reference modes.
func NewWorld(cfg Config, clients *Clients) (*World, error) {
	g := cfg.Graph
	if g == nil {
		return nil, fmt.Errorf("hybrid: nil graph")
	}
	if !clients.sealed {
		return nil, fmt.Errorf("hybrid: clients table not sealed")
	}
	w := &World{Cfg: cfg, Clients: clients, routes: cfg.Routes, owners: cfg.Owners}
	if w.routes == nil {
		w.routes = routing.NewShared(g, nil)
	}
	if w.owners == nil {
		w.owners = netsim.NodeOwners(g)
	}
	cone, err := ExtractCone(g, w.routes, cfg.Victim, cfg.Radius, cfg.Focus)
	if err != nil {
		return nil, err
	}
	w.Cone = cone
	w.Fluid = flowsim.NewOnRoutes(g, w.routes)
	// The packet engine forwards and filters only inside the cone, so it
	// reads the cone-restricted view: next hops and uRPF bits for the cone
	// rows, ~1.4 KB per reply destination instead of a full tree.
	w.cone = w.routes.View(cone.Nodes)

	net, err := netsim.NewOnSubstrate(sim.New(cfg.Seed), g, cfg.Link, w.cone, w.owners)
	if err != nil {
		return nil, err
	}
	w.net = net
	net.OnDrop(func(_ sim.Time, pkt *packet.Packet, _ netsim.DropReason, _ int) {
		net.PutPacket(pkt)
	})

	// Prebuild the destination trees the client loop is about to fault in
	// one by one, on every core where the routing source is concurrent.
	want := make([]bool, g.Len())
	for i := 0; i < clients.Len(); i++ {
		w.mark(want, clients.dst[i])
	}
	dsts := members(want)
	for i := range cfg.Background {
		dsts = append(dsts, cfg.Background[i].To)
	}
	if err := w.routes.Prebuild(dsts, 0); err != nil {
		return nil, err
	}

	// In-cone clients become real hosts so replies terminate properly;
	// one shared Recv recycles delivered packets. Boundary
	// membership is resolved in two passes so the injectors and their
	// member lists come out of exact-size slabs instead of growing one
	// append at a time per client: pass one attaches hosts and records
	// each client's boundary key (cone entry node + predecessor), pass
	// two fills the carved member slices in client order.
	recv := func(_ sim.Time, pkt *packet.Packet) { net.PutPacket(pkt) }
	keys := make([]uint64, clients.Len())
	slotOf := map[uint64]int32{}
	var counts []int32
	for i := 0; i < clients.Len(); i++ {
		node := clients.Node(i)
		if cone.Contains(node) {
			h, err := net.AttachHost(node)
			if err != nil {
				return nil, err
			}
			if h.Addr != clients.Addr(i) {
				return nil, fmt.Errorf("hybrid: client %d got address %v, want %v (hosts attached before NewWorld?)",
					i, h.Addr, clients.Addr(i))
			}
			h.Recv = recv
			w.hosts = append(w.hosts, h)
		}
		dstNode, ok := w.nodeOfAddr(clients.dst[i])
		if !ok {
			return nil, fmt.Errorf("hybrid: client %d destination %v is unowned", i, clients.dst[i])
		}
		tr, err := w.routes.TreeTo(dstNode)
		if err != nil {
			return nil, err
		}
		entry, from, ok := cone.EntryOf(tr, node)
		if !ok {
			return nil, fmt.Errorf("hybrid: client %d path %d->%d never enters the cone", i, node, dstNode)
		}
		key := uint64(uint32(entry))<<32 | uint64(uint32(from+1))
		keys[i] = key
		slot, seen := slotOf[key]
		if !seen {
			slot = int32(len(counts))
			slotOf[key] = slot
			counts = append(counts, 0)
		}
		counts[slot]++
	}

	// Carve the injectors (first-seen key order, matching the old
	// append-per-client construction) and their member lists.
	total := 0
	for _, c := range counts {
		total += int(c)
	}
	injSlab := make([]Injector, len(counts))
	memberPool := make([]int32, total)
	w.Injectors = make([]*Injector, len(counts))
	orderedKeys := make([]uint64, len(counts))
	for key, slot := range slotOf {
		orderedKeys[slot] = key
	}
	off := 0
	for slot, key := range orderedKeys {
		entry := int(uint32(key >> 32))
		from := int(uint32(key)) - 1
		inj := &injSlab[slot]
		*inj = Injector{net: net, cl: clients, node: entry, from: from}
		inj.members = memberPool[off : off : off+int(counts[slot])]
		off += int(counts[slot])
		w.Injectors[slot] = inj
	}
	for i := 0; i < clients.Len(); i++ {
		inj := w.Injectors[slotOf[keys[i]]]
		inj.members = append(inj.members, int32(i))
	}

	aslab := make([]Absorber, len(cone.Shell))
	w.Absorbers = make([]*Absorber, 0, len(cone.Shell))
	for k, s := range cone.Shell {
		a := &aslab[k]
		*a = Absorber{w: w}
		net.AddHook(s, a)
		w.Absorbers = append(w.Absorbers, a)
	}
	return w, nil
}

// Eng exposes the packet engine for attaching servers and hooks.
func (w *World) Eng() *netsim.Network { return w.net }

// NetOf returns the network simulating node — the place to return
// recycled packets on that node. There is one packet network, so this is
// Eng() for every node.
func (w *World) NetOf(node int) *netsim.Network { return w.net }

func (w *World) nodeOfAddr(a packet.Addr) (int, bool) { return w.owners.Lookup(a) }

// mark sets the owner node of a in set, if a has one inside the graph.
func (w *World) mark(set []bool, a packet.Addr) {
	if n, ok := w.nodeOfAddr(a); ok && n >= 0 && n < len(set) {
		set[n] = true
	}
}

// members lists the nodes set marks, ascending.
func members(set []bool) []int {
	var nodes []int
	for n, in := range set {
		if in {
			nodes = append(nodes, n)
		}
	}
	return nodes
}

// Deploy installs the edge ingress-filtering defense at nodes, split by
// mechanism: in-cone nodes get the packet-level baseline.IngressFilter
// hook, out-of-cone nodes join the fluid model's deployment (the two
// apply the identical uRPF decision — the cross-validated equivalence the
// hybrid substrate is built on). Call before Start.
func (w *World) Deploy(nodes []int) error {
	if w.started {
		return fmt.Errorf("hybrid: Deploy after Start")
	}
	var fluid, packets []int
	for _, n := range nodes {
		if w.Cone.Contains(n) {
			packets = append(packets, n)
		} else {
			fluid = append(fluid, n)
		}
	}
	if err := w.Fluid.Deploy(fluid, false); err != nil {
		return err
	}
	if len(packets) > 0 {
		w.Filters = append(w.Filters, baseline.DeployIngress(w.net, packets))
	}
	return nil
}

// Start arms the boundary converters for the emission window
// (start, stop]: it debits residual link capacity for the fluid
// background, evaluates every member's fluid prefix against the deployed
// out-of-cone filters (killed members are tallied, not scheduled), seeds
// per-boundary phase substreams and schedules the first emissions. Call
// once, after Deploy and server attachment, before Run.
func (w *World) Start(start, stop sim.Time) error {
	if w.started {
		return fmt.Errorf("hybrid: Start called twice")
	}
	w.started = true
	if err := w.applyResidual(); err != nil {
		return err
	}
	scale := w.Cfg.RateScale
	for k := range scale {
		if scale[k] == 0 {
			scale[k] = 1
		}
	}
	root := sim.NewRNG(w.Cfg.Seed ^ boundarySalt)
	// One pool serves every injector's next/ival schedule arrays; the
	// pre-filter member total is an upper bound on what arming needs.
	total := 0
	for _, inj := range w.Injectors {
		total += len(inj.members)
	}
	pool := make([]sim.Time, 2*total)
	w.warm = make([]bool, w.Cfg.Graph.Len())
	var flow flowsim.Flow
	for _, inj := range w.Injectors {
		live := inj.members[:0]
		for _, m := range inj.members {
			spec := w.Clients.Spec(int(m))
			dstNode, _ := w.nodeOfAddr(spec.Dst)
			flow = flowsim.Flow{From: w.Clients.Node(int(m)), To: dstNode, Src: flowsim.SrcGenuine}
			if spec.Spoof != 0 {
				if sn, ok := w.nodeOfAddr(spec.Spoof); ok {
					flow.Src, flow.SpoofNode = flowsim.SrcOfNode, sn
				} else {
					flow.Src = flowsim.SrcUnallocated
				}
			}
			fate, err := w.Fluid.Route(&flow)
			if err != nil {
				return err
			}
			if fate.Delivered {
				live = append(live, m)
			} else if k := int(spec.Kind); k < len(w.FluidCutCount) {
				w.FluidCutCount[k]++
				w.FluidCutRate[k] += spec.Rate * scale[k]
			}
		}
		inj.members = live
		key := uint64(uint32(inj.node))<<32 | uint64(uint32(inj.from+1))
		sub := root.SubstreamValue(key)
		buf := pool[:2*len(live)]
		pool = pool[2*len(live):]
		inj.arm(&sub, &scale, start, stop, buf)
		// Every member left in the heap emits (see Run).
		for _, s := range inj.heap {
			m := inj.members[s]
			src := w.Clients.spoof[m]
			if src == 0 {
				src = w.Clients.Addr(int(m))
			}
			w.mark(w.warm, src)
			w.mark(w.warm, w.Clients.dst[m])
		}
	}
	return nil
}

// Run advances the world to `until` and returns the frontier time.
// Before the first step it builds, on every core, the cone routing rows
// of the source and destination nodes of every member Start armed (the
// source is the forged address when a member spoofs one): packets are
// forwarded toward their destination, replies and reflections go back to
// their source, and uRPF checks look the source up. Any other row is
// still built on first use. A row is a pure function of the graph, so
// this moves when rows are built, never what they say.
func (w *World) Run(until sim.Time) (sim.Time, error) {
	if w.warm != nil {
		dsts := members(w.warm)
		w.warm = nil
		if err := w.cone.Prebuild(dsts, 0); err != nil {
			return w.net.Sim.Now(), err
		}
	}
	return w.net.Sim.Run(until)
}

// Stats returns the packet-level statistics.
func (w *World) Stats() *netsim.Stats { return w.net.Stats }

// Fired returns total packet events executed.
func (w *World) Fired() uint64 { return w.net.Sim.Fired() }

// ClientReceived aggregates traffic that reached modeled clients, by
// kind, across both termination paths: deliveries to materialized
// in-cone hosts and absorbed packets whose fluid continuation reaches
// its destination. This is the hybrid world's "replies received" metric,
// comparable across hybrid and all-packet reference runs.
func (w *World) ClientReceived() (pkts, bytes [5]uint64) {
	for _, h := range w.hosts {
		for k := range pkts {
			pkts[k] += h.Delivered[k]
			bytes[k] += h.DeliveredBytes[k]
		}
	}
	for _, a := range w.Absorbers {
		for k := range pkts {
			pkts[k] += a.DeliveredPkts[k]
			bytes[k] += a.DeliveredBytes[k]
		}
	}
	return pkts, bytes
}

// Emitted aggregates boundary-materialized traffic by kind.
func (w *World) Emitted() (pkts, bytes [5]uint64) {
	for _, in := range w.Injectors {
		for k := range pkts {
			pkts[k] += in.Emitted[k]
			bytes[k] += in.EmittedBytes[k]
		}
	}
	return pkts, bytes
}
