package netsim

import (
	"testing"

	"dtc/internal/packet"
	"dtc/internal/sim"
	"dtc/internal/topology"
)

// ring builds a 4-node cycle 0-1-2-3-0 so failures leave an alternate path.
func ring(t *testing.T) (*sim.Simulation, *Network) {
	t.Helper()
	g := topology.NewGraph(4)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	s := sim.New(1)
	net, err := New(s, g, DefaultLink)
	if err != nil {
		t.Fatal(err)
	}
	return s, net
}

func TestFailLinkReroutes(t *testing.T) {
	s, net := ring(t)
	a, _ := net.AttachHost(0)
	b, _ := net.AttachHost(1)

	var hops []uint8
	b.Recv = func(_ sim.Time, p *packet.Packet) { hops = append(hops, packet.DefaultTTL-p.TTL) }

	// Direct path 0->1: one hop.
	a.Send(0, &packet.Packet{Src: a.Addr, Dst: b.Addr, Size: 100})
	if _, err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(hops) != 1 || hops[0] != 1 {
		t.Fatalf("direct path hops = %v, want [1]", hops)
	}

	// Fail 0-1: traffic must reroute 0->3->2->1.
	if err := net.FailLink(0, 1); err != nil {
		t.Fatal(err)
	}
	a.Send(s.Now(), &packet.Packet{Src: a.Addr, Dst: b.Addr, Size: 100})
	if _, err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(hops) != 2 || hops[1] != 3 {
		t.Fatalf("rerouted hops = %v, want second delivery over 3 hops", hops)
	}
}

func TestFailLinkErrorsAndObservers(t *testing.T) {
	_, net := ring(t)
	updates := 0
	net.OnRoutingUpdate(func() { updates++ })
	if err := net.FailLink(0, 2); err == nil {
		t.Error("failing a non-edge succeeded")
	}
	if updates != 0 {
		t.Error("observer fired for failed FailLink")
	}
	if err := net.FailLink(0, 1); err != nil {
		t.Fatal(err)
	}
	if updates != 1 {
		t.Errorf("updates = %d", updates)
	}
	if err := net.FailLink(0, 1); err == nil {
		t.Error("double failure succeeded")
	}
}

func TestFailLinkPartitions(t *testing.T) {
	s, net := ring(t)
	a, _ := net.AttachHost(0)
	b, _ := net.AttachHost(2)
	// Cut both paths to node 2.
	if err := net.FailLink(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := net.FailLink(3, 2); err != nil {
		t.Fatal(err)
	}
	a.Send(0, &packet.Packet{Src: a.Addr, Dst: b.Addr, Size: 100})
	if _, err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if b.Delivered[packet.KindLegit] != 0 {
		t.Error("packet crossed a partition")
	}
	if net.Stats.DropTotal(DropNoRoute) != 1 {
		t.Errorf("noroute drops = %d", net.Stats.DropTotal(DropNoRoute))
	}
}

func TestGraphConservationInvariant(t *testing.T) {
	// Network-wide invariant: every injected packet is exactly one of
	// delivered, dropped (any reason), or never-delivered due to missing
	// host — checked after a busy mixed workload.
	s, net := ring(t)
	hosts := make([]*Host, 4)
	for i := range hosts {
		hosts[i], _ = net.AttachHost(i)
	}
	rng := s.RNG().Fork()
	var sources []*Source
	for _, h := range hosts {
		host := h
		sources = append(sources, host.StartPoisson(0, 500, func(i uint64) *packet.Packet {
			dst := hosts[rng.Intn(len(hosts))].Addr
			if rng.Intn(10) == 0 {
				dst = packet.Addr(rng.Uint32()) // mostly unroutable
			}
			return &packet.Packet{Src: host.Addr, Dst: dst, Size: 100 + rng.Intn(900)}
		}))
	}
	s.AfterFunc(300*sim.Millisecond, func(sim.Time) {
		if err := net.FailLink(0, 1); err != nil {
			t.Error(err)
		}
	})
	s.AfterFunc(600*sim.Millisecond, func(sim.Time) {
		for _, src := range sources {
			src.Stop()
		}
		s.Stop()
	})
	if _, err := s.Run(2 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunAll(); err != nil { // drain in-flight packets
		t.Fatal(err)
	}
	st := net.Stats
	var sent, delivered, dropped uint64
	for k := 0; k < 5; k++ {
		sent += st.Sent[k].Packets
		delivered += st.Delivered[k].Packets
	}
	for r := DropReason(0); r < dropReasons; r++ {
		dropped += st.DropTotal(r)
	}
	if sent == 0 {
		t.Fatal("no traffic generated")
	}
	// A handful of self-addressed packets (dst == src host) are delivered
	// to the sender's own node without ever crossing a link; they still
	// count in both sent and delivered, so the identity must hold exactly.
	if delivered+dropped != sent {
		t.Errorf("conservation violated: sent=%d delivered=%d dropped=%d", sent, delivered, dropped)
	}
}

// TestFailLinkForwardingIsHistoryFree pins that forwarding after a cut
// depends on the cut graph alone, not on which routes were cached before
// it (paper §4.2's routing updates). Two networks on identical copies of
// one hop-count power-law graph cut the same link; only one of them has
// forwarded traffic before, which cached its routes toward every
// destination that traffic used. Afterwards both carry the same flows and
// must count the same packets on every link and at every host.
func TestFailLinkForwardingIsHistoryFree(t *testing.T) {
	const nodes, flows = 240, 800
	type world struct {
		s     *sim.Simulation
		net   *Network
		hosts []*Host
	}
	build := func() world {
		g, err := topology.BarabasiAlbert(nodes, 2, sim.NewRNG(9))
		if err != nil {
			t.Fatal(err)
		}
		s := sim.New(1)
		net, err := New(s, g, LinkConfig{Bandwidth: 10e9, Delay: sim.Millisecond, QueueCap: flows})
		if err != nil {
			t.Fatal(err)
		}
		w := world{s: s, net: net, hosts: make([]*Host, nodes)}
		for v := range w.hosts {
			if w.hosts[v], err = net.AttachHost(v); err != nil {
				t.Fatal(err)
			}
		}
		return w
	}
	rng := sim.NewRNG(77)
	pairs := make([][2]int, flows)
	for i := range pairs {
		pairs[i] = [2]int{rng.Intn(nodes), rng.Intn(nodes)}
	}
	send := func(w world) {
		now := w.s.Now()
		for _, p := range pairs {
			src := w.hosts[p[0]]
			src.Send(now, &packet.Packet{Src: src.Addr, Dst: w.hosts[p[1]].Addr, Size: 500})
		}
		if _, err := w.s.RunAll(); err != nil {
			t.Fatal(err)
		}
	}

	warm, cold := build(), build()
	send(warm)
	// Cut the warm run's busiest edge, which the most cached routes cross,
	// then forget the warm-up traffic so both networks count only what
	// follows the cut.
	var cut topology.Edge
	var most uint64
	for _, e := range warm.net.Graph.Edges() {
		ab, _ := warm.net.Link(e.A, e.B)
		ba, _ := warm.net.Link(e.B, e.A)
		if c := ab.Packets + ba.Packets; c > most {
			most, cut = c, e
		}
		*ab, *ba = LinkStats{}, LinkStats{}
	}
	*warm.net.Stats = Stats{}
	for _, h := range warm.hosts {
		h.Delivered, h.DeliveredBytes = [5]uint64{}, [5]uint64{}
	}
	for _, w := range []world{warm, cold} {
		if err := w.net.FailLink(cut.A, cut.B); err != nil {
			t.Fatal(err)
		}
		send(w)
	}

	if cold.net.Stats.Delivered[packet.KindLegit].Packets == 0 {
		t.Fatal("nothing delivered after the cut")
	}
	if *warm.net.Stats != *cold.net.Stats {
		t.Errorf("network stats differ after cutting (%d,%d):\nwarm %+v\ncold %+v", cut.A, cut.B, *warm.net.Stats, *cold.net.Stats)
	}
	differ := 0
	for _, e := range cold.net.Graph.Edges() {
		for _, d := range [][2]int{{e.A, e.B}, {e.B, e.A}} {
			a, _ := warm.net.Link(d[0], d[1])
			b, _ := cold.net.Link(d[0], d[1])
			if *a != *b {
				if differ++; differ <= 5 {
					t.Errorf("link %d->%d after cutting (%d,%d): warm %+v, cold %+v", d[0], d[1], cut.A, cut.B, *a, *b)
				}
			}
		}
	}
	if differ > 0 {
		t.Errorf("%d directed links carried different traffic", differ)
	}
	for v := range cold.hosts {
		if a, b := warm.hosts[v], cold.hosts[v]; a.Delivered != b.Delivered || a.DeliveredBytes != b.DeliveredBytes {
			t.Errorf("host on node %d: warm delivered %v, cold %v", v, a.Delivered, b.Delivered)
		}
	}
}
