package hybrid

import (
	"reflect"
	"testing"

	"dtc/internal/netsim"
	"dtc/internal/packet"
	"dtc/internal/routing"
	"dtc/internal/sim"
	"dtc/internal/topology"
)

func testGraph(t *testing.T, n int, seed uint64) *topology.Graph {
	t.Helper()
	g, err := topology.BarabasiAlbert(n, 2, sim.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestConeExtraction(t *testing.T) {
	g := testGraph(t, 80, 3)
	routes := routing.NewShared(g, nil)
	victim := g.NodesByDegree()[0]
	focus := []int{g.NodesByDegree()[len(g.Nodes)-1], g.NodesByDegree()[len(g.Nodes)-5]}
	c, err := ExtractCone(g, routes, victim, 2, focus)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Contains(victim) {
		t.Fatal("victim not in cone")
	}
	tr, err := routes.TreeTo(victim)
	if err != nil {
		t.Fatal(err)
	}
	// Closure under forwarding toward the victim: an in-cone node's next
	// hop to the victim is in the cone.
	for _, v := range c.Nodes {
		if v != victim && !c.Contains(int(tr.Next[v])) {
			t.Errorf("cone not closed: %d in, next hop %d out", v, tr.Next[v])
		}
	}
	// Focus paths are fully in.
	for _, f := range focus {
		for at := f; at != victim; at = int(tr.Next[at]) {
			if !c.Contains(at) {
				t.Errorf("focus path node %d not in cone", at)
			}
		}
	}
	// Shell nodes are out-of-cone and adjacent to the cone.
	for _, s := range c.Shell {
		if c.Contains(s) {
			t.Errorf("shell node %d is in the cone", s)
		}
		touch := false
		for _, nb := range g.Neighbors(s) {
			touch = touch || c.Contains(nb)
		}
		if !touch {
			t.Errorf("shell node %d touches no cone node", s)
		}
	}
	// Reference radius swallows the whole graph.
	ref, err := ExtractCone(g, routes, victim, g.Len(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Len() != g.Len() || len(ref.Shell) != 0 {
		t.Fatalf("reference cone has %d nodes, shell %d; want %d, 0", ref.Len(), len(ref.Shell), g.Len())
	}
}

func TestClientsTable(t *testing.T) {
	const nodes = 10
	c := NewClients(nodes)
	specs := []struct {
		node int
		spec ClientSpec
	}{
		{1, ClientSpec{Rate: 10, Size: 100, Kind: packet.KindLegit, Dst: 0x00050001}},
		{1, ClientSpec{Rate: 20, Size: 200, Kind: packet.KindAttack, Dst: 0x00050001, Spoof: 0xdead0001}},
		{4, ClientSpec{Rate: 5, Size: 50, Kind: packet.KindLegit, Dst: 0x00050001}},
		{9, ClientSpec{Rate: 1, Size: 28, Kind: packet.KindLegit, Dst: 0x00050001}},
	}
	for i, s := range specs {
		idx, err := c.Add(s.node, s.spec)
		if err != nil {
			t.Fatal(err)
		}
		if idx != i {
			t.Fatalf("Add returned %d, want %d", idx, i)
		}
	}
	if _, err := c.Add(3, ClientSpec{Rate: 1, Size: 28}); err == nil {
		t.Fatal("out-of-order Add accepted")
	}
	c.Seal(nodes)
	for i, s := range specs {
		if got := c.Node(i); got != s.node {
			t.Fatalf("Node(%d) = %d, want %d", i, got, s.node)
		}
		if got := c.Spec(i); got != s.spec {
			t.Fatalf("Spec(%d) = %+v, want %+v", i, got, s.spec)
		}
		a := c.Addr(i)
		if n := int(uint32(a) >> 16); n != s.node {
			t.Fatalf("Addr(%d) = %v not in node %d's block", i, a, s.node)
		}
		j, ok := c.Index(a)
		if !ok || j != i {
			t.Fatalf("Index(Addr(%d)) = %d,%v", i, j, ok)
		}
	}
	// The two node-1 clients get consecutive host addresses .1 and .2.
	if c.Addr(0) != netsim.NodePrefix(1).Nth(1) || c.Addr(1) != netsim.NodePrefix(1).Nth(2) {
		t.Fatalf("node-1 addresses %v, %v", c.Addr(0), c.Addr(1))
	}
	if _, ok := c.Index(netsim.NodePrefix(1).Nth(3)); ok {
		t.Fatal("Index resolved a nonexistent client")
	}
	if _, ok := c.Index(netsim.NodePrefix(1).Nth(0)); ok {
		t.Fatal("Index resolved a router address")
	}
	if b := c.Bytes(); b == 0 || b > 64*uint64(c.Len())+64 {
		t.Fatalf("Bytes() = %d implausible for %d clients", b, c.Len())
	}
}

// buildScenario populates a client table over g: `legitPer` legitimate
// clients on every non-server node and one spoofing attack client on
// every third node, all aimed at the victim's future server address.
func buildScenario(t *testing.T, g *topology.Graph, victim int, legitPer int) *Clients {
	t.Helper()
	srvAddr := netsim.NodePrefix(victim).Nth(1)
	cl := NewClients(g.Len())
	for v := 0; v < g.Len(); v++ {
		if v == victim {
			continue
		}
		for k := 0; k < legitPer; k++ {
			if _, err := cl.Add(v, ClientSpec{Rate: 50, Size: 400, Kind: packet.KindLegit, Dst: srvAddr}); err != nil {
				t.Fatal(err)
			}
		}
		if v%3 == 0 {
			if _, err := cl.Add(v, ClientSpec{
				Rate: 200, Size: 600, Kind: packet.KindAttack, Dst: srvAddr,
				Spoof: packet.Addr(0x7fff0000), // unallocated block
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	cl.Seal(g.Len())
	return cl
}

// runScenario builds, deploys, starts and runs one world for a second of
// simulated time, returning it with the victim server.
func runScenario(t *testing.T, g *topology.Graph, cl *Clients, radius int) (*World, *netsim.Server) {
	t.Helper()
	victim := g.NodesByDegree()[0]
	w, err := NewWorld(Config{
		Graph:  g,
		Link:   netsim.LinkConfig{Bandwidth: 1e9, Delay: sim.Millisecond, QueueCap: 1024},
		Victim: victim,
		Radius: radius,
		Seed:   99,
	}, cl)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := w.Eng().NewServer(victim, 15*sim.Microsecond, 256)
	if err != nil {
		t.Fatal(err)
	}
	if srv.Host.Addr != netsim.NodePrefix(victim).Nth(1) {
		t.Fatalf("server got %v, scenario assumed %v", srv.Host.Addr, netsim.NodePrefix(victim).Nth(1))
	}
	nt := w.NetOf(victim)
	srv.OnServe = func(now sim.Time, pkt *packet.Packet) {
		if pkt.Kind != packet.KindLegit {
			nt.PutPacket(pkt)
			return
		}
		// Echo a service reply to the requester, reusing the packet.
		pkt.Src, pkt.Dst = pkt.Dst, pkt.Src
		pkt.Kind = packet.KindService
		pkt.TTL = packet.DefaultTTL
		srv.Host.Send(now, pkt)
	}
	srv.OnOverload = func(_ sim.Time, pkt *packet.Packet) { nt.PutPacket(pkt) }
	var deploy []int
	for v := 0; v < g.Len(); v++ {
		if v%4 == 1 {
			deploy = append(deploy, v)
		}
	}
	if err := w.Deploy(deploy); err != nil {
		t.Fatal(err)
	}
	if err := w.Start(0, sim.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Run(sim.Second + 100*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	return w, srv
}

// TestBoundaryConservesOfferedLoad pins the fluid->packet conversion
// property: over a window W, each surviving client emits rate*W packets
// (give or take the one straddling the window edge), so aggregate
// emission matches aggregate surviving fluid rate.
func TestBoundaryConservesOfferedLoad(t *testing.T) {
	g := testGraph(t, 300, 5)
	victim := g.NodesByDegree()[0]
	cl := buildScenario(t, g, victim, 3)
	w, _ := runScenario(t, g, cl, 1)

	var wantRate [5]float64
	for i := 0; i < cl.Len(); i++ {
		if k := int(cl.kind[i]); k < 5 {
			wantRate[k] += float64(cl.rate[i])
		}
	}
	for k := range wantRate {
		wantRate[k] -= w.FluidCutRate[k]
	}
	pkts, _ := w.Emitted()
	var members [5]uint64
	for _, in := range w.Injectors {
		for _, m := range in.members {
			members[cl.kind[m]]++
		}
	}
	for k, want := range wantRate {
		got := float64(pkts[k])
		// Each member's CBR schedule puts floor or ceil of rate*W packets
		// in the window; allow one packet per member plus 1% slack.
		tol := float64(members[k]) + want*0.01 + 1
		if got < want-tol || got > want+tol {
			t.Errorf("kind %d: emitted %v packets over 1s, want %v +- %v", k, got, want, tol)
		}
	}
	if w.FluidCutCount[packet.KindAttack] == 0 {
		t.Error("no attack clients were cut by out-of-cone fluid filters; deployment ineffective")
	}
}

// TestHybridMatchesPacketReference compares the hybrid world against the
// all-packet reference (radius = whole graph) on the same scenario: the
// same clients survive filtering, and goodput/attack delivery/replies
// agree within a tolerance covering the differing emission phases.
func TestHybridMatchesPacketReference(t *testing.T) {
	g := testGraph(t, 300, 5)
	victim := g.NodesByDegree()[0]

	hyb, hsrv := runScenario(t, g, buildScenario(t, g, victim, 2), 1)
	ref, rsrv := runScenario(t, g, buildScenario(t, g, victim, 2), g.Len())

	// The fluid filter kill set must equal the reference's packet-level
	// kill set, expressed as surviving member counts per kind.
	count := func(w *World) (m [5]uint64) {
		for _, in := range w.Injectors {
			for _, mm := range in.members {
				m[w.Clients.kind[mm]]++
			}
		}
		return m
	}
	hm, rm := count(hyb), count(ref)
	// Reference mode kills nothing at fluid level; hybrid kills out-of-cone
	// filtered clients. The reference drops those same clients' packets in
	// the packet simulation instead, so compare served traffic, not members.
	if hyb.FluidCutCount[packet.KindAttack] == 0 {
		t.Fatal("hybrid cut no attack clients")
	}
	if rm[packet.KindLegit] != hm[packet.KindLegit]+hyb.FluidCutCount[packet.KindLegit] {
		t.Fatalf("legit member bookkeeping: ref %d, hybrid %d + cut %d",
			rm[packet.KindLegit], hm[packet.KindLegit], hyb.FluidCutCount[packet.KindLegit])
	}

	within := func(name string, got, want, frac float64) {
		t.Helper()
		tol := want * frac
		if tol < 50 {
			tol = 50
		}
		if got < want-tol || got > want+tol {
			t.Errorf("%s: hybrid %v vs reference %v (tolerance %v)", name, got, want, tol)
		}
	}
	within("legit served", float64(hsrv.Served[packet.KindLegit]), float64(rsrv.Served[packet.KindLegit]), 0.05)
	within("attack served", float64(hsrv.Served[packet.KindAttack]), float64(rsrv.Served[packet.KindAttack]), 0.07)
	hp, _ := hyb.ClientReceived()
	rp, _ := ref.ClientReceived()
	within("replies received", float64(hp[packet.KindService]), float64(rp[packet.KindService]), 0.05)
}

// TestHybridDeterministicRepeat pins the determinism contract: rebuilding
// a hybrid world from scratch (routing trees prebuilt on every core)
// reproduces bit-identical packet statistics.
func TestHybridDeterministicRepeat(t *testing.T) {
	g := testGraph(t, 80, 7)
	victim := g.NodesByDegree()[0]
	type snap struct {
		stats netsim.Stats
		pkts  [5]uint64
		fired uint64
	}
	run := func() snap {
		cl := buildScenario(t, g, victim, 2)
		w, _ := runScenario(t, g, cl, 2)
		p, _ := w.ClientReceived()
		return snap{stats: *w.Stats(), pkts: p, fired: w.Fired()}
	}
	base := run()
	for i := 0; i < 2; i++ {
		if got := run(); !reflect.DeepEqual(got, base) {
			t.Errorf("rebuild %d diverged from the first run:\n got %+v\nwant %+v", i+1, got, base)
		}
	}
}
