package flowsim_test

import (
	"fmt"
	"testing"

	root "dtc"
	"dtc/internal/flowsim"
	"dtc/internal/netsim"
	"dtc/internal/nms"
	"dtc/internal/packet"
	"dtc/internal/routing"
	"dtc/internal/service"
	"dtc/internal/sim"
	"dtc/internal/topology"
)

func TestModelBasics(t *testing.T) {
	g := topology.Line(4)
	m := flowsim.New(g)
	// Undefended: everything delivered.
	r, err := m.Route(&flowsim.Flow{From: 0, To: 3, Rate: 100, Size: 100, Src: flowsim.SrcUnallocated})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Delivered || r.ByteHops != 100*100*3 {
		t.Errorf("undefended: %+v", r)
	}
	// Strict filter at node 1 kills unallocated sources one hop out.
	if err := m.Deploy([]int{1}, true); err != nil {
		t.Fatal(err)
	}
	r, _ = m.Route(&flowsim.Flow{From: 0, To: 3, Rate: 100, Size: 100, Src: flowsim.SrcUnallocated})
	if r.Delivered || r.DropHop != 1 {
		t.Errorf("filtered: %+v", r)
	}
	// Genuine sources always pass.
	r, _ = m.Route(&flowsim.Flow{From: 0, To: 3, Rate: 100, Size: 100, Src: flowsim.SrcGenuine})
	if !r.Delivered {
		t.Errorf("genuine source dropped: %+v", r)
	}
	m.Reset()
	r, _ = m.Route(&flowsim.Flow{From: 0, To: 3, Rate: 1, Size: 1, Src: flowsim.SrcUnallocated})
	if !r.Delivered {
		t.Error("Reset did not clear deployment")
	}
	if err := m.Deploy([]int{99}, true); err == nil {
		t.Error("out-of-range deployment accepted")
	}
}

func TestModelEdgeOnlySparesTransit(t *testing.T) {
	g := topology.Line(4) // nodes 1,2 transit
	m := flowsim.New(g)
	if err := m.Deploy([]int{2}, false); err != nil {
		t.Fatal(err)
	}
	// Unallocated source from node 0 passes node 2 (arrives from transit
	// neighbor 1) under the conservative rule…
	r, _ := m.Route(&flowsim.Flow{From: 0, To: 3, Rate: 1, Size: 1, Src: flowsim.SrcUnallocated})
	if !r.Delivered {
		t.Errorf("edge-only filtered transit traffic: %+v", r)
	}
	// …but is caught when the filter sits at the stub-facing first hop.
	m.Reset()
	if err := m.Deploy([]int{1}, false); err != nil {
		t.Fatal(err)
	}
	r, _ = m.Route(&flowsim.Flow{From: 0, To: 3, Rate: 1, Size: 1, Src: flowsim.SrcUnallocated})
	if r.Delivered {
		t.Errorf("edge-only missed stub ingress: %+v", r)
	}
}

// TestCrossValidationAgainstPacketSimulator is the contract of DESIGN.md
// §5.6: for filtering experiments the flow model and the packet simulator
// agree flow by flow and byte-hop by byte-hop.
func TestCrossValidationAgainstPacketSimulator(t *testing.T) {
	for _, strict := range []bool{true, false} {
		for _, frac := range []float64{0, 0.1, 0.3, 1.0} {
			name := fmt.Sprintf("strict=%v/deploy=%v", strict, frac)
			seed := uint64(17)
			s := sim.New(seed)
			g, err := topology.BarabasiAlbert(200, 2, s.RNG())
			if err != nil {
				t.Fatal(err)
			}
			// Shared deployment set.
			count := int(frac * float64(g.Len()))
			deployNodes := g.NodesByDegree()[:count]

			// ---- Packet-level run -----------------------------------
			w, err := root.NewWorld(root.WorldConfig{Topology: g, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			stubs := g.Stubs()
			victimNode := stubs[0]
			user, err := w.NewUser("victim", netsim.NodePrefix(victimNode))
			if err != nil {
				t.Fatal(err)
			}
			if count > 0 {
				if _, err := user.Deploy(service.AntiSpoofingInbound("as", strict), nil, nms.Scope{Nodes: deployNodes}); err != nil {
					t.Fatal(err)
				}
			}
			victim, err := w.Net.AttachHost(victimNode)
			if err != nil {
				t.Fatal(err)
			}
			// 24 agents with deterministic per-agent source behaviour,
			// distinguished by destination port.
			type agentCfg struct {
				node int
				kind flowsim.SourceKind
				sp   int
			}
			rng := sim.NewRNG(seed + 99)
			var agents []agentCfg
			for i := 0; i < 24; i++ {
				cfg := agentCfg{node: stubs[1+rng.Intn(len(stubs)-1)]}
				switch i % 3 {
				case 0:
					cfg.kind = flowsim.SrcGenuine
				case 1:
					cfg.kind = flowsim.SrcUnallocated
				case 2:
					cfg.kind = flowsim.SrcOfNode
					cfg.sp = stubs[rng.Intn(len(stubs))]
				}
				agents = append(agents, cfg)
			}
			const pktsPerAgent = 8
			const pktSize = 250
			deliveredByPort := map[uint16]uint64{}
			victim.Recv = func(_ sim.Time, p *packet.Packet) { deliveredByPort[p.DstPort]++ }
			for i, cfg := range agents {
				h, err := w.Net.AttachHost(cfg.node)
				if err != nil {
					t.Fatal(err)
				}
				src := h.Addr
				switch cfg.kind {
				case flowsim.SrcUnallocated:
					src = packet.Addr(0xF0000000 + uint32(i))
				case flowsim.SrcOfNode:
					src = netsim.NodePrefix(cfg.sp).Nth(uint64(7000 + i))
				}
				port := uint16(10000 + i)
				h.SendBurst(0, pktsPerAgent, func(uint64) *packet.Packet {
					return &packet.Packet{Src: src, Dst: victim.Addr, DstPort: port,
						Proto: packet.UDP, Size: pktSize, Kind: packet.KindAttack}
				})
			}
			if _, err := w.Sim.RunAll(); err != nil {
				t.Fatal(err)
			}

			// ---- Flow-level run -------------------------------------
			m := flowsim.New(g)
			if err := m.Deploy(deployNodes, strict); err != nil {
				t.Fatal(err)
			}
			var predictedByteHops float64
			for i, cfg := range agents {
				f := &flowsim.Flow{From: cfg.node, To: victimNode,
					Rate: pktsPerAgent, Size: pktSize, Src: cfg.kind, SpoofNode: cfg.sp}
				r, err := m.Route(f)
				if err != nil {
					t.Fatal(err)
				}
				predictedByteHops += r.ByteHops
				got := deliveredByPort[uint16(10000+i)]
				if r.Delivered && got != pktsPerAgent {
					t.Errorf("%s agent %d (%v): flow model says delivered, packets got %d/%d",
						name, i, cfg.kind, got, pktsPerAgent)
				}
				if !r.Delivered && got != 0 {
					t.Errorf("%s agent %d (%v): flow model says dropped at hop %d, packets got %d",
						name, i, cfg.kind, r.DropHop, got)
				}
			}
			measured := float64(w.Net.Stats.ByteHops[packet.KindAttack])
			if measured != predictedByteHops {
				t.Errorf("%s: byte-hops packet=%v flow=%v", name, measured, predictedByteHops)
			}
		}
	}
}

func TestEvaluateAggregates(t *testing.T) {
	g := topology.Line(5)
	m := flowsim.New(g)
	if err := m.Deploy([]int{1}, true); err != nil {
		t.Fatal(err)
	}
	flows := []flowsim.Flow{
		{From: 0, To: 4, Rate: 10, Size: 100, Src: flowsim.SrcGenuine},
		{From: 0, To: 4, Rate: 20, Size: 100, Src: flowsim.SrcUnallocated},
		{From: 3, To: 4, Rate: 30, Size: 100, Src: flowsim.SrcUnallocated}, // no filter on path
	}
	s, err := m.Evaluate(flows)
	if err != nil {
		t.Fatal(err)
	}
	if s.Flows != 3 || s.Delivered != 2 {
		t.Errorf("sweep = %+v", s)
	}
	if s.DeliveredRate != 40 || s.TotalRate != 60 {
		t.Errorf("rates = %+v", s)
	}
	if s.MeanDropHop != 1 {
		t.Errorf("mean drop hop = %v", s.MeanDropHop)
	}
}

// TestEvalBatchMatchesEvaluate is EvalBatch's contract: bit-identical
// aggregates to the per-flow path, across source kinds, deployment styles
// and multiple destinations, whether routes are private or shared.
func TestEvalBatchMatchesEvaluate(t *testing.T) {
	seed := uint64(41)
	s := sim.New(seed)
	g, err := topology.BarabasiAlbert(300, 2, s.RNG())
	if err != nil {
		t.Fatal(err)
	}
	stubs := g.Stubs()
	rng := sim.NewRNG(seed + 1)
	var flows []flowsim.Flow
	for i := 0; i < 400; i++ {
		f := flowsim.Flow{
			From: stubs[rng.Intn(len(stubs))],
			To:   stubs[rng.Intn(len(stubs))],
			Rate: 1 + rng.Float64()*50,
			Size: 64 + rng.Intn(1400),
			Src:  flowsim.SourceKind(rng.Intn(3)),
		}
		if f.Src == flowsim.SrcOfNode {
			f.SpoofNode = stubs[rng.Intn(len(stubs))]
		}
		flows = append(flows, f)
	}
	shared := routing.NewShared(g, nil)
	for _, strict := range []bool{true, false} {
		for _, frac := range []float64{0, 0.15, 0.5} {
			deploy := g.NodesByDegree()[:int(frac*float64(g.Len()))]
			a := flowsim.New(g)
			b := flowsim.NewOnRoutes(g, shared)
			for _, m := range []*flowsim.Model{a, b} {
				if err := m.Deploy(deploy, strict); err != nil {
					t.Fatal(err)
				}
			}
			want, err := a.Evaluate(flows)
			if err != nil {
				t.Fatal(err)
			}
			for name, m := range map[string]*flowsim.Model{"private": a, "shared": b} {
				got, err := m.EvalBatch(flows)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("strict=%v frac=%v %s: EvalBatch=%+v Evaluate=%+v", strict, frac, name, got, want)
				}
			}
		}
	}
	// Error behaviour: bad destination surfaces from both paths.
	bad := []flowsim.Flow{{From: 0, To: 1, Rate: 1, Size: 1}, {From: 0, To: -5, Rate: 1, Size: 1}}
	m := flowsim.New(g)
	if _, err := m.Evaluate(bad); err == nil {
		t.Error("Evaluate accepted bad destination")
	}
	if _, err := m.EvalBatch(bad); err == nil {
		t.Error("EvalBatch accepted bad destination")
	}
}

// TestCrossValidationOnTransitStub repeats the model-equivalence check on
// a transit-stub topology with multihoming — the graph family where
// equal-cost path asymmetries actually occur.
func TestCrossValidationOnTransitStub(t *testing.T) {
	for _, strict := range []bool{true, false} {
		seed := uint64(23)
		s := sim.New(seed)
		g, err := topology.TransitStub(8, 6, 0.4, s.RNG())
		if err != nil {
			t.Fatal(err)
		}
		deployNodes := g.NodesByDegree()[:g.Len()/5]

		w, err := root.NewWorld(root.WorldConfig{Topology: g, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		stubs := g.Stubs()
		victimNode := stubs[0]
		user, err := w.NewUser("victim", netsim.NodePrefix(victimNode))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := user.Deploy(service.AntiSpoofingInbound("as", strict), nil, nms.Scope{Nodes: deployNodes}); err != nil {
			t.Fatal(err)
		}
		victim, err := w.Net.AttachHost(victimNode)
		if err != nil {
			t.Fatal(err)
		}
		deliveredByPort := map[uint16]uint64{}
		victim.Recv = func(_ sim.Time, p *packet.Packet) { deliveredByPort[p.DstPort]++ }

		rng := sim.NewRNG(seed + 5)
		type agentCfg struct {
			node int
			kind flowsim.SourceKind
			sp   int
		}
		var agents []agentCfg
		for i := 0; i < 30; i++ {
			cfg := agentCfg{node: stubs[1+rng.Intn(len(stubs)-1)], kind: flowsim.SourceKind(i % 3)}
			if cfg.kind == flowsim.SrcOfNode {
				cfg.sp = stubs[rng.Intn(len(stubs))]
			}
			agents = append(agents, cfg)
		}
		const pkts = 4
		for i, cfg := range agents {
			h, err := w.Net.AttachHost(cfg.node)
			if err != nil {
				t.Fatal(err)
			}
			src := h.Addr
			switch cfg.kind {
			case flowsim.SrcUnallocated:
				src = packet.Addr(0xF0000000 + uint32(i))
			case flowsim.SrcOfNode:
				src = netsim.NodePrefix(cfg.sp).Nth(uint64(8000 + i))
			}
			port := uint16(20000 + i)
			h.SendBurst(0, pkts, func(uint64) *packet.Packet {
				return &packet.Packet{Src: src, Dst: victim.Addr, DstPort: port,
					Proto: packet.UDP, Size: 120, Kind: packet.KindAttack}
			})
		}
		if _, err := w.Sim.RunAll(); err != nil {
			t.Fatal(err)
		}
		m := flowsim.New(g)
		if err := m.Deploy(deployNodes, strict); err != nil {
			t.Fatal(err)
		}
		for i, cfg := range agents {
			r, err := m.Route(&flowsim.Flow{From: cfg.node, To: victimNode, Rate: pkts, Size: 120, Src: cfg.kind, SpoofNode: cfg.sp})
			if err != nil {
				t.Fatal(err)
			}
			got := deliveredByPort[uint16(20000+i)]
			if r.Delivered != (got == pkts) || (!r.Delivered && got != 0) {
				t.Errorf("strict=%v agent %d (%v from %d): flow says delivered=%v, packets got %d/%d",
					strict, i, cfg.kind, cfg.node, r.Delivered, got, pkts)
			}
		}
	}
}

// genuineDropsOracle is the reverse-path check the flow model applied to
// genuine sources before their walks were short-cut: a deployed filter at
// `at` (strict, or edge-only and facing a non-transit neighbor) drops a
// packet arriving from prev unless prev lies on a shortest path from the
// flow's origin. The second result reports whether FeasibleIngress was
// consulted at all.
func genuineDropsOracle(g *topology.Graph, routes flowsim.Routes, deployed, strict []bool, f *flowsim.Flow, at, prev int) (drop, probed bool) {
	if !deployed[at] || prev == at {
		return false, false
	}
	if !strict[at] && g.Nodes[prev].Role == topology.RoleTransit {
		return false, false
	}
	return !routes.FeasibleIngress(at, prev, f.From), true
}

// TestPropertyGenuineWalksPassEveryFilter is the oracle for the model's
// genuine-source shortcut (Park & Lee's no-false-positive property of
// route-based filtering): on random power-law and hierarchical graphs,
// hop-count and symmetric integer weights, random mixes of strict and
// edge-only filters, before and after LinkDown repair, the old per-hop
// FeasibleIngress check passes every hop of every genuine walk, and the
// model delivers every genuine flow.
func TestPropertyGenuineWalksPassEveryFilter(t *testing.T) {
	intWeight := func(a, b int) float64 {
		if a > b {
			a, b = b, a
		}
		return float64(1 + (uint64(a)*2654435761+uint64(b)*40503)%3)
	}
	graphs := map[string]func(*sim.RNG) (*topology.Graph, error){
		"power-law":    func(r *sim.RNG) (*topology.Graph, error) { return topology.BarabasiAlbert(150, 2, r) },
		"hierarchical": func(r *sim.RNG) (*topology.Graph, error) { return topology.TransitStub(8, 12, 0.4, r) },
	}
	probed := 0
	for name, build := range graphs {
		for seed := uint64(0); seed < 4; seed++ {
			rng := sim.NewRNG(seed + 31)
			g, err := build(rng)
			if err != nil {
				t.Fatal(err)
			}
			var w routing.WeightFunc
			if seed%2 == 1 {
				w = intWeight
			}
			var routes routing.Source = routing.NewShared(g, w)
			if seed >= 2 {
				routes = routing.NewTable(g, w)
			}
			m := flowsim.NewOnRoutes(g, routes)
			deployed, strict := make([]bool, g.Len()), make([]bool, g.Len())
			var edgeOnly, strictNodes []int
			for v := 0; v < g.Len(); v++ {
				if rng.Float64() < 0.5 {
					deployed[v] = true
					if strict[v] = rng.Float64() < 0.5; strict[v] {
						strictNodes = append(strictNodes, v)
					} else {
						edgeOnly = append(edgeOnly, v)
					}
				}
			}
			if err := m.Deploy(strictNodes, true); err != nil {
				t.Fatal(err)
			}
			if err := m.Deploy(edgeOnly, false); err != nil {
				t.Fatal(err)
			}
			check := func(stage string) {
				for k := 0; k < 150; k++ {
					f := flowsim.Flow{From: rng.Intn(g.Len()), To: rng.Intn(g.Len()), Rate: 1, Size: 100, Src: flowsim.SrcGenuine}
					tr, err := routes.TreeTo(f.To)
					if err != nil {
						t.Fatal(err)
					}
					path := tr.Path(f.From)
					if path == nil {
						continue // disconnected by the cuts
					}
					for i := 1; i < len(path); i++ {
						drop, p := genuineDropsOracle(g, routes, deployed, strict, &f, path[i], path[i-1])
						if p {
							probed++
						}
						if drop {
							t.Fatalf("%s seed %d %s: genuine flow %d->%d fails the reverse-path check at hop %d (%d from %d)",
								name, seed, stage, f.From, f.To, i, path[i], path[i-1])
						}
					}
					if r, err := m.Route(&f); err != nil || !r.Delivered {
						t.Fatalf("%s seed %d %s: genuine flow %d->%d not delivered: %+v %v", name, seed, stage, f.From, f.To, r, err)
					}
				}
			}
			check("before cuts")
			for c := 0; c < 4; c++ {
				tr, err := routes.TreeTo(rng.Intn(g.Len()))
				if err != nil {
					t.Fatal(err)
				}
				v := rng.Intn(g.Len())
				if v == tr.Dst || tr.Next[v] == routing.NoRoute {
					continue
				}
				u := int(tr.Next[v])
				g.RemoveEdge(v, u)
				routes.LinkDown(v, u)
				check(fmt.Sprintf("after cutting (%d,%d)", v, u))
			}
			if routes.Stats().Repairs == 0 {
				t.Errorf("%s seed %d: no cut repaired a cached tree", name, seed)
			}
		}
	}
	if probed == 0 {
		t.Fatal("no walk reached a filter that consults FeasibleIngress")
	}
}
