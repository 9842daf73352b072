package main

import (
	"fmt"
	"time"

	dtc "dtc"
	"dtc/internal/netsim"
	"dtc/internal/nms"
	"dtc/internal/packet"
	"dtc/internal/service"
	"dtc/internal/sim"
	"dtc/internal/sweep"
	"dtc/internal/topology"
)

// packet_dataplane: an all-packet dtc.World on an 18k-AS power-law graph
// split across 4 ISPs, with an adaptive device on every router. The
// victim registers through the TCSP and deploys source-stage
// anti-spoofing scoped to one ISP plus a destination-stage UDP rate limit
// at its own router. Legitimate clients on 200 stub ASes send requests to
// the victim's server, which consumes them without replying; attack
// agents on 40 stub ASes spoof the victim at the 8 highest-degree
// reflectors, which amplify 4x back at the victim. Spreading the hosts
// over a few hundred ASes rather than all 13k stubs keeps the per-packet
// working set within reach of the caches, so run-to-run figures are not
// dominated by co-tenants' cache traffic. Only the victim's and the reflectors' routing trees
// are ever built, so the cost is per forwarded packet: event heap, link
// and router hop, address lookup and the device pipeline.

// dataplaneGraphSeed fixes the AS graph: the run's seed varies the
// traffic (host placement and phases), not the topology, so the figures
// describe per-packet cost rather than one graph's path lengths.
const dataplaneGraphSeed = 1

type dataplaneSizes struct {
	nodes, isps, reflectors int
	clients, agents         int     // hosts
	clientASes, agentASes   int     // stub ASes the hosts are spread over
	clientPPS, agentPPS     float64 // per host
	limitPPS                float64 // the victim's UDP rate limit
	window                  sim.Time
}

func dataplaneSizesFor(quick bool) dataplaneSizes {
	if quick {
		return dataplaneSizes{nodes: 400, isps: 4, reflectors: 4, clients: 40, agents: 10, clientASes: 8, agentASes: 4,
			clientPPS: 50, agentPPS: 100, limitPPS: 100, window: 200 * sim.Millisecond}
	}
	return dataplaneSizes{nodes: 18000, isps: 4, reflectors: 8, clients: 4000, agents: 800, clientASes: 200, agentASes: 40,
		clientPPS: 200, agentPPS: 500, limitPPS: 2000, window: 250 * sim.Millisecond}
}

// dataplaneRep is one repetition: a fresh world, the window, the drain.
func dataplaneRep(seed uint64, sz dataplaneSizes, tr *tracer, o *outcome) (*simRep, error) {
	p := &simRep{}
	tr.begin("packet_dataplane.rep")
	defer tr.end()

	tr.begin("topology.build")
	t0 := time.Now()
	g, err := topology.BarabasiAlbert(sz.nodes, 2, sim.NewRNG(dataplaneGraphSeed))
	topologyS := time.Since(t0).Seconds()
	tr.end()
	if err != nil {
		return nil, err
	}

	tr.begin("world.build")
	sub := sweep.NewSubstrate(g)
	parts := make([][]int, sz.isps)
	for i := 0; i < g.Len(); i++ {
		k := i * sz.isps / g.Len()
		parts[k] = append(parts[k], i)
	}
	w, err := dtc.NewWorld(dtc.WorldConfig{
		Topology:     g,
		Link:         netsim.LinkConfig{Bandwidth: 2.5e9, Delay: sim.Millisecond, QueueCap: 4096},
		Seed:         seed,
		ISPPartition: parts,
		Routes:       tr.routesFor(sub.Routes, g.Len()),
		NodeOwners:   sub.Owners,
	})
	tr.end()
	if err != nil {
		return nil, err
	}
	net := w.Net
	net.OnDrop(func(_ sim.Time, pkt *packet.Packet, _ netsim.DropReason, _ int) { net.PutPacket(pkt) })

	stubs := g.Stubs()
	byDegree := g.NodesByDegree()
	if len(stubs) < 3 {
		return nil, fmt.Errorf("packet_dataplane: topology has too few stubs")
	}
	victimNode := stubs[0]
	victimISP := fmt.Sprintf("isp%d", victimNode*sz.isps/g.Len()+1)

	// The victim registers and deploys through the TCSP (Figures 4-5).
	tr.begin("tcsp.register_deploy")
	user, err := w.NewUser("victim", netsim.NodePrefix(victimNode))
	if err != nil {
		return nil, err
	}
	// Anti-spoofing on the last ISP, whose routers are the graph's youngest
	// (mostly stub) ASes: agents there are filtered at their first hop,
	// agents elsewhere still reach the reflectors.
	if _, err := user.Deploy(service.AntiSpoofing("anti-spoof"), nil, nms.Scope{}, fmt.Sprintf("isp%d", sz.isps)); err != nil {
		return nil, fmt.Errorf("deploy anti-spoofing: %w", err)
	}
	if _, err := user.Deploy(service.RateLimit("limit-udp", service.MatchSpec{Proto: "udp"}, sz.limitPPS, sz.limitPPS/10),
		nil, nms.Scope{Nodes: []int{victimNode}}, victimISP); err != nil {
		return nil, fmt.Errorf("deploy rate limit: %w", err)
	}
	tr.end()

	tr.begin("hosts.attach")
	victim, err := net.NewServer(victimNode, 3*sim.Microsecond, 256)
	if err != nil {
		return nil, err
	}
	victim.OnServe = func(_ sim.Time, pkt *packet.Packet) { net.PutPacket(pkt) }
	victim.OnOverload = func(_ sim.Time, pkt *packet.Packet) { net.PutPacket(pkt) }
	victimAddr := victim.Host.Addr
	var reflAddrs []packet.Addr
	for _, rn := range byDegree[:sz.reflectors] {
		refl, err := net.NewServer(rn, 5*sim.Microsecond, 1024)
		if err != nil {
			return nil, err
		}
		refl.OnServe = func(now sim.Time, pkt *packet.Packet) {
			if pkt.Kind != packet.KindAttack {
				net.PutPacket(pkt)
				return
			}
			pkt.Src, pkt.Dst = pkt.Dst, pkt.Src
			pkt.Kind = packet.KindReflect
			pkt.Size = 4 * pkt.Size
			pkt.TTL = packet.DefaultTTL
			refl.Host.Send(now, pkt)
		}
		refl.OnOverload = func(_ sim.Time, pkt *packet.Packet) { net.PutPacket(pkt) }
		reflAddrs = append(reflAddrs, refl.Host.Addr)
	}

	// The seed picks the stub ASes (victim excluded) that host clients and
	// agents, the same number in every ISP so the share of agents behind
	// the anti-spoofing ISP does not vary with the seed, and staggers the
	// sources' phases so they do not fire in lockstep.
	var sources []*netsim.Source
	rng := sim.NewRNG(seed)
	byISP := make([][]int, sz.isps)
	for _, v := range stubs[1:] {
		k := v * sz.isps / g.Len()
		byISP[k] = append(byISP[k], v)
	}
	var clientASes, agentASes []int
	for _, vs := range byISP {
		rng.Shuffle(len(vs), func(i, j int) { vs[i], vs[j] = vs[j], vs[i] })
		nc, na := sz.clientASes/sz.isps, sz.agentASes/sz.isps
		clientASes = append(clientASes, vs[:nc]...)
		agentASes = append(agentASes, vs[nc:nc+na]...)
	}
	for i := 0; i < sz.clients+sz.agents; i++ {
		node := clientASes[i%len(clientASes)]
		if i >= sz.clients {
			node = agentASes[i%len(agentASes)]
		}
		h, err := net.AttachHost(node)
		if err != nil {
			return nil, err
		}
		phase := sim.Time(rng.Intn(int(sim.Second / sim.Time(sz.clientPPS))))
		if i < sz.clients {
			src := h.Addr
			sources = append(sources, h.StartCBR(phase, sz.clientPPS, func(uint64) *packet.Packet {
				pkt := net.GetPacket()
				pkt.Src, pkt.Dst, pkt.Proto, pkt.DstPort = src, victimAddr, packet.TCP, 80
				pkt.Size, pkt.Kind = 400, packet.KindLegit
				return pkt
			}))
			continue
		}
		refl := reflAddrs[i%len(reflAddrs)]
		sources = append(sources, h.StartCBR(phase, sz.agentPPS, func(uint64) *packet.Packet {
			pkt := net.GetPacket()
			pkt.Src, pkt.Dst, pkt.Proto, pkt.DstPort = victimAddr, refl, packet.UDP, 53
			pkt.Size, pkt.Kind = 250, packet.KindAttack
			return pkt
		}))
	}
	tr.end()
	tr.wrapHooks(net, allNodes(g.Len()))
	p.setupS = time.Since(t0).Seconds() // t0: start of topology build
	p.peakHeap = liveHeap()

	tr.begin("sim.run")
	t1 := time.Now()
	w.Sim.AfterFunc(sz.window, func(sim.Time) {
		for _, s := range sources {
			s.Stop()
		}
	})
	if _, err := w.Sim.RunAll(); err != nil {
		return nil, err
	}
	p.runS = time.Since(t1).Seconds()
	tr.end()
	p.peakHeap = max(p.peakHeap, liveHeap())

	tr.begin("tcsp.counters")
	results, err := user.Control(&nms.ControlRequest{Op: "counters", Stage: "dest"}, victimISP)
	tr.end()
	if err != nil {
		return nil, fmt.Errorf("counters: %w", err)
	}
	var processed, discarded uint64
	for _, r := range results {
		for _, c := range r.Counters {
			processed += c.Processed
			discarded += c.Discarded
		}
	}
	p.stats = *net.Stats
	p.fired = w.Sim.Fired()
	st := sub.Routes.Stats()
	p.builds, p.hits = int(st.Builds), st.Hits
	p.detail = fmt.Sprintf("served %v counters %d/%d", victim.Served, processed, discarded)
	p.layers = map[string]float64{"topology.build_s": topologyS}
	checkDataplane(o, &p.stats, victim.Served, processed, discarded)
	return p, nil
}

func allNodes(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// checkDataplane applies the output checks one repetition must pass.
func checkDataplane(o *outcome, s *netsim.Stats, served [5]uint64, processed, discarded uint64) {
	checkConserved(o, "packet_dataplane", s)
	o.check(served[packet.KindLegit] > 0, "packet_dataplane: the victim served no legitimate requests")
	o.check(s.Delivered[packet.KindReflect].Packets > 0, "packet_dataplane: no reflected packets reached the victim")
	o.check(s.DropTotal(netsim.DropFilter) > 0, "packet_dataplane: the deployed services dropped nothing")
	o.check(processed > 0 && discarded > 0, "packet_dataplane: the victim's counters (%d processed, %d discarded) do not reflect the traffic", processed, discarded)
}

func runDataplane(cfg runConfig) (*outcome, error) {
	sz := dataplaneSizesFor(cfg.Quick)
	return runSimWorkload(cfg, "packet_dataplane", func(tr *tracer, o *outcome) (*simRep, error) {
		return dataplaneRep(cfg.Seed, sz, tr, o)
	})
}
