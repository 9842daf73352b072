package experiment

import (
	"fmt"

	"dtc/internal/hybrid"
	"dtc/internal/metrics"
	"dtc/internal/netsim"
	"dtc/internal/packet"
	"dtc/internal/sim"
	"dtc/internal/sweep"
	"dtc/internal/topology"
)

func init() {
	register("e15", "hybrid fluid/packet substrate: full-size reflector-defense sweep on the victim cone (§5.3 scale, packet detail where it matters)", runE15)
}

// e15Aux is the per-substrate precomputation every sweep point reads: the
// sealed SoA client table (shared, immutable — this is the memory story:
// one ~20 B/client table serves every point and worker), the cast of the
// scenario and the deployment ranking.
type e15Aux struct {
	clients    *hybrid.Clients
	victim     int
	reflectors []int
	byDegree   []int
	attackRate float64 // aggregate unscaled agent rate, pps
	legitRate  float64 // aggregate legitimate client rate, pps
}

// e15Sizes returns the scenario dimensions.
func e15Sizes(opts Options) (nNodes, perStub, agentEvery int) {
	if opts.Quick {
		return 400, 3, 5
	}
	return 18000, 90, 7
}

// runE15 is the reflector-defense deployment sweep on the hybrid
// substrate: an 18k-AS topology carrying over a million modeled stub
// clients as fluid flows, with packet-level detail only inside the
// victim's routing cone and along the reflector fan-in. Attack agents
// spoof the victim's address at a set of reflector services; the sweep
// varies uRPF deployment fraction and attack intensity. With
// opts.PacketOnly (Quick only) the same scenario runs all-packet as the
// equivalence reference.
func runE15(opts Options) (*metrics.Table, error) {
	if opts.PacketOnly && !opts.Quick {
		return nil, fmt.Errorf("e15: the all-packet reference materializes every client as a host; run it with -quick")
	}
	tbl := metrics.NewTable(
		"E15: reflector defense at Internet scale on the hybrid fluid/packet substrate",
		"mode", "ASes", "cone", "clients", "deploy_%", "attack_x",
		"cut_attack_%", "legit_goodput_%", "reflect_at_victim_pps", "victim_overload_%", "replies_%")

	nNodes, perStub, agentEvery := e15Sizes(opts)
	sub, err := e15Substrate(opts, nNodes, perStub, agentEvery)
	if err != nil {
		return nil, err
	}
	aux := sub.Aux.(*e15Aux)

	fractions := []float64{0, 0.10, 0.30}
	scales := []float64{1, 4}
	if opts.Quick {
		fractions = []float64{0, 0.30}
	}
	type point struct {
		f     float64
		scale float64
	}
	var pts []point
	for _, f := range fractions {
		for _, s := range scales {
			pts = append(pts, point{f, s})
		}
	}
	rows, err := sweep.Run(len(pts), opts.Workers, opts.Seed, func(i int, _ *sim.RNG) (e15Row, error) {
		return runE15Point(opts, sub, pts[i].f, pts[i].scale)
	})
	if err != nil {
		return nil, err
	}
	mode := "hybrid"
	if opts.PacketOnly {
		mode = "packet"
	}
	for i, r := range rows {
		tbl.AddRow(mode, nNodes, r.coneNodes, aux.clients.Len(), pts[i].f*100, pts[i].scale,
			r.cutAttackPct, r.goodputPct, r.reflectPPS, r.overloadPct, r.repliesPct)
	}
	return tbl, nil
}

// e15Substrate builds (or fetches) the shared scenario state: the graph,
// routing, address map and the sealed client table. Legitimate clients
// live on every stub AS except the victim; every agentEvery-th stub also
// hosts an attack agent spoofing the victim's address at one of the
// reflectors.
func e15Substrate(opts Options, nNodes, perStub, agentEvery int) (*sweep.Substrate, error) {
	key := sweep.Key{Name: fmt.Sprintf("e15/power-law/%d/%d/%d", nNodes, perStub, agentEvery), Seed: opts.Seed}
	return sweep.GetSubstrate(key, func() (*sweep.Substrate, error) {
		g, err := topology.BarabasiAlbert(nNodes, 2, sim.NewRNG(opts.Seed))
		if err != nil {
			return nil, err
		}
		sub := sweep.NewSubstrate(g)
		stubs := g.Stubs()
		if len(stubs) < 2 {
			return nil, fmt.Errorf("e15: topology has no stubs")
		}
		victim := stubs[0]
		nRefl := 8
		if opts.Quick {
			nRefl = 4
		}
		reflectors := append([]int(nil), g.NodesByDegree()[:nRefl]...)

		victimAddr := netsim.NodePrefix(victim).Nth(1)
		aux := &e15Aux{victim: victim, reflectors: reflectors, byDegree: g.NodesByDegree()}
		cl := hybrid.NewClients(g.Len())
		agent := 0
		for si, v := range stubs {
			if v == victim {
				continue
			}
			for k := 0; k < perStub; k++ {
				if _, err := cl.Add(v, hybrid.ClientSpec{
					Rate: 0.2, Size: 400, Kind: packet.KindLegit, Dst: victimAddr,
				}); err != nil {
					return nil, err
				}
				aux.legitRate += 0.2
			}
			if si%agentEvery == 0 {
				refl := reflectors[agent%len(reflectors)]
				agent++
				if _, err := cl.Add(v, hybrid.ClientSpec{
					Rate: 20, Size: 250, Kind: packet.KindAttack,
					Dst:   netsim.NodePrefix(refl).Nth(1),
					Spoof: victimAddr,
				}); err != nil {
					return nil, err
				}
				aux.attackRate += 20
			}
		}
		cl.Seal(g.Len())
		aux.clients = cl
		sub.Aux = aux
		return sub, nil
	})
}

type e15Row struct {
	coneNodes    int
	cutAttackPct float64
	goodputPct   float64
	reflectPPS   float64
	overloadPct  float64
	repliesPct   float64
}

// runE15Point runs one (deployment fraction, attack scale) cell: build
// the hybrid world over the shared substrate, attach the victim and
// reflector services, deploy uRPF over the top-degree ranking, emit for a
// one-second window and drain.
func runE15Point(opts Options, sub *sweep.Substrate, frac, scale float64) (e15Row, error) {
	aux := sub.Aux.(*e15Aux)
	g := sub.Graph
	radius := 2
	if opts.PacketOnly {
		radius = g.Len()
	}
	cfg := hybrid.Config{
		Graph:  g,
		Routes: sub.Routes,
		Owners: sub.Owners,
		Link:   netsim.LinkConfig{Bandwidth: 2.5e9, Delay: sim.Millisecond, QueueCap: 4096},
		Victim: aux.victim,
		Radius: radius,
		Focus:  aux.reflectors,
		Seed:   opts.Seed,
	}
	cfg.RateScale[packet.KindAttack] = scale
	w, err := hybrid.NewWorld(cfg, aux.clients)
	if err != nil {
		return e15Row{}, err
	}

	// The victim service: replies to legitimate requests, consumes
	// everything else (including the reflected flood that is the attack's
	// payload). Reflector services amplify 4x back at the spoofed source.
	vnet := w.NetOf(aux.victim)
	victim, err := w.Eng().NewServer(aux.victim, 3*sim.Microsecond, 256)
	if err != nil {
		return e15Row{}, err
	}
	victim.OnServe = func(now sim.Time, pkt *packet.Packet) {
		if pkt.Kind != packet.KindLegit {
			vnet.PutPacket(pkt)
			return
		}
		pkt.Src, pkt.Dst = pkt.Dst, pkt.Src
		pkt.Kind = packet.KindService
		pkt.TTL = packet.DefaultTTL
		victim.Host.Send(now, pkt)
	}
	victim.OnOverload = func(_ sim.Time, pkt *packet.Packet) { vnet.PutPacket(pkt) }
	for _, rn := range aux.reflectors {
		rnet := w.NetOf(rn)
		refl, err := w.Eng().NewServer(rn, 5*sim.Microsecond, 1024)
		if err != nil {
			return e15Row{}, err
		}
		r := refl
		refl.OnServe = func(now sim.Time, pkt *packet.Packet) {
			if pkt.Kind != packet.KindAttack {
				rnet.PutPacket(pkt)
				return
			}
			pkt.Src, pkt.Dst = pkt.Dst, pkt.Src
			pkt.Kind = packet.KindReflect
			pkt.Size = 4 * pkt.Size
			pkt.TTL = packet.DefaultTTL
			r.Host.Send(now, pkt)
		}
		refl.OnOverload = func(_ sim.Time, pkt *packet.Packet) { rnet.PutPacket(pkt) }
	}

	deploy := aux.byDegree[:int(frac*float64(g.Len()))]
	if err := w.Deploy(deploy); err != nil {
		return e15Row{}, err
	}
	window := sim.Second
	if opts.Quick {
		window = 200 * sim.Millisecond
	}
	if err := w.Start(0, window); err != nil {
		return e15Row{}, err
	}
	if _, err := w.Run(window + 100*sim.Millisecond); err != nil {
		return e15Row{}, err
	}

	emitted, _ := w.Emitted()
	received, _ := w.ClientReceived()
	secs := float64(window) / float64(sim.Second)
	var vDelivered uint64
	for _, k := range []packet.Kind{packet.KindLegit, packet.KindAttack, packet.KindReflect} {
		vDelivered += victim.Host.Delivered[k]
	}
	var vOverloaded uint64
	for _, n := range victim.Overloaded {
		vOverloaded += n
	}
	return e15Row{
		coneNodes:    w.Cone.Len(),
		cutAttackPct: 100 * ratio(w.FluidCutRate[packet.KindAttack], aux.attackRate*scale),
		goodputPct:   pct(victim.Served[packet.KindLegit], emitted[packet.KindLegit]),
		reflectPPS:   float64(victim.Host.Delivered[packet.KindReflect]) / secs,
		overloadPct:  pct(vOverloaded, vDelivered),
		repliesPct:   pct(received[packet.KindService], victim.Served[packet.KindLegit]),
	}, nil
}
