package main

import (
	"fmt"
	"math"
	"time"

	"dtc/internal/hybrid"
	"dtc/internal/netsim"
	"dtc/internal/packet"
	"dtc/internal/routing"
	"dtc/internal/sim"
	"dtc/internal/sweep"
	"dtc/internal/topology"
)

// hybrid_internet: the e15 reflector-defense scenario at full size,
// driven through internal/hybrid's public API with the same construction
// as internal/experiment's e15 (18k Barabási–Albert ASes, 90 legitimate
// clients per stub, an attack agent on every 7th stub spoofing the victim
// at the 8 highest-degree reflectors, 4x amplification, radius-2 cone,
// uRPF over the top-degree ranking, 1 s emission window). Every
// repetition builds a fresh substrate — topology, routing cache, address
// map and client table — and runs the whole six-cell sweep on it, cold
// routing cache included, with one worker.

type hybridSizes struct {
	nodes, perStub, agentEvery, reflectors int
	window                                 sim.Time
}

func hybridSizesFor(quick bool) hybridSizes {
	if quick {
		return hybridSizes{nodes: 400, perStub: 3, agentEvery: 5, reflectors: 4, window: 200 * sim.Millisecond}
	}
	return hybridSizes{nodes: 18000, perStub: 90, agentEvery: 7, reflectors: 8, window: sim.Second}
}

// hybridCell is one sweep point: uRPF deployment fraction × attack scale.
type hybridCell struct{ frac, scale float64 }

// hybridCells is e15's sweep in e15's order; the first cell runs on the
// cold routing cache.
var hybridCells = []hybridCell{{0, 1}, {0, 4}, {0.10, 1}, {0.10, 4}, {0.30, 1}, {0.30, 4}}

// hybridRow is the part of an e15 table row the output check compares.
type hybridRow struct {
	cone        int
	reflectPPS  float64
	goodputPct  float64
	overloadPct float64
	repliesPct  float64
}

// e15Seed42 is EXPERIMENTS.md's full-size e15 table at seed 42, cell by
// cell in hybridCells order.
var e15Seed42 = []hybridRow{
	{239, 41120, 100.0, 0.0, 100.0},
	{239, 164480, 75.3, 21.3, 100.0},
	{239, 6360, 100.0, 0.0, 100.0},
	{239, 25440, 100.0, 0.0, 100.0},
	{239, 740, 100.0, 0.0, 100.0},
	{239, 2960, 100.0, 0.0, 100.0},
}

// hybridScenario is the per-repetition substrate.
type hybridScenario struct {
	sub        *sweep.Substrate
	clients    *hybrid.Clients
	victim     int
	reflectors []int
	byDegree   []int
}

// hybridTimes accumulates one repetition's phase times in seconds.
type hybridTimes struct {
	topology, clients, newWorld, start, other, run float64
}

func buildHybridScenario(seed uint64, sz hybridSizes, ht *hybridTimes, tr *tracer) (*hybridScenario, error) {
	tr.begin("topology.build")
	t0 := time.Now()
	g, err := topology.BarabasiAlbert(sz.nodes, 2, sim.NewRNG(seed))
	ht.topology = time.Since(t0).Seconds()
	tr.end()
	if err != nil {
		return nil, err
	}
	tr.begin("substrate.build")
	t0 = time.Now()
	sc := &hybridScenario{sub: sweep.NewSubstrate(g), byDegree: g.NodesByDegree()}
	stubs := g.Stubs()
	ht.other += time.Since(t0).Seconds()
	tr.end()
	if len(stubs) < 2 {
		return nil, fmt.Errorf("hybrid_internet: topology has no stubs")
	}
	sc.victim = stubs[0]
	sc.reflectors = append([]int(nil), sc.byDegree[:sz.reflectors]...)

	tr.begin("hybrid.clients_build")
	t0 = time.Now()
	victimAddr := netsim.NodePrefix(sc.victim).Nth(1)
	cl := hybrid.NewClients(g.Len())
	agent := 0
	for si, v := range stubs {
		if v == sc.victim {
			continue
		}
		for k := 0; k < sz.perStub; k++ {
			if _, err := cl.Add(v, hybrid.ClientSpec{Rate: 0.2, Size: 400, Kind: packet.KindLegit, Dst: victimAddr}); err != nil {
				return nil, err
			}
		}
		if si%sz.agentEvery == 0 {
			refl := sc.reflectors[agent%len(sc.reflectors)]
			agent++
			if _, err := cl.Add(v, hybrid.ClientSpec{
				Rate: 20, Size: 250, Kind: packet.KindAttack,
				Dst: netsim.NodePrefix(refl).Nth(1), Spoof: victimAddr,
			}); err != nil {
				return nil, err
			}
		}
	}
	cl.Seal(g.Len())
	sc.clients = cl
	ht.clients = time.Since(t0).Seconds()
	tr.end()
	return sc, nil
}

// runHybridCell builds, runs and reads one cell's hybrid world, adding its
// packet accounting to rep.
func runHybridCell(sc *hybridScenario, routes routing.Source, sz hybridSizes, c hybridCell, seed uint64, ht *hybridTimes, rep *simRep, emittedTotal *uint64, tr *tracer) (hybridRow, error) {
	g := sc.sub.Graph
	cfg := hybrid.Config{
		Graph:  g,
		Routes: routes,
		Owners: sc.sub.Owners,
		Link:   netsim.LinkConfig{Bandwidth: 2.5e9, Delay: sim.Millisecond, QueueCap: 4096},
		Victim: sc.victim,
		Radius: 2,
		Focus:  sc.reflectors,
		Seed:   seed,
	}
	cfg.RateScale[packet.KindAttack] = c.scale

	tr.begin("hybrid.new_world")
	t0 := time.Now()
	w, err := hybrid.NewWorld(cfg, sc.clients)
	ht.newWorld += time.Since(t0).Seconds()
	tr.end()
	if err != nil {
		return hybridRow{}, err
	}

	// The victim service replies to legitimate requests and consumes
	// everything else; reflectors amplify 4x back at the spoofed source.
	tr.begin("hybrid.attach_deploy")
	t0 = time.Now()
	vnet := w.NetOf(sc.victim)
	victim, err := w.Eng().NewServer(sc.victim, 3*sim.Microsecond, 256)
	if err != nil {
		return hybridRow{}, err
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
	for _, rn := range sc.reflectors {
		rnet := w.NetOf(rn)
		refl, err := w.Eng().NewServer(rn, 5*sim.Microsecond, 1024)
		if err != nil {
			return hybridRow{}, err
		}
		refl.OnServe = func(now sim.Time, pkt *packet.Packet) {
			if pkt.Kind != packet.KindAttack {
				rnet.PutPacket(pkt)
				return
			}
			pkt.Src, pkt.Dst = pkt.Dst, pkt.Src
			pkt.Kind = packet.KindReflect
			pkt.Size = 4 * pkt.Size
			pkt.TTL = packet.DefaultTTL
			refl.Host.Send(now, pkt)
		}
		refl.OnOverload = func(_ sim.Time, pkt *packet.Packet) { rnet.PutPacket(pkt) }
	}
	if err := w.Deploy(sc.byDegree[:int(c.frac*float64(g.Len()))]); err != nil {
		return hybridRow{}, err
	}
	tr.wrapHooks(vnet, w.Cone.Nodes)
	tr.wrapHooks(vnet, w.Cone.Shell)
	ht.other += time.Since(t0).Seconds()
	tr.end()

	tr.begin("hybrid.start")
	t0 = time.Now()
	err = w.Start(0, sz.window)
	ht.start += time.Since(t0).Seconds()
	tr.end()
	if err != nil {
		return hybridRow{}, err
	}

	tr.begin("sim.run")
	t0 = time.Now()
	_, err = w.Run(sz.window + 100*sim.Millisecond)
	ht.run += time.Since(t0).Seconds()
	tr.end()
	if err != nil {
		return hybridRow{}, err
	}
	rep.peakHeap = max(rep.peakHeap, liveHeap())

	emitted, _ := w.Emitted()
	received, _ := w.ClientReceived()
	secs := float64(sz.window) / float64(sim.Second)
	var vDelivered, vOverloaded uint64
	for _, k := range []packet.Kind{packet.KindLegit, packet.KindAttack, packet.KindReflect} {
		vDelivered += victim.Host.Delivered[k]
	}
	for _, n := range victim.Overloaded {
		vOverloaded += n
	}
	rep.stats.Merge(w.Stats())
	rep.fired += w.Fired()
	for _, n := range emitted {
		*emittedTotal += n
	}
	return hybridRow{
		cone:        w.Cone.Len(),
		reflectPPS:  float64(victim.Host.Delivered[packet.KindReflect]) / secs,
		goodputPct:  pct(victim.Served[packet.KindLegit], emitted[packet.KindLegit]),
		overloadPct: pct(vOverloaded, vDelivered),
		repliesPct:  pct(received[packet.KindService], victim.Served[packet.KindLegit]),
	}, nil
}

func pct(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

// hybridRep is one repetition: fresh substrate, the whole sweep.
func hybridRep(seed uint64, sz hybridSizes, quick bool, tr *tracer, o *outcome) (*simRep, error) {
	tr.begin("hybrid_internet.rep")
	defer tr.end()
	var ht hybridTimes
	rep := &simRep{}
	sc, err := buildHybridScenario(seed, sz, &ht, tr)
	if err != nil {
		return nil, err
	}
	rep.peakHeap = liveHeap()
	// The cells share the substrate's routing cache, as e15's sweep does.
	routes := tr.routesFor(sc.sub.Routes, sc.sub.Graph.Len())
	var rows []hybridRow
	var emitted uint64
	for i, c := range hybridCells {
		tr.begin(fmt.Sprintf("cell%d", i))
		row, err := runHybridCell(sc, routes, sz, c, seed, &ht, rep, &emitted, tr)
		tr.end()
		if err != nil {
			return nil, fmt.Errorf("cell %d: %w", i, err)
		}
		rows = append(rows, row)
	}
	st := sc.sub.Routes.Stats()
	rep.builds, rep.hits = int(st.Builds), st.Hits
	rep.setupS = ht.topology + ht.clients + ht.newWorld + ht.start + ht.other
	rep.runS = ht.run
	rep.detail = fmt.Sprintf("%v %d", rows, emitted)
	rep.layers = map[string]float64{
		"topology.build_s":       ht.topology,
		"hybrid.clients_build_s": ht.clients,
		"hybrid.new_world_s":     ht.newWorld,
		"hybrid.start_s":         ht.start,
		"hybrid.emitted_pkts":    float64(emitted),
	}
	checkHybrid(o, rows, &rep.stats, emitted, seed, quick)
	return rep, nil
}

// checkHybrid applies the output checks one repetition must pass.
func checkHybrid(o *outcome, rows []hybridRow, stats *netsim.Stats, emitted uint64, seed uint64, quick bool) {
	o.check(len(rows) == len(hybridCells), "hybrid_internet: %d of %d cells ran", len(rows), len(hybridCells))
	o.check(emitted > 0, "hybrid_internet: the boundary emitted no packets")
	checkConserved(o, "hybrid_internet", stats)
	if seed == 42 && !quick {
		o.check(rowsMatch(rows, e15Seed42), "hybrid_internet: seed 42 rows %+v differ from EXPERIMENTS.md e15 %+v", rows, e15Seed42)
	}
}

// rowsMatch compares rows at the precision EXPERIMENTS.md prints.
func rowsMatch(got, want []hybridRow) bool {
	if len(got) != len(want) {
		return false
	}
	near := func(a, b float64) bool { return math.Abs(a-b) < 0.05+1e-9*math.Abs(b) }
	for i := range got {
		g, w := got[i], want[i]
		if g.cone != w.cone || g.reflectPPS != w.reflectPPS || !near(g.goodputPct, w.goodputPct) ||
			!near(g.overloadPct, w.overloadPct) || !near(g.repliesPct, w.repliesPct) {
			return false
		}
	}
	return true
}

func runHybrid(cfg runConfig) (*outcome, error) {
	sz := hybridSizesFor(cfg.Quick)
	return runSimWorkload(cfg, "hybrid_internet", func(tr *tracer, o *outcome) (*simRep, error) {
		return hybridRep(cfg.Seed, sz, cfg.Quick, tr, o)
	})
}
