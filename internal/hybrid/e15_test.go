package hybrid

import (
	"sync"
	"testing"

	"dtc/internal/netsim"
	"dtc/internal/packet"
	"dtc/internal/routing"
	"dtc/internal/sim"
	"dtc/internal/topology"
)

// e15Quick is experiment e15's quick scenario, built the way
// internal/experiment builds it: a 400-AS power-law graph, three
// legitimate clients on every stub but the victim's, an attack agent on
// every fifth stub spoofing the victim at one of the four top-degree
// reflectors.
type e15Quick struct {
	g          *topology.Graph
	clients    *Clients
	victim     int
	reflectors []int
}

func newE15Quick(t *testing.T) *e15Quick {
	t.Helper()
	g := testGraph(t, 400, 42)
	stubs := g.Stubs()
	sc := &e15Quick{g: g, victim: stubs[0], reflectors: append([]int(nil), g.NodesByDegree()[:4]...)}
	victimAddr := netsim.NodePrefix(sc.victim).Nth(1)
	cl := NewClients(g.Len())
	agent := 0
	for si, v := range stubs {
		if v == sc.victim {
			continue
		}
		for k := 0; k < 3; k++ {
			if _, err := cl.Add(v, ClientSpec{Rate: 0.2, Size: 400, Kind: packet.KindLegit, Dst: victimAddr}); err != nil {
				t.Fatal(err)
			}
		}
		if si%5 == 0 {
			refl := sc.reflectors[agent%len(sc.reflectors)]
			agent++
			if _, err := cl.Add(v, ClientSpec{
				Rate: 20, Size: 250, Kind: packet.KindAttack,
				Dst: netsim.NodePrefix(refl).Nth(1), Spoof: victimAddr,
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	cl.Seal(g.Len())
	sc.clients = cl
	return sc
}

// run drives e15's six cells — uRPF over {0, 10, 30}% of the degree
// ranking × attack scale {1, 4} — over one shared routing source, calling
// prepare on each world before it starts.
func (sc *e15Quick) run(t *testing.T, routes routing.Source, prepare func(w *World, deploy []int)) {
	t.Helper()
	for _, frac := range []float64{0, 0.10, 0.30} {
		for _, scale := range []float64{1, 4} {
			cfg := Config{
				Graph:  sc.g,
				Routes: routes,
				Link:   netsim.LinkConfig{Bandwidth: 2.5e9, Delay: sim.Millisecond, QueueCap: 4096},
				Victim: sc.victim,
				Radius: 2,
				Focus:  sc.reflectors,
				Seed:   42,
			}
			cfg.RateScale[packet.KindAttack] = scale
			w, err := NewWorld(cfg, sc.clients)
			if err != nil {
				t.Fatal(err)
			}
			nt := w.NetOf(sc.victim)
			victim, err := w.Eng().NewServer(sc.victim, 3*sim.Microsecond, 256)
			if err != nil {
				t.Fatal(err)
			}
			victim.OnServe = func(now sim.Time, pkt *packet.Packet) {
				if pkt.Kind != packet.KindLegit {
					nt.PutPacket(pkt)
					return
				}
				pkt.Src, pkt.Dst = pkt.Dst, pkt.Src
				pkt.Kind = packet.KindService
				pkt.TTL = packet.DefaultTTL
				victim.Host.Send(now, pkt)
			}
			victim.OnOverload = func(_ sim.Time, pkt *packet.Packet) { nt.PutPacket(pkt) }
			for _, rn := range sc.reflectors {
				refl, err := w.Eng().NewServer(rn, 5*sim.Microsecond, 1024)
				if err != nil {
					t.Fatal(err)
				}
				r := refl
				refl.OnServe = func(now sim.Time, pkt *packet.Packet) {
					if pkt.Kind != packet.KindAttack {
						nt.PutPacket(pkt)
						return
					}
					pkt.Src, pkt.Dst = pkt.Dst, pkt.Src
					pkt.Kind = packet.KindReflect
					pkt.Size *= 4
					pkt.TTL = packet.DefaultTTL
					r.Host.Send(now, pkt)
				}
				refl.OnOverload = func(_ sim.Time, pkt *packet.Packet) { nt.PutPacket(pkt) }
			}
			deploy := sc.g.NodesByDegree()[:int(frac*float64(sc.g.Len()))]
			if err := w.Deploy(deploy); err != nil {
				t.Fatal(err)
			}
			if prepare != nil {
				prepare(w, deploy)
			}
			window := 200 * sim.Millisecond
			if err := w.Start(0, window); err != nil {
				t.Fatal(err)
			}
			if _, err := w.Run(window + 100*sim.Millisecond); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// fateOracle wraps a shell node's absorber and, for every packet it
// absorbs, walks the rest of the packet's path the way the absorber did
// before it trusted reachability: along the destination's full tree, with
// the per-hop reverse-path check of every out-of-cone (fluid, edge-only)
// filter applied to the packet's origin.
type fateOracle struct {
	netsim.Hook
	w        *World
	node     int
	routes   routing.Source // a separate cache: full trees are fine here
	deployed []bool         // out-of-cone filters
	absorbed *int
	t        *testing.T
}

func (o *fateOracle) Process(now sim.Time, pkt *packet.Packet, ctx netsim.HookContext) netsim.Verdict {
	if ctx.From != netsim.Local && o.w.Cone.Contains(ctx.From) {
		*o.absorbed++
		if !o.delivered(pkt, ctx.From) {
			o.t.Errorf("absorbed %v packet %d->%v at shell node %d (from %d): the full fate walk drops it",
				pkt.Kind, pkt.Origin, pkt.Dst, o.node, ctx.From)
		}
	}
	return o.Hook.Process(now, pkt, ctx)
}

func (o *fateOracle) delivered(pkt *packet.Packet, from int) bool {
	dst, ok := o.w.nodeOfAddr(pkt.Dst)
	if !ok {
		return false
	}
	tr, err := o.routes.TreeTo(dst)
	if err != nil {
		return false
	}
	g := o.w.Cfg.Graph
	prev, at := from, o.node
	for hops := 0; hops <= g.Len(); hops++ {
		if at != dst && tr.Next[at] == routing.NoRoute {
			return false
		}
		if o.deployed[at] && g.Nodes[prev].Role != topology.RoleTransit &&
			!o.routes.FeasibleIngress(at, prev, pkt.Origin) {
			return false
		}
		if at == dst {
			return true
		}
		prev, at = at, int(tr.Next[at])
	}
	return false
}

// TestE15QuickAbsorbedPacketsPassFullFateWalk is the oracle for the
// absorber's "absorbed means delivered": over e15's six quick cells, the
// full per-hop filter walk the absorber used to run says delivered for
// every packet that leaves the cone.
func TestE15QuickAbsorbedPacketsPassFullFateWalk(t *testing.T) {
	sc := newE15Quick(t)
	oracleRoutes := routing.NewShared(sc.g, nil)
	absorbed := 0
	var worlds []*World
	sc.run(t, routing.NewShared(sc.g, nil), func(w *World, deploy []int) {
		worlds = append(worlds, w)
		deployed := make([]bool, sc.g.Len())
		for _, n := range deploy {
			deployed[n] = !w.Cone.Contains(n)
		}
		for _, s := range w.Cone.Shell {
			hooks := w.net.Hooks(s)
			for i, h := range hooks {
				if _, ok := h.(*Absorber); ok {
					hooks[i] = &fateOracle{Hook: h, w: w, node: s, routes: oracleRoutes, deployed: deployed, absorbed: &absorbed, t: t}
				}
			}
		}
	})
	var counted uint64
	for _, w := range worlds {
		for _, a := range w.Absorbers {
			for _, n := range a.DeliveredPkts {
				counted += n
			}
		}
	}
	if absorbed == 0 {
		t.Fatal("no packet left the cone; the oracle checked nothing")
	}
	t.Logf("%d absorbed packets checked", absorbed)
	if counted != uint64(absorbed) {
		t.Fatalf("absorbers counted %d delivered packets, the oracle saw %d absorbed", counted, absorbed)
	}
}

// treeLog is a routing source that records every destination a full
// tree is asked for — through TreeTo, or through the NextHop and
// FeasibleIngress calls a full-tree cache answers from one — and wraps
// the views it hands out, whose only full-tree call is TreeTo. It embeds
// routing.Source the way perfbench's tracer does.
type treeLog struct {
	routing.Source
	view bool
	mu   *sync.Mutex
	dsts map[int]bool
}

func (l *treeLog) note(dst int) {
	l.mu.Lock()
	l.dsts[dst] = true
	l.mu.Unlock()
}

func (l *treeLog) TreeTo(dst int) (*routing.Tree, error) {
	l.note(dst)
	return l.Source.TreeTo(dst)
}

func (l *treeLog) NextHop(cur, dst int) (int, bool) {
	if !l.view {
		l.note(dst)
	}
	return l.Source.NextHop(cur, dst)
}

func (l *treeLog) FeasibleIngress(at, from, src int) bool {
	if !l.view {
		l.note(src)
	}
	return l.Source.FeasibleIngress(at, from, src)
}

func (l *treeLog) View(nodes []int) routing.Source {
	return &treeLog{Source: l.Source.View(nodes), view: true, mu: l.mu, dsts: l.dsts}
}

// TestE15QuickFullTreesOnlyTowardCone pins the hybrid world's memory
// invariant: across e15's six quick cells, full shortest-path trees are
// only ever asked for toward in-cone destinations (the victim and the
// reflectors), never toward the client ASes replies go to — those are
// served by the cone's restricted view. Each such tree costs a graph's
// worth of state; at 18k ASes one per client AS was ~3 GB.
func TestE15QuickFullTreesOnlyTowardCone(t *testing.T) {
	sc := newE15Quick(t)
	log := &treeLog{Source: routing.NewShared(sc.g, nil), mu: &sync.Mutex{}, dsts: map[int]bool{}}
	var cone *Cone
	sc.run(t, log, func(w *World, _ []int) { cone = w.Cone })
	if len(log.dsts) == 0 {
		t.Fatal("no tree was asked for; the log is not wired in")
	}
	t.Logf("full trees asked for toward %d destinations, %d builds", len(log.dsts), log.Stats().Builds)
	for d := range log.dsts {
		if !cone.Contains(d) {
			t.Errorf("full tree asked for toward out-of-cone node %d", d)
		}
	}
	if st := log.Stats(); st.Builds >= uint64(sc.g.Len()) {
		t.Errorf("%d builds for a %d-node graph: destinations are built more than once", st.Builds, sc.g.Len())
	}
}

// spoofing returns the scenario with every attack agent forging node's
// address instead of the victim's.
func (sc *e15Quick) spoofing(t *testing.T, node int) *e15Quick {
	t.Helper()
	cl := NewClients(sc.g.Len())
	for i := 0; i < sc.clients.Len(); i++ {
		spec := sc.clients.Spec(i)
		if spec.Spoof != 0 {
			spec.Spoof = netsim.NodePrefix(node).Nth(1)
		}
		if _, err := cl.Add(sc.clients.Node(i), spec); err != nil {
			t.Fatal(err)
		}
	}
	cl.Seal(sc.g.Len())
	out := *sc
	out.clients = cl
	return &out
}

// rowLog is a routing source that hands every world a view recording
// what happens to that world's cone rows: the destinations Prebuild
// warmed, the armed members' source and destination nodes at that moment,
// and every destination the event loop then reads.
type rowLog struct {
	routing.Source
	cells []*rowCell
}

// rowCell is one world's record; w is set before the world starts.
type rowCell struct {
	w                    *World
	warmCalls            int
	warmed, armed, asked map[int]bool
}

type rowView struct {
	routing.Source
	c *rowCell
}

func (l *rowLog) View(nodes []int) routing.Source {
	c := &rowCell{warmed: map[int]bool{}, armed: map[int]bool{}, asked: map[int]bool{}}
	l.cells = append(l.cells, c)
	return &rowView{Source: l.Source.View(nodes), c: c}
}

func (v *rowView) Prebuild(dsts []int, workers int) error {
	c := v.c
	c.warmCalls++
	for _, d := range dsts {
		c.warmed[d] = true
	}
	// Run warms before the first event fires: the injector heaps hold
	// exactly the members arming scheduled.
	for _, inj := range c.w.Injectors {
		for _, s := range inj.heap {
			m := int(inj.members[s])
			spec := c.w.Clients.Spec(m)
			src := spec.Spoof
			if src == 0 {
				src = c.w.Clients.Addr(m)
			}
			for _, a := range []packet.Addr{src, spec.Dst} {
				if n, ok := c.w.nodeOfAddr(a); ok {
					c.armed[n] = true
				}
			}
		}
	}
	return v.Source.Prebuild(dsts, workers)
}

func (v *rowView) NextHop(cur, dst int) (int, bool) {
	v.c.asked[dst] = true
	return v.Source.NextHop(cur, dst)
}

func (v *rowView) FeasibleIngress(at, from, src int) bool {
	v.c.asked[src] = true
	return v.Source.FeasibleIngress(at, from, src)
}

// TestE15QuickRunWarmsEveryRow pins World.Run's warm-up: in each of e15's
// six quick cells, Run prebuilds the cone rows once, every row the event
// loop then reads was among them, and it prebuilds nothing but armed
// members' source and destination nodes. It runs the cells twice: as e15
// has them, and with the agents spoofing a transit AS no client lives on,
// whose rows only the reflections back to a forged source read.
func TestE15QuickRunWarmsEveryRow(t *testing.T) {
	base := newE15Quick(t)
	bystander := -1
	for _, n := range base.g.NodesByDegree()[len(base.reflectors):] {
		if base.g.Nodes[n].Role != topology.RoleStub && n != base.victim {
			bystander = n
			break
		}
	}
	if bystander < 0 {
		t.Fatal("no transit AS to spoof")
	}
	for _, sc := range []*e15Quick{base, base.spoofing(t, bystander)} {
		log := &rowLog{Source: routing.NewShared(sc.g, nil)}
		sc.run(t, log, func(w *World, _ []int) { log.cells[len(log.cells)-1].w = w })
		if len(log.cells) != 6 {
			t.Fatalf("%d worlds asked for a cone view, want 6", len(log.cells))
		}
		askedBystander := false
		for i, c := range log.cells {
			if c.warmCalls != 1 {
				t.Errorf("cell %d: Run warmed the cone %d times, want once", i, c.warmCalls)
			}
			if len(c.asked) == 0 {
				t.Errorf("cell %d: the event loop read no row; the log is not wired in", i)
			}
			for d := range c.asked {
				if !c.warmed[d] {
					t.Errorf("cell %d: the event loop read row %d, which Run did not warm", i, d)
				}
			}
			for d := range c.warmed {
				if !c.armed[d] {
					t.Errorf("cell %d: Run warmed row %d, no armed member's source or destination", i, d)
				}
			}
			askedBystander = askedBystander || c.asked[bystander]
		}
		if sc != base && !askedBystander {
			t.Errorf("no cell read the spoofed bystander %d's row; the variant tests nothing", bystander)
		}
	}
}
