package experiment

import (
	"fmt"
	"time"

	"dtc/internal/attack"
	"dtc/internal/baseline"
	"dtc/internal/device"
	"dtc/internal/device/modules"
	"dtc/internal/metrics"
	"dtc/internal/netsim"
	"dtc/internal/nms"
	"dtc/internal/packet"
	"dtc/internal/service"
	"dtc/internal/sim"
	"dtc/internal/sweep"
	"dtc/internal/topology"

	root "dtc"
)

func init() {
	register("e5", "§5.3: scalability — device throughput vs installed rules; rules scale with subscribers not hosts", runE5)
	register("e6", "§4.5: safety invariants — every forbidden mutation caught, reverted and quarantined; monitor overhead", runE6)
	register("e7", "§4.4: traceback — infrastructure SPIE names reflectors; owner-scoped SPIE recovers the true agents", runE7)
	register("e8", "§2.1/§4.3: protocol-misuse (RST/ICMP teardown) filtered by the owner's shield", runE8)
	register("e9", "§4.4: automated reaction — trigger detection delay and victim recovery", runE9)
}

// runE5 validates the scalability argument of §5.3: per-packet dispatch is
// a longest-prefix match, so throughput stays roughly flat as subscribers
// (and their prefix bindings) grow, and the rule count tracks subscribers,
// not hosts.
func runE5(opts Options) (*metrics.Table, error) {
	tbl := metrics.NewTable(
		"E5: adaptive-device scalability vs subscriber count",
		"subscribers", "bound_prefixes", "pkts", "Mpkts_per_sec", "ns_per_pkt")

	n := 300000
	subsList := []int{10, 100, 1000, 10000}
	if opts.Quick {
		n = 60000
		subsList = []int{10, 1000}
	}
	// Runs on the sweep runner for uniformity, but pinned to one worker:
	// the measurement is wall-clock throughput, and concurrent points would
	// contend for the CPU and corrupt each other's timings.
	type e5Row struct {
		mpps, nsPerPkt float64
	}
	rows, err := sweep.Run(len(subsList), 1, opts.Seed, func(pi int, _ *sim.RNG) (e5Row, error) {
		subs := subsList[pi]
		reg := modules.NewRegistry()
		rng := sim.NewRNG(opts.Seed)
		dev := device.New(0, reg, rng.Fork())
		for u := 0; u < subs; u++ {
			owner := fmt.Sprintf("user%d", u)
			pfx := packet.MakePrefix(packet.Addr(uint32(u)<<12), 20)
			if err := dev.BindOwner(pfx, owner); err != nil {
				return e5Row{}, err
			}
			g := device.Chain("fw", &modules.Filter{Label: "f", Rules: []modules.Match{{DstPort: 666}}})
			if err := dev.Install(owner, device.StageDest, g); err != nil {
				return e5Row{}, err
			}
		}
		pkts := make([]*packet.Packet, 1024)
		for i := range pkts {
			pkts[i] = &packet.Packet{
				Src:  packet.Addr(rng.Uint32()),
				Dst:  packet.Addr(uint32(rng.Intn(subs))<<12 | rng.Uint32()&0xFFF),
				Size: 100, DstPort: uint16(rng.Intn(1000)),
			}
		}
		// Each point is the fastest of three passes over the same packets:
		// scheduling noise only ever slows a pass down, so the minimum is
		// the stable estimate (perfbench's run_s takes the fastest repetition
		// for the same reason).
		var wall time.Duration
		for pass := 0; pass < 3; pass++ {
			start := time.Now()
			for i := 0; i < n; i++ {
				p := *pkts[i%len(pkts)]
				dev.Process(0, &p, -1)
			}
			if d := time.Since(start); pass == 0 || d < wall {
				wall = d
			}
		}
		return e5Row{
			mpps:     float64(n) / wall.Seconds() / 1e6,
			nsPerPkt: float64(wall.Nanoseconds()) / float64(n),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, r := range rows {
		tbl.AddRow(subsList[i], subsList[i], n, r.mpps, r.nsPerPkt)
	}
	return tbl, nil
}

// violator is a deliberately non-compliant component used by E6.
type violator struct {
	label  string
	mutate func(*packet.Packet)
}

func (v *violator) Name() string { return v.label }
func (v *violator) Type() string { return "e6-violator" }
func (v *violator) Ports() int   { return 1 }
func (v *violator) Process(p *packet.Packet, _ *device.Env) (int, device.Result) {
	v.mutate(p)
	return 0, device.Forward
}

// runE6 audits the §4.5 safety rules: a hostile service module attempting
// each forbidden mutation is caught on the first packet, the packet is
// restored, and the service is quarantined. The last rows measure the
// runtime monitor's overhead.
func runE6(opts Options) (*metrics.Table, error) {
	tbl := metrics.NewTable(
		"E6: safety-rule enforcement audit",
		"attempt", "caught", "packet_restored", "service_quarantined", "foreign_traffic_touched")

	attempts := []struct {
		name   string
		mutate func(*packet.Packet)
	}{
		{"rewrite source address", func(p *packet.Packet) { p.Src ^= 0xFFFF }},
		{"rewrite destination (reroute)", func(p *packet.Packet) { p.Dst ^= 0xFFFF }},
		{"raise TTL (resource cap bypass)", func(p *packet.Packet) { p.TTL = 255 }},
		{"grow packet (amplification)", func(p *packet.Packet) { p.Size *= 10 }},
		{"inflate payload beyond size", func(p *packet.Packet) { p.Payload = make([]byte, p.Size) }},
	}
	for _, a := range attempts {
		reg := modules.NewRegistry()
		if err := reg.Register(device.Manifest{Type: "e6-violator", MayModifyPayload: true, SecurityChecked: true}); err != nil {
			return nil, err
		}
		dev := device.New(0, reg, sim.NewRNG(opts.Seed).Fork())
		if err := dev.BindOwner(packet.MustParsePrefix("10.0.0.0/8"), "mallory"); err != nil {
			return nil, err
		}
		g := device.Chain("evil", &violator{label: a.name, mutate: a.mutate})
		if err := dev.Install("mallory", device.StageSource, g); err != nil {
			return nil, err
		}
		owned := &packet.Packet{Src: packet.MustParseAddr("10.1.2.3"), Dst: packet.MustParseAddr("20.0.0.1"), TTL: 60, Size: 100}
		want := *owned
		dev.Process(0, owned, -1)
		restored := owned.Src == want.Src && owned.Dst == want.Dst && owned.TTL == want.TTL && owned.Size == want.Size

		foreign := &packet.Packet{Src: packet.MustParseAddr("30.0.0.1"), Dst: packet.MustParseAddr("20.0.0.1"), TTL: 60, Size: 100}
		wantF := *foreign
		dev.Process(0, foreign, -1)
		foreignTouched := foreign.Src != wantF.Src || foreign.Dst != wantF.Dst ||
			foreign.TTL != wantF.TTL || foreign.Size != wantF.Size || len(foreign.Payload) != 0

		st := dev.Stats()
		tbl.AddRow(a.name, st.Violations > 0, restored, dev.Quarantined("mallory", device.StageSource), foreignTouched)
	}

	// Monitor overhead: fast path vs redirected path with a benign graph.
	n := 200000
	if opts.Quick {
		n = 40000
	}
	timePath := func(bind bool) float64 {
		reg := modules.NewRegistry()
		dev := device.New(0, reg, sim.NewRNG(opts.Seed).Fork())
		if bind {
			if err := dev.BindOwner(packet.MustParsePrefix("10.0.0.0/8"), "acme"); err != nil {
				return 0
			}
			g := device.Chain("st", modules.NewStats("st"))
			if err := dev.Install("acme", device.StageDest, g); err != nil {
				return 0
			}
		}
		p := &packet.Packet{Src: packet.MustParseAddr("30.0.0.1"), Dst: packet.MustParseAddr("10.0.0.1"), TTL: 60, Size: 100}
		start := time.Now()
		for i := 0; i < n; i++ {
			q := *p
			dev.Process(0, &q, -1)
		}
		return float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	tbl.AddRow(fmt.Sprintf("overhead: fast path %.0f ns/pkt, monitored stage %.0f ns/pkt", timePath(false), timePath(true)),
		"-", "-", "-", "-")
	return tbl, nil
}

// runE7 compares traceback outcomes on the reflector attack (§3.1 and
// §4.4): operator SPIE traces the packets the victim receives — and names
// the reflectors; the owner-scoped SPIE service records the *forged
// requests* (owned via their spoofed source) and recovers the true agent
// stubs.
func runE7(opts Options) (*metrics.Table, error) {
	tbl := metrics.NewTable(
		"E7: traceback on a reflector attack",
		"method", "queried_packet", "identified_nodes", "agents_named", "reflectors_named")

	s := sim.New(opts.Seed)
	g, err := topology.TransitStub(4, 5, 0.2, s.RNG())
	if err != nil {
		return nil, err
	}
	w, err := root.NewWorld(root.WorldConfig{Topology: g, Seed: opts.Seed})
	if err != nil {
		return nil, err
	}
	stubs := g.Stubs()
	victimNode := stubs[0]
	user, err := w.NewUser("victim", netsim.NodePrefix(victimNode))
	if err != nil {
		return nil, err
	}
	// Operator-wide SPIE infrastructure.
	infra := baseline.NewSPIEInfrastructure(w.Net, nil, 100*sim.Millisecond, 64, 1<<18)
	// Owner-scoped SPIE: records packets owned by the victim (including
	// forged requests claiming the victim's source), in the source stage.
	if _, err := user.Deploy(service.Traceback("tb", 100, 64, uint64(opts.Seed)), nil, nms.Scope{}); err != nil {
		return nil, err
	}
	tb := service.Traceback("tb-src", 100, 64, uint64(opts.Seed)+1)
	tb.Stage = "source"
	if _, err := user.Deploy(tb, nil, nms.Scope{}); err != nil {
		return nil, err
	}

	victim, err := w.Net.AttachHost(victimNode)
	if err != nil {
		return nil, err
	}
	reflNodes := stubs[1:4]
	reflectors, err := attack.NewReflectorFleet(w.Net, reflNodes, attack.ReflectWeb, 10*sim.Microsecond, 4096)
	if err != nil {
		return nil, err
	}
	agentNodes := stubs[4:8]
	b, err := attack.NewBotnet(w.Net, stubs[8], []int{stubs[9]}, agentNodes, 4)
	if err != nil {
		return nil, err
	}
	// Capture samples: one reflected reply at the victim, one forged
	// request at a reflector.
	var reply, request *packet.Packet
	var replyAt, requestAt sim.Time
	victim.Recv = func(now sim.Time, p *packet.Packet) {
		if reply == nil && p.Kind == packet.KindReflect {
			reply, replyAt = p.Clone(), now
		}
	}
	reflHost := reflectors[0].Server.Host
	prevServe := reflectors[0].Server.OnServe
	reflectors[0].Server.OnServe = func(now sim.Time, p *packet.Packet) {
		if request == nil && p.Kind == packet.KindAttack {
			request, requestAt = p.Clone(), now
		}
		prevServe(now, p)
	}
	if err := b.LaunchReflectorAttack(0, reflectors, attack.ReflectWeb, victim.Addr, 500, 100*sim.Millisecond); err != nil {
		return nil, err
	}
	if _, err := w.Sim.Run(200 * sim.Millisecond); err != nil {
		return nil, err
	}
	if reply == nil || request == nil {
		return nil, fmt.Errorf("e7: attack samples not captured")
	}
	agentSet := map[int]bool{}
	for _, a := range b.Agents {
		agentSet[a.Node] = true
	}
	reflSet := map[int]bool{}
	for _, r := range reflectors {
		reflSet[r.Server.Host.Node] = true
	}
	classify := func(nodes []int) (agents, refls int) {
		for _, n := range nodes {
			if agentSet[n] {
				agents++
			}
			if reflSet[n] {
				refls++
			}
		}
		return
	}

	// Method 1: operator SPIE on the packet the victim actually received.
	origin, _, ok := infra.TraceOrigin(reply, replyAt, victimNode)
	m1Nodes := []int{}
	if ok {
		m1Nodes = []int{origin}
	}
	a1, r1 := classify(m1Nodes)
	tbl.AddRow("operator SPIE on received reply", "reflector SYN-ACK", fmt.Sprintf("%v", m1Nodes), a1, r1)

	// Method 2: operator SPIE on the forged request (requires the sample
	// from the reflector — possible because SPIE stores digests
	// everywhere).
	origin2, _, ok2 := infra.TraceOrigin(request, requestAt, reflHost.Node)
	m2Nodes := []int{}
	if ok2 {
		m2Nodes = []int{origin2}
	}
	a2, r2 := classify(m2Nodes)
	tbl.AddRow("operator SPIE on forged request", "spoofed SYN", fmt.Sprintf("%v", m2Nodes), a2, r2)

	// Method 3: the owner's source-stage SPIE service — every device that
	// carried a packet claiming the victim's source has a digest. Query
	// all devices for the forged request.
	var ownNodes []int
	for _, m := range w.ISPs {
		for _, node := range m.Nodes() {
			comp, ok := m.Component("victim", device.StageSource, node, "spie")
			if !ok {
				continue
			}
			sp := comp.(*modules.SPIE)
			if seen, _ := sp.Query(request, requestAt); seen {
				ownNodes = append(ownNodes, node)
			}
		}
	}
	a3, r3 := classify(ownNodes)
	tbl.AddRow("owner SPIE service (source stage)", "spoofed SYN", fmt.Sprintf("%d nodes incl. agent stubs", len(ownNodes)), a3, r3)
	return tbl, nil
}

// runE8 measures the protocol-misuse defense: forged RST and ICMP
// unreachable packets tear down long-lived TCP sessions unless the
// destination owner deploys the shield.
func runE8(opts Options) (*metrics.Table, error) {
	tbl := metrics.NewTable(
		"E8: forged-teardown attacks on long-lived TCP sessions",
		"defense", "attack", "sessions", "torn_down", "data_delivered_%")

	run := func(defend bool, useICMP bool) error {
		w, err := root.NewWorld(root.WorldConfig{Topology: topology.Line(5), Seed: opts.Seed})
		if err != nil {
			return err
		}
		nSessions := 8
		user, err := w.NewUser("owner", netsim.NodePrefix(4))
		if err != nil {
			return err
		}
		if defend {
			if _, err := user.Deploy(service.ProtocolMisuseShield("shield"), nil, nms.Scope{}); err != nil {
				return err
			}
		}
		var sessions []*attack.TCPSession
		for i := 0; i < nSessions; i++ {
			sess, err := attack.NewTCPSession(w.Net, 0, 4)
			if err != nil {
				return err
			}
			sessions = append(sessions, sess)
			src := sess.StartData(0, 200)
			w.Sim.AfterFunc(200*sim.Millisecond, func(sim.Time) { src.Stop() })
		}
		agent, err := w.Net.AttachHost(2)
		if err != nil {
			return err
		}
		for _, sess := range sessions {
			attack.ForgeTeardown(agent, sess, 50*sim.Millisecond, useICMP)
		}
		if _, err := w.Sim.Run(400 * sim.Millisecond); err != nil {
			return err
		}
		torn := 0
		var data uint64
		for _, sess := range sessions {
			if sess.TornDown {
				torn++
			}
			data += sess.DataRecvd
		}
		// 200 pps for 200 ms = ~40 packets per session expected.
		expected := uint64(nSessions) * 40
		name := "none"
		if defend {
			name = "TCS shield"
		}
		kind := "forged RST"
		if useICMP {
			kind = "forged ICMP unreachable"
		}
		tbl.AddRow(name, kind, nSessions, torn, pct(data, expected))
		return nil
	}
	for _, defend := range []bool{false, true} {
		for _, icmp := range []bool{false, true} {
			if err := run(defend, icmp); err != nil {
				return nil, err
			}
		}
	}
	return tbl, nil
}

// runE9 measures the automated-reaction loop of §4.4: a trigger watches
// the owner's inbound rate and gates a rate limiter. Reported: detection
// delay after flood onset and the legitimate goodput with and without the
// reaction.
func runE9(opts Options) (*metrics.Table, error) {
	tbl := metrics.NewTable(
		"E9: automated reaction to a flood (trigger + gated rate limiter)",
		"threshold_pps", "detection_delay_ms", "legit_goodput_%", "attack_delivery_%", "trigger_cleared")

	thresholds := []uint64{50, 200, 800}
	if opts.Quick {
		thresholds = []uint64{200}
	}
	for _, thr := range thresholds {
		w, err := root.NewWorld(root.WorldConfig{Topology: topology.Line(4), Seed: opts.Seed})
		if err != nil {
			return nil, err
		}
		user, err := w.NewUser("victim", netsim.NodePrefix(3))
		if err != nil {
			return nil, err
		}
		// Window 50 ms; threshold is per window.
		winMS := int64(50)
		perWindow := thr * uint64(winMS) / 1000
		if perWindow < 2 {
			perWindow = 2
		}
		spec := service.AutoRateLimit("auto", service.MatchSpec{Proto: "udp"}, winMS, perWindow, 50, 10)
		if _, err := user.Deploy(spec, nil, nms.Scope{Nodes: []int{3}}); err != nil {
			return nil, err
		}
		victim, err := w.Net.AttachHost(3)
		if err != nil {
			return nil, err
		}
		legit, err := w.Net.AttachHost(0)
		if err != nil {
			return nil, err
		}
		agent, err := w.Net.AttachHost(1)
		if err != nil {
			return nil, err
		}
		lg := legit.StartCBR(0, 100, func(uint64) *packet.Packet {
			return &packet.Packet{Src: legit.Addr, Dst: victim.Addr, Proto: packet.TCP, DstPort: 80, Size: 200, Kind: packet.KindLegit}
		})
		onset := 100 * sim.Millisecond
		var atk *netsim.Source
		w.Sim.At(onset, sim.EventFunc(func(now sim.Time) {
			atk = agent.StartCBR(now, 2000, func(uint64) *packet.Packet {
				return &packet.Packet{Src: agent.Addr, Dst: victim.Addr, Proto: packet.UDP, DstPort: 9, Size: 400, Kind: packet.KindAttack}
			})
		}))
		attackEnd := 400 * sim.Millisecond
		dur := 600 * sim.Millisecond
		w.Sim.AfterFunc(attackEnd, func(sim.Time) { atk.Stop() })
		w.Sim.AfterFunc(dur, func(sim.Time) { lg.Stop(); w.Sim.Stop() })
		if _, err := w.Sim.Run(2 * dur); err != nil {
			return nil, err
		}
		events, err := user.Events()
		if err != nil {
			return nil, err
		}
		detect := -1.0
		cleared := false
		for _, e := range events {
			if detect < 0 && e.Component == "detect" && e.AtNanos >= int64(onset) {
				detect = float64(e.AtNanos-int64(onset)) / 1e6
			}
			if e.Message == "trigger cleared" {
				cleared = true
			}
		}
		tbl.AddRow(thr, detect,
			pct(victim.Delivered[packet.KindLegit], lg.Sent()),
			pct(victim.Delivered[packet.KindAttack], atk.Sent()),
			cleared)
	}
	return tbl, nil
}
