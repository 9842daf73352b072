package experiment

import (
	"strconv"
	"time"

	"dtc/internal/device"
	"dtc/internal/device/modules"
	"dtc/internal/metrics"
	"dtc/internal/nms"
	"dtc/internal/ownership"
	"dtc/internal/packet"
	"dtc/internal/service"
	"dtc/internal/sim"
	"dtc/internal/sweep"
)

func init() {
	register("a1", "ablation: source-stage control vs destination-only defenses on the reflector attack", runA1)
	register("a2", "ablation: prefix-trie owner dispatch vs linear rule scan", runA2)
	register("a3", "ablation: conservative (transit-sparing) vs strict route-based anti-spoofing", runA3)
}

// runA1 ablates the paper's central design decision — control over
// packets carrying the owner's address as *source*. Without it, a
// reflector-attack victim can only act on traffic addressed *to* it
// (destination stage), i.e. rate limit or drop the backscatter after it
// has crossed the Internet and consumed the reflectors.
func runA1(opts Options) (*metrics.Table, error) {
	tbl := metrics.NewTable(
		"A1: why ownership covers the source stage",
		"design", "web_goodput_%", "dns_goodput_%", "backscatter@victim_%", "attack_byte_hops_MB")

	dur := 400 * sim.Millisecond
	rate := 1500.0
	if opts.Quick {
		dur, rate = 150*sim.Millisecond, 800
	}
	type cfg struct {
		name   string
		deploy func(sw *shootoutWorld) error
	}
	cfgs := []cfg{
		{"no defense", func(*shootoutWorld) error { return nil }},
		{"dest-only: rate limit backscatter", func(sw *shootoutWorld) error {
			// The victim's only lever without source ownership: limit
			// inbound DNS-looking traffic at its own edge.
			spec := service.RateLimit("rl", service.MatchSpec{Proto: "udp"}, 200, 20)
			_, err := sw.user.Deploy(spec, nil, nms.Scope{Nodes: []int{sw.victimNode}})
			return err
		}},
		{"two-stage: source anti-spoofing", func(sw *shootoutWorld) error {
			_, err := sw.user.Deploy(service.AntiSpoofing("as"), nil, nms.Scope{})
			return err
		}},
	}
	for _, c := range cfgs {
		sw, err := newShootout(opts)
		if err != nil {
			return nil, err
		}
		if err := c.deploy(sw); err != nil {
			return nil, err
		}
		web, dns, refl, err := sw.run(dur, rate)
		if err != nil {
			return nil, err
		}
		waste := float64(sw.w.Net.Stats.ByteHops[packet.KindAttack]+sw.w.Net.Stats.ByteHops[packet.KindReflect]) / 1e6
		tbl.AddRow(c.name, web, dns, refl, waste)
	}
	return tbl, nil
}

// runA2 ablates the owner-dispatch data structure (DESIGN.md §5.4): the
// pointer trie's longest-prefix match, the flattened compiled trie the
// device dispatches through, and a naive linear scan over bindings,
// measured at the rates the device sustains.
func runA2(opts Options) (*metrics.Table, error) {
	tbl := metrics.NewTable(
		"A2: owner dispatch — prefix trie vs compiled trie vs linear scan",
		"bindings", "structure", "lookups", "Mlookups_per_sec", "slowdown_vs_trie")

	n := 2000000
	sizes := []int{10, 100, 1000, 10000}
	if opts.Quick {
		n = 200000
		sizes = []int{10, 1000}
	}
	// On the sweep runner but pinned to one worker: wall-clock lookup rates
	// are the measurement, so points must not contend for the CPU.
	type a2Row struct {
		trieRate, compRate, linRate float64
		graphRate                   float64
		mismatch                    bool
	}
	rows, err := sweep.Run(len(sizes), 1, opts.Seed, func(pi int, _ *sim.RNG) (a2Row, error) {
		size := sizes[pi]
		prefixes := make([]packet.Prefix, size)
		var trie ownership.Trie[int]
		for i := 0; i < size; i++ {
			prefixes[i] = packet.MakePrefix(packet.Addr(uint32(i)<<12), 20)
			trie.Insert(prefixes[i], i)
		}
		rng := sim.NewRNG(opts.Seed)
		addrs := make([]packet.Addr, 1024)
		for i := range addrs {
			// Half the probes hit a binding, half miss.
			if i%2 == 0 {
				addrs[i] = packet.Addr(uint32(rng.Intn(size))<<12 | rng.Uint32()&0xFFF)
			} else {
				addrs[i] = packet.Addr(rng.Uint32() | 1<<31)
			}
		}

		start := time.Now()
		var hits int
		for i := 0; i < n; i++ {
			if _, ok := trie.Lookup(addrs[i%len(addrs)]); ok {
				hits++
			}
		}
		trieRate := float64(n) / time.Since(start).Seconds() / 1e6

		compiled := trie.Compiled()
		start = time.Now()
		var compHits int
		for i := 0; i < n; i++ {
			if _, ok := compiled.Lookup(addrs[i%len(addrs)]); ok {
				compHits++
			}
		}
		compRate := float64(n) / time.Since(start).Seconds() / 1e6

		start = time.Now()
		var linHits int
		for i := 0; i < n; i++ {
			a := addrs[i%len(addrs)]
			for j := range prefixes {
				if prefixes[j].Contains(a) {
					linHits++
					break
				}
			}
		}
		linRate := float64(n) / time.Since(start).Seconds() / 1e6

		// Graph execution on top of the same binding table: every packet
		// redirects through a two-stage service pair, putting the owner
		// dispatch in the context of a full device pass.
		gn := n / 10
		runGraphs := func() (float64, error) {
			dev := device.New(0, modules.NewRegistry(), sim.NewRNG(opts.Seed))
			if err := dev.BindOwner(prefixes[0], "src-own"); err != nil {
				return 0, err
			}
			srcG := device.Chain("a2-src",
				&modules.Filter{Label: "f", Rules: []modules.Match{{DstPort: 9}}},
				modules.NewStats("st", modules.Match{Proto: packet.UDP}))
			dstG := device.Chain("a2-dst",
				&modules.RateLimiter{Label: "rl", Rate: 1e9, Burst: 1e9})
			if err := dev.Install("src-own", device.StageSource, srcG); err != nil {
				return 0, err
			}
			if err := dev.Install("src-own", device.StageDest, dstG); err != nil {
				return 0, err
			}
			pkt := &packet.Packet{
				Src: prefixes[0].Nth(1), Dst: prefixes[0].Nth(2),
				Proto: packet.UDP, TTL: 64, Size: 128, DstPort: 53,
			}
			begin := time.Now()
			for i := 0; i < gn; i++ {
				dev.Process(sim.Time(i), pkt, 1)
			}
			return float64(gn) / time.Since(begin).Seconds() / 1e6, nil
		}
		graphRate, err := runGraphs()
		if err != nil {
			return a2Row{}, err
		}

		return a2Row{
			trieRate: trieRate, compRate: compRate, linRate: linRate,
			graphRate: graphRate,
			mismatch:  hits != linHits || hits != compHits,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, r := range rows {
		size := sizes[i]
		if r.mismatch {
			// All structures must agree; a mismatch is a bug, not noise.
			tbl.AddRow(size, "MISMATCH", n, 0.0, 0.0)
			continue
		}
		tbl.AddRow(size, "trie", n, r.trieRate, 1.0)
		tbl.AddRow(size, "compiled", n, r.compRate, ratio(r.trieRate, r.compRate))
		tbl.AddRow(size, "linear", n, r.linRate, ratio(r.trieRate, r.linRate))
		tbl.AddRow(size, "graph", n/10, r.graphRate, ratio(r.trieRate, r.graphRate))
	}
	return tbl, nil
}

// runA3 ablates the transit-sparing rule on the E1 scenario at a fixed
// deployment fraction, isolating how much effectiveness the paper's
// conservative correctness rule costs and what strictness buys.
func runA3(opts Options) (*metrics.Table, error) {
	// A3 needs only E1's top-degree cells in both modes; run exactly those
	// points on the sweep pool (sharing E1's substrate), rebuild them in
	// E1's table format, and re-derive as before — same numbers as the
	// historical run-all-of-E1 path, minus the discarded random-placement
	// rows.
	tbl := metrics.NewTable(
		"A3: transit-sparing (paper default) vs strict route-based filtering",
		"deploy_%", "edge_only_reach_%", "route_based_reach_%", "strictness_gain_x")
	nNodes, agents, rate, fractions := e1Params(opts)
	type point struct {
		strict bool
		f      float64
	}
	var pts []point
	for _, strict := range []bool{true, false} {
		for _, f := range fractions {
			pts = append(pts, point{strict, f})
		}
	}
	sub, err := e1Substrate(opts, nNodes)
	if err != nil {
		return nil, err
	}
	rows, err := sweep.Run(len(pts), opts.Workers, opts.Seed, func(i int, _ *sim.RNG) (e1Row, error) {
		return e1Point(opts, sub, "top-degree", pts[i].strict, pts[i].f, agents, rate)
	})
	if err != nil {
		return nil, err
	}
	e1 := metrics.NewTable("", e1Columns...)
	for i, r := range rows {
		mode := "edge-only"
		if pts[i].strict {
			mode = "route-based"
		}
		e1.AddRow(r.nodes, "top-degree", mode, pts[i].f*100, r.attackSent, r.reachPct, r.legitPct)
	}
	type key struct{ mode, deploy string }
	vals := map[key]float64{}
	for _, row := range e1.Rows() {
		if row[1] != "top-degree" {
			continue
		}
		vals[key{row[2], row[3]}] = mustFloat(row[5])
	}
	for _, row := range e1.Rows() {
		if row[1] != "top-degree" || row[2] != "route-based" {
			continue
		}
		d := row[3]
		edge, okE := vals[key{"edge-only", d}]
		strict, okS := vals[key{"route-based", d}]
		if !okE || !okS {
			continue
		}
		gain := 0.0
		if strict > 0 {
			gain = edge / strict
		}
		tbl.AddRow(d, edge, strict, gain)
	}
	return tbl, nil
}

func mustFloat(s string) float64 {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0
	}
	return v
}
