package dtc_test

// Benchmark harness: one benchmark per reproduced figure/claim (see
// DESIGN.md §4 for the experiment index). Each benchmark drives the same
// runner as `cmd/ddosim -exp <id>`, in Quick mode, and reports simulator
// work as custom metrics where meaningful. Run everything with
//
//	go test -bench=. -benchmem
//
// and regenerate the full-size tables with `go run ./cmd/ddosim -all`.

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"dtc/internal/ctl"
	"dtc/internal/defense"
	"dtc/internal/device"
	"dtc/internal/device/modules"
	"dtc/internal/experiment"
	"dtc/internal/flowsim"
	"dtc/internal/hybrid"
	"dtc/internal/netsim"
	"dtc/internal/ownership"
	"dtc/internal/packet"
	"dtc/internal/routing"
	"dtc/internal/sim"
	"dtc/internal/sweep"
	"dtc/internal/telemetry"
	"dtc/internal/topology"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	opts := experiment.Options{Quick: true, Seed: 42}
	for i := 0; i < b.N; i++ {
		tbl, err := experiment.Run(id, opts)
		if err != nil {
			b.Fatal(err)
		}
		if tbl.NumRows() == 0 {
			b.Fatal("empty table")
		}
	}
}

// Figure reproductions.

func BenchmarkF1ReflectorAnatomy(b *testing.B) { benchExperiment(b, "f1") }
func BenchmarkF2Redirection(b *testing.B)      { benchExperiment(b, "f2") }
func BenchmarkF3EndToEnd(b *testing.B)         { benchExperiment(b, "f3") }
func BenchmarkF4Registration(b *testing.B)     { benchExperiment(b, "f4") }
func BenchmarkF5Deployment(b *testing.B)       { benchExperiment(b, "f5") }
func BenchmarkF6TwoStagePipeline(b *testing.B) { benchExperiment(b, "f6") }

// Claim reproductions.

func BenchmarkE1IngressSweep(b *testing.B)      { benchExperiment(b, "e1") }
func BenchmarkE2ReflectorShootout(b *testing.B) { benchExperiment(b, "e2") }
func BenchmarkE3PushbackFailure(b *testing.B)   { benchExperiment(b, "e3") }
func BenchmarkE4ByteHops(b *testing.B)          { benchExperiment(b, "e4") }
func BenchmarkE5Scalability(b *testing.B)       { benchExperiment(b, "e5") }
func BenchmarkE6SafetyAudit(b *testing.B)       { benchExperiment(b, "e6") }
func BenchmarkE7Traceback(b *testing.B)         { benchExperiment(b, "e7") }
func BenchmarkE8ProtocolMisuse(b *testing.B)    { benchExperiment(b, "e8") }
func BenchmarkE9AutoReaction(b *testing.B)      { benchExperiment(b, "e9") }

// Micro-benchmarks for the hot paths the experiments lean on.

// BenchmarkDeviceFastPath measures the per-packet cost for traffic that is
// not redirected — the overwhelmingly common case (Figure 2).
func BenchmarkDeviceFastPath(b *testing.B) {
	dev := device.New(0, modules.NewRegistry(), sim.NewRNG(1))
	if err := dev.BindOwner(packet.MustParsePrefix("10.0.0.0/8"), "acme"); err != nil {
		b.Fatal(err)
	}
	p := &packet.Packet{Src: packet.MustParseAddr("30.0.0.1"), Dst: packet.MustParseAddr("40.0.0.1"), TTL: 60, Size: 100}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dev.Process(0, p, -1)
	}
}

// BenchmarkDeviceTwoStage measures a redirected packet running both owner
// stages under the safety monitor.
func BenchmarkDeviceTwoStage(b *testing.B) {
	dev := device.New(0, modules.NewRegistry(), sim.NewRNG(1))
	if err := dev.BindOwner(packet.MustParsePrefix("10.0.0.0/8"), "src-owner"); err != nil {
		b.Fatal(err)
	}
	if err := dev.BindOwner(packet.MustParsePrefix("20.0.0.0/8"), "dst-owner"); err != nil {
		b.Fatal(err)
	}
	mk := func() *device.Graph {
		return device.Chain("fw", &modules.Filter{Label: "f", Rules: []modules.Match{{DstPort: 666}}})
	}
	if err := dev.Install("src-owner", device.StageSource, mk()); err != nil {
		b.Fatal(err)
	}
	if err := dev.Install("dst-owner", device.StageDest, mk()); err != nil {
		b.Fatal(err)
	}
	p := &packet.Packet{Src: packet.MustParseAddr("10.0.0.1"), Dst: packet.MustParseAddr("20.0.0.1"), TTL: 60, Size: 100, DstPort: 80}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dev.Process(0, p, -1)
	}
}

// BenchmarkDeviceProcessBatch measures the batched entry point on a burst
// of redirected two-stage packets: one pipeline-cache consultation
// amortized across the run instead of per packet.
func BenchmarkDeviceProcessBatch(b *testing.B) {
	dev := device.New(0, modules.NewRegistry(), sim.NewRNG(1))
	if err := dev.BindOwner(packet.MustParsePrefix("10.0.0.0/8"), "src-owner"); err != nil {
		b.Fatal(err)
	}
	if err := dev.BindOwner(packet.MustParsePrefix("20.0.0.0/8"), "dst-owner"); err != nil {
		b.Fatal(err)
	}
	mk := func() *device.Graph {
		return device.Chain("fw", &modules.Filter{Label: "f", Rules: []modules.Match{{DstPort: 666}}})
	}
	if err := dev.Install("src-owner", device.StageSource, mk()); err != nil {
		b.Fatal(err)
	}
	if err := dev.Install("dst-owner", device.StageDest, mk()); err != nil {
		b.Fatal(err)
	}
	const batch = 64
	pkts := make([]*packet.Packet, batch)
	for i := range pkts {
		pkts[i] = &packet.Packet{Src: packet.MustParseAddr("10.0.0.1"), Dst: packet.MustParseAddr("20.0.0.1"), TTL: 60, Size: 100, DstPort: 80}
	}
	keep := make([]bool, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += batch {
		dev.ProcessBatch(0, pkts, -1, keep)
	}
}

// BenchmarkTrieLookup measures owner dispatch with 10k bound prefixes.
func BenchmarkTrieLookup(b *testing.B) {
	var tr ownership.Trie[int]
	for i := 0; i < 10000; i++ {
		tr.Insert(packet.MakePrefix(packet.Addr(uint32(i)<<12), 20), i)
	}
	rng := sim.NewRNG(7)
	addrs := make([]packet.Addr, 1024)
	for i := range addrs {
		addrs[i] = packet.Addr(rng.Uint32())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Lookup(addrs[i%len(addrs)])
	}
}

// BenchmarkCompiledTrieLookup measures the flattened dispatch structure
// Device.Process actually consults, over the same 10k bound prefixes.
func BenchmarkCompiledTrieLookup(b *testing.B) {
	var tr ownership.Trie[int]
	for i := 0; i < 10000; i++ {
		tr.Insert(packet.MakePrefix(packet.Addr(uint32(i)<<12), 20), i)
	}
	c := tr.Compiled()
	rng := sim.NewRNG(7)
	addrs := make([]packet.Addr, 1024)
	for i := range addrs {
		addrs[i] = packet.Addr(rng.Uint32())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(addrs[i%len(addrs)])
	}
}

// BenchmarkSPIEObserve measures traceback digest insertion.
func BenchmarkSPIEObserve(b *testing.B) {
	sp := modules.NewSPIE("spie", sim.Second, 16, 1<<20, 42)
	env := &device.Env{Now: 0}
	p := &packet.Packet{Src: 1, Dst: 2, Proto: packet.TCP, Size: 100}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Seq = uint32(i)
		sp.Process(p, env)
	}
}

// BenchmarkPacketForwarding measures the end-to-end simulator cost per
// delivered packet over a 6-hop path. The sink recycles packets through
// the network's free list, so the steady state allocates nothing — the
// lifecycle scenario code uses when it owns both ends of a flow.
func BenchmarkPacketForwarding(b *testing.B) {
	s := sim.New(1)
	net, err := netsim.New(s, topology.Line(7), netsim.DefaultLink)
	if err != nil {
		b.Fatal(err)
	}
	src, _ := net.AttachHost(0)
	dst, _ := net.AttachHost(6)
	dst.Recv = func(_ sim.Time, pkt *packet.Packet) { net.PutPacket(pkt) }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkt := net.GetPacket()
		pkt.Src, pkt.Dst, pkt.Size = src.Addr, dst.Addr, 100
		src.Send(s.Now(), pkt)
		if _, err := s.RunAll(); err != nil {
			b.Fatal(err)
		}
	}
	if dst.Delivered[packet.KindLegit] != uint64(b.N) {
		b.Fatalf("delivered %d of %d", dst.Delivered[packet.KindLegit], b.N)
	}
}

// BenchmarkRelayForwarding measures steady-state packet forwarding on an
// 18k-AS power-law graph. The workload is a closed relay storm: 64 anchor
// hosts spread across the degree ranking, each seeded with 512 in-flight
// packets that are forwarded to the next anchor on every delivery — a
// constant ~32k packet population, zero allocations in steady state, and
// no RNG. One op is one simulated millisecond; the whole timed region is a
// single Run call, so per-op cost is pure engine work (heap, links), not
// setup.
func BenchmarkRelayForwarding(b *testing.B) {
	const (
		nodes    = 18000
		anchors  = 64
		inflight = 512
		opDelta  = sim.Millisecond
	)
	g, err := topology.BarabasiAlbert(nodes, 2, sim.NewRNG(42))
	if err != nil {
		b.Fatal(err)
	}
	cfg := netsim.LinkConfig{Bandwidth: 1e10, Delay: sim.Millisecond, QueueCap: 1 << 20}
	s := sim.New(42)
	net, err := netsim.NewOnSubstrate(s, g, cfg, routing.NewShared(g, nil), sweep.NodeOwners(g))
	if err != nil {
		b.Fatal(err)
	}
	byDegree := g.NodesByDegree()

	// Wire the relay ring and inject the initial packet population.
	hosts := make([]*netsim.Host, anchors)
	for i := range hosts {
		if hosts[i], err = net.AttachHost(byDegree[i*(nodes/anchors)]); err != nil {
			b.Fatal(err)
		}
	}
	for i, h := range hosts {
		h := h
		next := hosts[(i+1)%anchors].Addr
		h.Recv = func(now sim.Time, pkt *packet.Packet) {
			pkt.Src, pkt.Dst, pkt.TTL = h.Addr, next, 0
			h.Send(now, pkt)
		}
		for k := 0; k < inflight; k++ {
			pkt := &packet.Packet{Src: h.Addr, Dst: next, Size: 600}
			h.Send(sim.Time(k*10+i)*sim.Microsecond, pkt)
		}
	}
	hops := func() uint64 {
		var n uint64
		for k := range net.Stats.ByteHops {
			n += net.Stats.ByteHops[k] / 600
		}
		return n
	}

	// Warm the world (routing trees, pools), then time b.N simulated
	// milliseconds in one Run call and report ns per hop. Warming is
	// adaptive: pools, link queues and the event heap grow toward a
	// fluctuating high-water mark, and the growth arrives in bursts with
	// quiet windows between them — so one clean window is not convergence.
	// We run 100 ms windows until three in a row complete without a single
	// allocation; only then does the timed region start in true steady
	// state.
	warm := 100 * sim.Millisecond
	if _, err := s.Run(warm); err != nil {
		b.Fatal(err)
	}
	var ms runtime.MemStats
	for i, clean := 0, 0; i < 30 && clean < 3; i++ {
		runtime.ReadMemStats(&ms)
		m0 := ms.Mallocs
		warm += 100 * sim.Millisecond
		if _, err := s.Run(warm); err != nil {
			b.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		if ms.Mallocs == m0 {
			clean++
		} else {
			clean = 0
		}
	}
	before := hops()
	runtime.GC() // drop setup garbage so collections don't bill the timed region
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := s.Run(warm + sim.Time(b.N)*opDelta); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	moved := hops() - before
	if moved == 0 {
		b.Fatal("packet population died out")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(moved), "ns/hop")
	b.ReportMetric(float64(moved)/float64(b.N), "hops/op")
}

// benchGraph18k lazily builds the 18k-AS power-law graph the routing
// benchmarks share (same scale as e15's hybrid world). Read-only users
// only; benchmarks that cut edges build their own copy.
var benchGraph18k struct {
	once sync.Once
	g    *topology.Graph
	err  error
}

func graph18k(b *testing.B) *topology.Graph {
	benchGraph18k.once.Do(func() {
		benchGraph18k.g, benchGraph18k.err = topology.BarabasiAlbert(18000, 2, sim.NewRNG(3))
	})
	if benchGraph18k.err != nil {
		b.Fatal(benchGraph18k.err)
	}
	return benchGraph18k.g
}

// BenchmarkRoutingBuildTree measures one full Dijkstra on the 18k-AS
// power-law graph with a warm Builder — the per-destination routing cost
// behind every big sweep. Steady-state must be 0 allocs/op.
func BenchmarkRoutingBuildTree(b *testing.B) {
	g := graph18k(b)
	bld := routing.NewBuilder(g, nil)
	tr := &routing.Tree{}
	if err := bld.BuildInto(tr, 0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bld.BuildInto(tr, i%g.Len()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSharedTreeToParallel measures contended cache-hit reads on a
// Shared table: every worker hammers the same warm destination set, the
// pattern concurrent sweep workers produce.
func BenchmarkSharedTreeToParallel(b *testing.B) {
	g := graph18k(b)
	routes := routing.NewShared(g, nil)
	dsts := make([]int, 64)
	for i := range dsts {
		dsts[i] = (i * 281) % g.Len()
	}
	if err := routes.Prebuild(dsts, 0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			tr, err := routes.TreeTo(dsts[i&63])
			if err != nil {
				b.Fatal(err)
			}
			if tr.Dst != dsts[i&63] {
				b.Fatal("wrong tree")
			}
			i++
		}
	})
}

// BenchmarkFailLinkRepair compares the two ways to reconcile a routing
// cache with a single link cut on the 18k-AS graph, 64 trees warm:
// incremental repair (LinkDown: O(1) skip for unaffected trees, partial
// Dijkstra over the orphaned subtree otherwise) versus the old full
// Invalidate+rebuild of every cached destination. Each op restores the
// pre-cut state off the clock.
func BenchmarkFailLinkRepair(b *testing.B) {
	const nDsts = 64
	setup := func(b *testing.B) (*topology.Graph, *routing.Shared, []int, topology.Edge, [][]int32, [][]float64) {
		g, err := topology.BarabasiAlbert(18000, 2, sim.NewRNG(3))
		if err != nil {
			b.Fatal(err)
		}
		routes := routing.NewShared(g, nil)
		dsts := make([]int, nDsts)
		for i := range dsts {
			dsts[i] = (i * 281) % g.Len()
		}
		if err := routes.Prebuild(dsts, 0); err != nil {
			b.Fatal(err)
		}
		tr0, err := routes.TreeTo(dsts[0])
		if err != nil {
			b.Fatal(err)
		}
		cut := topology.Edge{A: 9001, B: int(tr0.Next[9001])}
		// Snapshot tree contents so each op can restore the pre-cut state
		// without re-running Dijkstra.
		snapN := make([][]int32, nDsts)
		snapD := make([][]float64, nDsts)
		for i, d := range dsts {
			tr, err := routes.TreeTo(d)
			if err != nil {
				b.Fatal(err)
			}
			snapN[i] = append([]int32(nil), tr.Next...)
			snapD[i] = append([]float64(nil), tr.Dist...)
		}
		return g, routes, dsts, cut, snapN, snapD
	}
	restore := func(b *testing.B, g *topology.Graph, routes *routing.Shared, dsts []int, cut topology.Edge, snapN [][]int32, snapD [][]float64) {
		if err := g.AddEdge(cut.A, cut.B); err != nil {
			b.Fatal(err)
		}
		for i, d := range dsts {
			tr, err := routes.TreeTo(d)
			if err != nil {
				b.Fatal(err)
			}
			copy(tr.Next, snapN[i])
			copy(tr.Dist, snapD[i])
		}
	}
	b.Run("repair", func(b *testing.B) {
		g, routes, dsts, cut, snapN, snapD := setup(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.RemoveEdge(cut.A, cut.B)
			routes.LinkDown(cut.A, cut.B)
			b.StopTimer()
			restore(b, g, routes, dsts, cut, snapN, snapD)
			b.StartTimer()
		}
	})
	b.Run("rebuild", func(b *testing.B) {
		g, _, dsts, cut, _, _ := setup(b)
		g.RemoveEdge(cut.A, cut.B)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// The old FailLink behavior: throw the whole cache away and
			// re-run a full Dijkstra for every live destination. A fresh
			// Shared per op stands in for Invalidate so the grow-only
			// arena reflects one cache generation, as in real use.
			routes := routing.NewShared(g, nil)
			for _, d := range dsts {
				if _, err := routes.TreeTo(d); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkEventQueue measures raw simulator event throughput.
func BenchmarkEventQueue(b *testing.B) {
	s := sim.New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.AfterFunc(sim.Time(i%1000)*sim.Microsecond, func(sim.Time) {})
		if i%1024 == 1023 {
			if _, err := s.RunAll(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if _, err := s.RunAll(); err != nil {
		b.Fatal(err)
	}
}

// Ablation benchmarks (DESIGN.md §5).

func BenchmarkA1StageAblation(b *testing.B)      { benchExperiment(b, "a1") }
func BenchmarkA2DispatchAblation(b *testing.B)   { benchExperiment(b, "a2") }
func BenchmarkA3StrictnessAblation(b *testing.B) { benchExperiment(b, "a3") }

// BenchmarkE10InternetScale runs the flow-model deployment sweep.
func BenchmarkE10InternetScale(b *testing.B) { benchExperiment(b, "e10") }

// BenchmarkE11SYNFlood runs the SYN-flood mitigation experiment.
func BenchmarkE11SYNFlood(b *testing.B) { benchExperiment(b, "e11") }

// BenchmarkE12ClosedLoop runs the telemetry-driven adaptive mitigation
// sweep (detect → mitigate → retract over the full pipeline).
func BenchmarkE12ClosedLoop(b *testing.B) { benchExperiment(b, "e12") }

// BenchmarkE14FaultInjection runs the closed loop under injected crashes
// and telemetry faults (detect → mitigate → crash → heal → retract).
func BenchmarkE14FaultInjection(b *testing.B) { benchExperiment(b, "e14") }

// BenchmarkE15Hybrid runs the hybrid fluid/packet reflector-defense sweep
// (quick sizes) end to end: cone extraction, boundary injector schedules,
// fluid residual capacities and the packet core. This is the wall-clock
// record for the substrate in the per-PR trajectory.
func BenchmarkE15Hybrid(b *testing.B) { benchExperiment(b, "e15") }

// BenchmarkHybridMemory builds the full-size e15 client table — 18k ASes,
// over a million modeled stub clients — and reports the per-client
// footprint of the SoA host table as bytes/host (DESIGN.md §12). The
// table is the only per-client state the hybrid world keeps outside the
// victim cone, so this metric IS the substrate's memory story; benchjson
// records and regression-gates it alongside ns/op.
func BenchmarkHybridMemory(b *testing.B) {
	g, err := topology.BarabasiAlbert(18000, 2, sim.NewRNG(42))
	if err != nil {
		b.Fatal(err)
	}
	stubs := g.Stubs()
	victimAddr := netsim.NodePrefix(stubs[0]).Nth(1)
	const perStub = 90
	var cl *hybrid.Clients
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cl = hybrid.NewClients(g.Len())
		for _, v := range stubs[1:] {
			for k := 0; k < perStub; k++ {
				if _, err := cl.Add(v, hybrid.ClientSpec{
					Rate: 0.2, Size: 400, Kind: packet.KindLegit, Dst: victimAddr,
				}); err != nil {
					b.Fatal(err)
				}
			}
		}
		cl.Seal(g.Len())
	}
	if cl.Len() < 1_000_000 {
		b.Fatalf("scenario too small: %d clients, want >= 1M", cl.Len())
	}
	b.ReportMetric(float64(cl.Bytes())/float64(cl.Len()), "bytes/host")
}

// BenchmarkConeViewRows measures the warm-up hybrid.World.Run does before
// its event loop: prebuilding the full-size e15 cone's routing rows (239
// cone nodes of the 18k-AS seed-42 graph) toward the first 1,024 client
// ASes on a fresh routing cache, on one worker and on GOMAXPROCS workers.
// Every row is one full Dijkstra run; ns/row is the per-row cost.
func BenchmarkConeViewRows(b *testing.B) {
	g, err := topology.BarabasiAlbert(18000, 2, sim.NewRNG(42))
	if err != nil {
		b.Fatal(err)
	}
	stubs := g.Stubs()
	cone, err := hybrid.ExtractCone(g, routing.NewShared(g, nil), stubs[0], 2, g.NodesByDegree()[:8])
	if err != nil {
		b.Fatal(err)
	}
	if cone.Len() != 239 {
		b.Fatalf("cone has %d nodes, want e15's 239", cone.Len())
	}
	dsts := stubs[1:1025]
	// workers 0 is Prebuild's GOMAXPROCS default, read at run time so
	// -cpu applies.
	for _, workers := range []int{1, 0} {
		name := "workers=1"
		if workers == 0 {
			name = "workers=GOMAXPROCS"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				vw := routing.NewShared(g, nil).View(cone.Nodes)
				b.StartTimer()
				if err := vw.Prebuild(dsts, workers); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(dsts)), "ns/row")
		})
	}
}

// BenchmarkTelemetryWire measures one snapshot round trip through the
// canonical wire format — the per-device, per-report cost of the telemetry
// pipeline.
func BenchmarkTelemetryWire(b *testing.B) {
	snap := &telemetry.Snapshot{Node: 3, At: 5_000_000_000, Seen: 123456, Redirected: 2345, Discarded: 99}
	for i := 0; i < 8; i++ {
		snap.Services = append(snap.Services, telemetry.ServiceCounters{
			Owner: fmt.Sprintf("owner-%02d", i), Stage: uint8(i % 2), Processed: uint64(1000 * i), Discarded: uint64(i),
		})
	}
	snap.Normalize()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := snap.MarshalBinary()
		if err != nil {
			b.Fatal(err)
		}
		var out telemetry.Snapshot
		if err := out.UnmarshalBinary(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDetectorObserve measures one detector decision — the per-tick
// control-plane cost of the defense loop.
func BenchmarkDetectorObserve(b *testing.B) {
	d := defense.NewDetector(defense.DetectorConfig{Threshold: 1e12}) // never fires: steady-state path
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pps := 100.0
		if i%16 == 0 {
			pps = 5000
		}
		d.Observe(sim.Time(i)*sim.Millisecond, pps)
	}
}

// BenchmarkPromExposition measures one /metrics render over a store holding
// 64 devices with per-owner service counters.
func BenchmarkPromExposition(b *testing.B) {
	store := telemetry.NewStore(0)
	for node := 0; node < 64; node++ {
		isp := fmt.Sprintf("isp%d", node/16)
		for t := int64(0); t < 2; t++ {
			store.Ingest(isp, &telemetry.Snapshot{
				Node: uint32(node), At: 1_000_000_000 * (t + 1), Seen: uint64(1000 * (t + 1)),
				Services: []telemetry.ServiceCounters{
					{Owner: "alice", Stage: 1, Processed: uint64(300 * (t + 1))},
					{Owner: "bob", Stage: 0, Processed: uint64(70 * (t + 1))},
				},
			})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := store.WriteProm(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// sweepBenchWorld builds the fixed E10-shaped workload the sweep
// benchmarks share: a power-law graph, a spoofed flow set, and the
// deployment points of one placement sweep.
func sweepBenchWorld(b *testing.B) (*topology.Graph, []flowsim.Flow, [][]int) {
	b.Helper()
	rng := sim.NewRNG(42)
	g, err := topology.BarabasiAlbert(1500, 2, rng)
	if err != nil {
		b.Fatal(err)
	}
	stubs := g.Stubs()
	flows := make([]flowsim.Flow, 300)
	for i := range flows {
		flows[i] = flowsim.Flow{
			From: stubs[1+rng.Intn(len(stubs)-1)], To: stubs[0],
			Rate: 100, Size: 200, Src: flowsim.SrcUnallocated,
		}
	}
	byDegree := g.NodesByDegree()
	var points [][]int
	for _, f := range []float64{0, 0.01, 0.05, 0.10, 0.20, 0.50} {
		points = append(points, byDegree[:int(f*float64(g.Len()))])
	}
	return g, flows, points
}

// BenchmarkSweepE10 measures one full E10-style deployment sweep per op,
// three ways: the pre-substrate shape (every point builds its own routing
// table, i.e. a fresh Dijkstra cache), the shared substrate serially, and
// the shared substrate on GOMAXPROCS workers. The rebuild/substrate gap is
// the Dijkstra work the substrate removes; serial/parallel is the worker
// pool's scaling on this machine.
func BenchmarkSweepE10(b *testing.B) {
	g, flows, points := sweepBenchWorld(b)
	run := func(b *testing.B, share bool, workers int) {
		nFlows := float64(len(flows) * len(points))
		for i := 0; i < b.N; i++ {
			// A fresh Shared per sweep keeps the tree builds inside the
			// measurement — a warm cache would hide the rebuild cost the
			// substrate exists to amortise across points, not iterations.
			var routes *routing.Shared
			if share {
				routes = routing.NewShared(g, nil)
			}
			rows, err := sweep.Run(len(points), workers, 42, func(pi int, _ *sim.RNG) (flowsim.Sweep, error) {
				var m *flowsim.Model
				if share {
					m = flowsim.NewOnRoutes(g, routes)
				} else {
					m = flowsim.New(g)
				}
				if err := m.Deploy(points[pi], true); err != nil {
					return flowsim.Sweep{}, err
				}
				return m.EvalBatch(flows)
			})
			if err != nil {
				b.Fatal(err)
			}
			if len(rows) != len(points) {
				b.Fatal("short sweep")
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/nFlows, "ns/flow")
	}
	b.Run("rebuild-serial", func(b *testing.B) { run(b, false, 1) })
	b.Run("substrate-serial", func(b *testing.B) { run(b, true, 1) })
	b.Run("substrate-parallel", func(b *testing.B) { run(b, true, 0) })
}

// BenchmarkFlowEvalBatch compares the per-flow Route loop against the
// batched hop-synchronous pass over the same warm routing table.
func BenchmarkFlowEvalBatch(b *testing.B) {
	g, flows, points := sweepBenchWorld(b)
	m := flowsim.New(g)
	if err := m.Deploy(points[3], true); err != nil {
		b.Fatal(err)
	}
	if _, err := m.Evaluate(flows); err != nil { // warm the routing trees
		b.Fatal(err)
	}
	run := func(b *testing.B, eval func([]flowsim.Flow) (flowsim.Sweep, error)) {
		var last flowsim.Sweep
		for i := 0; i < b.N; i++ {
			s, err := eval(flows)
			if err != nil {
				b.Fatal(err)
			}
			last = s
		}
		if last.Flows != len(flows) {
			b.Fatal("short sweep")
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(flows)), "ns/flow")
	}
	b.Run("route-per-flow", func(b *testing.B) { run(b, m.Evaluate) })
	b.Run("batched", func(b *testing.B) { run(b, m.EvalBatch) })
}

// BenchmarkCtlLoad measures control-plane throughput over real loopback
// TCP under many concurrent callers, one connection per caller. Reports
// aggregate ops/s (higher-is-better, gated by benchjson) and the p99 call
// latency.
func BenchmarkCtlLoad(b *testing.B) {
	const workers = 64
	pong := any(json.RawMessage(`"pong"`))
	handler := func(method string, payload json.RawMessage) (any, error) {
		return pong, nil
	}
	ping := any(json.RawMessage(`"ping"`))

	run := func(b *testing.B, call func(w int) error) {
		lat := make([][]time.Duration, workers)
		share := make([]int, workers)
		for w := 0; w < workers; w++ {
			share[w] = b.N / workers
			if w < b.N%workers {
				share[w]++
			}
			lat[w] = make([]time.Duration, 0, share[w])
		}
		b.ResetTimer()
		start := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < share[w]; i++ {
					t0 := time.Now()
					if err := call(w); err != nil {
						b.Error(err)
						return
					}
					lat[w] = append(lat[w], time.Since(t0))
				}
			}(w)
		}
		wg.Wait()
		elapsed := time.Since(start)
		b.StopTimer()
		if b.Failed() {
			return
		}
		all := make([]time.Duration, 0, b.N)
		for w := 0; w < workers; w++ {
			all = append(all, lat[w]...)
		}
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		b.ReportMetric(float64(len(all))/elapsed.Seconds(), "ops/s")
		if len(all) > 0 {
			idx := len(all) * 99 / 100
			if idx >= len(all) {
				idx = len(all) - 1
			}
			b.ReportMetric(float64(all[idx]), "p99ns/op")
		}
	}

	b.Run("single", func(b *testing.B) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		srv := ctl.NewServer(ln, handler)
		defer srv.Close()
		clients := make([]*ctl.Client, workers)
		for w := range clients {
			if clients[w], err = ctl.Dial(ln.Addr().String()); err != nil {
				b.Fatal(err)
			}
			defer clients[w].Close()
		}
		run(b, func(w int) error { return clients[w].Call("ping", ping, nil) })
	})
}
