package netsim

import (
	"testing"

	"dtc/internal/packet"
	"dtc/internal/sim"
	"dtc/internal/topology"
)

// buildLine returns a simulation over a 1ms, 100Mbit line topology with one
// host on each end node.
func buildLine(t *testing.T, n int) (*sim.Simulation, *Network, *Host, *Host) {
	t.Helper()
	s := sim.New(1)
	net, err := New(s, topology.Line(n), DefaultLink)
	if err != nil {
		t.Fatal(err)
	}
	a, err := net.AttachHost(0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.AttachHost(n - 1)
	if err != nil {
		t.Fatal(err)
	}
	return s, net, a, b
}

func TestEndToEndDelivery(t *testing.T) {
	s, net, a, b := buildLine(t, 3)
	var got *packet.Packet
	var at sim.Time
	b.Recv = func(now sim.Time, p *packet.Packet) { got, at = p, now }

	pkt := &packet.Packet{Src: a.Addr, Dst: b.Addr, Proto: packet.UDP, Size: 1000}
	a.Send(0, pkt)
	if _, err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("packet not delivered")
	}
	if got.Src != a.Addr || got.Dst != b.Addr {
		t.Errorf("delivered packet has wrong addresses: %v", got)
	}
	// Two links: each 1000B/100Mbit = 80us serialization + 1ms delay.
	want := 2 * (sim.Time(80*sim.Microsecond) + sim.Millisecond)
	if at != want {
		t.Errorf("delivery at %v, want %v", at, want)
	}
	if net.Stats.Delivered[packet.KindLegit].Packets != 1 {
		t.Error("delivery not counted")
	}
	if b.Delivered[packet.KindLegit] != 1 {
		t.Error("per-host delivery not counted")
	}
}

func TestTTLDecrementAndExpiry(t *testing.T) {
	s, net, a, b := buildLine(t, 5)
	var ttl uint8
	b.Recv = func(_ sim.Time, p *packet.Packet) { ttl = p.TTL }
	a.Send(0, &packet.Packet{Src: a.Addr, Dst: b.Addr, TTL: 64, Size: 100})
	if _, err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if ttl != 60 { // 4 forwarding hops
		t.Errorf("TTL at destination = %d, want 60", ttl)
	}

	// TTL too small to reach: dies en route.
	a.Send(s.Now(), &packet.Packet{Src: a.Addr, Dst: b.Addr, TTL: 2, Size: 100})
	if _, err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if net.Stats.DropTotal(DropTTL) != 1 {
		t.Errorf("TTL drops = %d, want 1", net.Stats.DropTotal(DropTTL))
	}
	if net.Stats.Delivered[packet.KindLegit].Packets != 1 {
		t.Error("short-TTL packet delivered")
	}
}

func TestDropNoHostAndNoRoute(t *testing.T) {
	s, net, a, _ := buildLine(t, 3)
	// Address inside node 2's block but no host bound.
	a.Send(0, &packet.Packet{Src: a.Addr, Dst: NodePrefix(2).Nth(99), Size: 100})
	// Address outside every node block.
	a.Send(0, &packet.Packet{Src: a.Addr, Dst: packet.MustParseAddr("200.0.0.1"), Size: 100})
	if _, err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if net.Stats.DropTotal(DropNoHost) != 1 {
		t.Errorf("nohost drops = %d", net.Stats.DropTotal(DropNoHost))
	}
	if net.Stats.DropTotal(DropNoRoute) != 1 {
		t.Errorf("noroute drops = %d", net.Stats.DropTotal(DropNoRoute))
	}
}

func TestQueueOverflow(t *testing.T) {
	s := sim.New(1)
	net, err := New(s, topology.Line(2), LinkConfig{Bandwidth: 1e6, Delay: sim.Millisecond, QueueCap: 4})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := net.AttachHost(0)
	b, _ := net.AttachHost(1)
	// 20 packets of 1000B at once on a 1Mbit/4-packet link: only 4 fit.
	a.SendBurst(0, 20, func(uint64) *packet.Packet {
		return &packet.Packet{Src: a.Addr, Dst: b.Addr, Size: 1000}
	})
	if _, err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	drops := net.Stats.DropTotal(DropQueue)
	delivered := net.Stats.Delivered[packet.KindLegit].Packets
	if delivered+drops != 20 {
		t.Fatalf("delivered %d + drops %d != 20", delivered, drops)
	}
	if drops != 16 {
		t.Errorf("queue drops = %d, want 16", drops)
	}
	ls, ok := net.Link(0, 1)
	if !ok {
		t.Fatal("link stats missing")
	}
	if ls.QueueDrops != 16 {
		t.Errorf("link queue drops = %d", ls.QueueDrops)
	}
	if ls.Packets != 4 {
		t.Errorf("link carried %d packets", ls.Packets)
	}
}

func TestLinkSerialization(t *testing.T) {
	s := sim.New(1)
	net, err := New(s, topology.Line(2), LinkConfig{Bandwidth: 8e6, Delay: 0, QueueCap: 100})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := net.AttachHost(0)
	b, _ := net.AttachHost(1)
	var arrivals []sim.Time
	b.Recv = func(now sim.Time, _ *packet.Packet) { arrivals = append(arrivals, now) }
	// 3 packets of 1000 bytes at 8 Mbit/s: 1ms serialization each,
	// back-to-back => arrivals at 1, 2, 3 ms.
	a.SendBurst(0, 3, func(uint64) *packet.Packet {
		return &packet.Packet{Src: a.Addr, Dst: b.Addr, Size: 1000}
	})
	if _, err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(arrivals) != 3 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	for i, want := range []sim.Time{sim.Millisecond, 2 * sim.Millisecond, 3 * sim.Millisecond} {
		if arrivals[i] != want {
			t.Errorf("arrival %d at %v, want %v", i, arrivals[i], want)
		}
	}
}

func TestHookDropAndPass(t *testing.T) {
	s, net, a, b := buildLine(t, 3)
	seen := 0
	net.AddHook(1, HookFunc{Label: "drop-odd", Fn: func(_ sim.Time, p *packet.Packet, ctx HookContext) Verdict {
		seen++
		if ctx.Node != 1 {
			t.Errorf("hook ran on node %d", ctx.Node)
		}
		if p.SrcPort%2 == 1 {
			return Drop
		}
		return Pass
	}})
	for i := 0; i < 10; i++ {
		a.Send(0, &packet.Packet{Src: a.Addr, Dst: b.Addr, SrcPort: uint16(i), Size: 100})
	}
	if _, err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if seen != 10 {
		t.Errorf("hook saw %d packets", seen)
	}
	if net.Stats.DropTotal(DropFilter) != 5 {
		t.Errorf("filter drops = %d", net.Stats.DropTotal(DropFilter))
	}
	if got := net.Stats.Delivered[packet.KindLegit].Packets; got != 5 {
		t.Errorf("delivered = %d", got)
	}
}

func TestHookFromContext(t *testing.T) {
	s, net, a, b := buildLine(t, 3)
	var fromAt0, fromAt1 []int
	net.AddHook(0, HookFunc{Label: "tap0", Fn: func(_ sim.Time, _ *packet.Packet, ctx HookContext) Verdict {
		fromAt0 = append(fromAt0, ctx.From)
		return Pass
	}})
	net.AddHook(1, HookFunc{Label: "tap1", Fn: func(_ sim.Time, _ *packet.Packet, ctx HookContext) Verdict {
		fromAt1 = append(fromAt1, ctx.From)
		return Pass
	}})
	a.Send(0, &packet.Packet{Src: a.Addr, Dst: b.Addr, Size: 100})
	if _, err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(fromAt0) != 1 || fromAt0[0] != Local {
		t.Errorf("node 0 saw From=%v, want [Local]", fromAt0)
	}
	if len(fromAt1) != 1 || fromAt1[0] != 0 {
		t.Errorf("node 1 saw From=%v, want [0]", fromAt1)
	}
}

func TestRemoveHook(t *testing.T) {
	s, net, a, b := buildLine(t, 3)
	h := HookFunc{Label: "drop-all", Fn: func(sim.Time, *packet.Packet, HookContext) Verdict { return Drop }}
	net.AddHook(1, h)
	if len(net.Hooks(1)) != 1 {
		t.Fatal("hook not installed")
	}
	net.RemoveHook(1, "drop-all")
	if len(net.Hooks(1)) != 0 {
		t.Fatal("hook not removed")
	}
	a.Send(0, &packet.Packet{Src: a.Addr, Dst: b.Addr, Size: 100})
	if _, err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if net.Stats.Delivered[packet.KindLegit].Packets != 1 {
		t.Error("packet dropped by removed hook")
	}
}

func TestSpoofedSourceTravels(t *testing.T) {
	s, _, a, b := buildLine(t, 4)
	spoofed := packet.MustParseAddr("203.0.113.5")
	var got *packet.Packet
	b.Recv = func(_ sim.Time, p *packet.Packet) { got = p }
	a.Send(0, &packet.Packet{Src: spoofed, Dst: b.Addr, Size: 100})
	if _, err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if got == nil || got.Src != spoofed {
		t.Fatal("spoofed packet not delivered with forged source")
	}
	if got.Origin != 0 {
		t.Errorf("ground-truth origin = %d, want 0", got.Origin)
	}
}

func TestServerCapacityAndOverload(t *testing.T) {
	s, net, a, _ := buildLine(t, 2)
	// 1ms service time, queue of 2.
	srv, err := net.NewServer(1, sim.Millisecond, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Send 10 requests in a burst: 2 can queue; the rest overflow as they
	// arrive one serialization time apart while service takes 1ms each.
	a.SendBurst(0, 10, func(uint64) *packet.Packet {
		return &packet.Packet{Src: a.Addr, Dst: srv.Host.Addr, Size: 1000}
	})
	if _, err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	served := srv.Served[packet.KindLegit]
	over := srv.Overloaded[packet.KindLegit]
	if served+over != 10 {
		t.Fatalf("served %d + overloaded %d != 10", served, over)
	}
	if over == 0 {
		t.Error("no overload under burst beyond capacity")
	}
	if net.Stats.Overload[packet.KindLegit].Packets != over {
		t.Error("network overload counter mismatch")
	}
}

func TestServerServesAllWhenUnderLoad(t *testing.T) {
	s, net, a, _ := buildLine(t, 2)
	srv, err := net.NewServer(1, sim.Microsecond, 16)
	if err != nil {
		t.Fatal(err)
	}
	replies := 0
	srv.OnServe = func(sim.Time, *packet.Packet) { replies++ }
	src := a.StartCBR(0, 100, func(uint64) *packet.Packet {
		return &packet.Packet{Src: a.Addr, Dst: srv.Host.Addr, Size: 200}
	})
	s.AfterFunc(100*sim.Millisecond, func(sim.Time) { src.Stop() })
	if _, err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if srv.Overloaded[packet.KindLegit] != 0 {
		t.Error("overload at 100 req/s with 1us service time")
	}
	if replies == 0 || uint64(replies) != srv.Served[packet.KindLegit] {
		t.Errorf("replies %d != served %d", replies, srv.Served[packet.KindLegit])
	}
}

func TestCBRRate(t *testing.T) {
	s, _, a, b := buildLine(t, 2)
	src := a.StartCBR(0, 1000, func(uint64) *packet.Packet {
		return &packet.Packet{Src: a.Addr, Dst: b.Addr, Size: 100}
	})
	s.AfterFunc(sim.Second, func(sim.Time) { src.Stop(); s.Stop() })
	if _, err := s.Run(2 * sim.Second); err != nil {
		t.Fatal(err)
	}
	// 1000 pps for 1 second: 1000 or 1001 sends depending on boundary.
	if src.Sent() < 999 || src.Sent() > 1001 {
		t.Errorf("CBR sent %d packets in 1s at 1000pps", src.Sent())
	}
}

func TestPoissonRate(t *testing.T) {
	s, _, a, b := buildLine(t, 2)
	src := a.StartPoisson(0, 2000, func(uint64) *packet.Packet {
		return &packet.Packet{Src: a.Addr, Dst: b.Addr, Size: 100}
	})
	s.AfterFunc(sim.Second, func(sim.Time) { src.Stop(); s.Stop() })
	if _, err := s.Run(2 * sim.Second); err != nil {
		t.Fatal(err)
	}
	// Poisson(2000) over 1s: allow 5 sigma.
	if src.Sent() < 1700 || src.Sent() > 2300 {
		t.Errorf("Poisson sent %d packets in 1s at mean 2000pps", src.Sent())
	}
}

func TestByteHopsAccounting(t *testing.T) {
	s, net, a, b := buildLine(t, 4) // 3 links
	a.Send(0, &packet.Packet{Src: a.Addr, Dst: b.Addr, Size: 500, Kind: packet.KindAttack})
	if _, err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if got := net.Stats.ByteHops[packet.KindAttack]; got != 1500 {
		t.Errorf("byte-hops = %d, want 1500 (500B x 3 links)", got)
	}
}

func TestAddressing(t *testing.T) {
	s := sim.New(1)
	net, err := New(s, topology.Line(3), DefaultLink)
	if err != nil {
		t.Fatal(err)
	}
	h1, _ := net.AttachHost(2)
	h2, _ := net.AttachHost(2)
	if h1.Addr == h2.Addr {
		t.Error("duplicate host addresses")
	}
	if !NodePrefix(2).Contains(h1.Addr) {
		t.Errorf("host addr %v outside node prefix %v", h1.Addr, NodePrefix(2))
	}
	if node, ok := net.NodeOfAddr(h1.Addr); !ok || node != 2 {
		t.Errorf("NodeOfAddr = %d,%v", node, ok)
	}
	if got, ok := net.HostByAddr(h2.Addr); !ok || got != h2 {
		t.Error("HostByAddr lookup failed")
	}
	if len(net.HostsOn(2)) != 2 || net.NumHosts() != 2 {
		t.Error("host accounting wrong")
	}
	if _, err := net.AttachHost(99); err == nil {
		t.Error("attach to missing node accepted")
	}
}

func TestOnDropObserver(t *testing.T) {
	s, net, a, b := buildLine(t, 3)
	var reasons []DropReason
	net.OnDrop(func(_ sim.Time, _ *packet.Packet, r DropReason, _ int) {
		reasons = append(reasons, r)
	})
	net.AddHook(1, HookFunc{Label: "dropper", Fn: func(sim.Time, *packet.Packet, HookContext) Verdict { return Drop }})
	a.Send(0, &packet.Packet{Src: a.Addr, Dst: b.Addr, Size: 100})
	if _, err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(reasons) != 1 || reasons[0] != DropFilter {
		t.Errorf("observer saw %v", reasons)
	}
}

func TestSetLinkConfig(t *testing.T) {
	s := sim.New(1)
	net, err := New(s, topology.Line(2), DefaultLink)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.SetLinkConfig(0, 1, LinkConfig{Bandwidth: 1e9, Delay: 0, QueueCap: 10}); err != nil {
		t.Fatal(err)
	}
	if err := net.SetLinkConfig(0, 9, DefaultLink); err == nil {
		t.Error("config of missing link accepted")
	}
	if err := net.SetLinkConfig(0, 1, LinkConfig{}); err == nil {
		t.Error("invalid config accepted")
	}
	if err := net.SetDuplexLinkConfig(0, 1, LinkConfig{Bandwidth: 1e6, Delay: sim.Millisecond, QueueCap: 5}); err != nil {
		t.Fatal(err)
	}
}

func TestInvalidNetworkConfig(t *testing.T) {
	s := sim.New(1)
	if _, err := New(s, topology.Line(2), LinkConfig{}); err == nil {
		t.Error("zero link config accepted")
	}
}

func TestDeliveryRateHelper(t *testing.T) {
	st := NewStats()
	if st.DeliveryRate(packet.KindLegit) != 1 {
		t.Error("empty delivery rate != 1")
	}
	p := &packet.Packet{Size: 100}
	st.addSent(p)
	st.addSent(p)
	st.addDelivered(p)
	if got := st.DeliveryRate(packet.KindLegit); got != 0.5 {
		t.Errorf("DeliveryRate = %v", got)
	}
}

func TestDropReasonString(t *testing.T) {
	for r, want := range map[DropReason]string{
		DropQueue: "queue", DropFilter: "filter", DropTTL: "ttl",
		DropNoRoute: "noroute", DropNoHost: "nohost",
	} {
		if r.String() != want {
			t.Errorf("%d.String() = %q", r, r.String())
		}
	}
}

func TestStarCrossTraffic(t *testing.T) {
	s := sim.New(3)
	net, err := New(s, topology.Star(8), DefaultLink)
	if err != nil {
		t.Fatal(err)
	}
	hosts := make([]*Host, 8)
	for i := range hosts {
		hosts[i], err = net.AttachHost(i + 1)
		if err != nil {
			t.Fatal(err)
		}
	}
	// Every leaf sends to every other leaf.
	for i, src := range hosts {
		for j, dst := range hosts {
			if i == j {
				continue
			}
			src.Send(0, &packet.Packet{Src: src.Addr, Dst: dst.Addr, Size: 100})
		}
	}
	if _, err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	want := uint64(8 * 7)
	if got := net.Stats.Delivered[packet.KindLegit].Packets; got != want {
		t.Errorf("delivered = %d, want %d", got, want)
	}
	for _, h := range hosts {
		if h.Delivered[packet.KindLegit] != 7 {
			t.Errorf("host %v received %d, want 7", h.Addr, h.Delivered[packet.KindLegit])
		}
	}
}

// batchDropOdd is a BatchHook that drops odd source ports, counting how it
// was invoked so tests can confirm the batched entry point actually ran.
type batchDropOdd struct {
	single, batched int
}

func (h *batchDropOdd) Name() string { return "batch-drop-odd" }
func (h *batchDropOdd) Process(_ sim.Time, p *packet.Packet, _ HookContext) Verdict {
	h.single++
	if p.SrcPort%2 == 1 {
		return Drop
	}
	return Pass
}
func (h *batchDropOdd) ProcessBatch(_ sim.Time, pkts []*packet.Packet, _ HookContext, keep []bool) {
	h.batched++
	for i, p := range pkts {
		keep[i] = p.SrcPort%2 == 0
	}
}

// TestSendBatchMatchesSend injects the same burst per-packet on one network
// and batched on an identical one: delivery, filter drops and per-host
// counts must agree, and the batched network must have gone through the
// BatchHook entry point.
func TestSendBatchMatchesSend(t *testing.T) {
	const n = 12
	mk := func(a, b *Host, i int) *packet.Packet {
		return &packet.Packet{Src: a.Addr, Dst: b.Addr, SrcPort: uint16(i), Size: 100}
	}

	s1, net1, a1, b1 := buildLine(t, 3)
	h1 := &batchDropOdd{}
	net1.AddHook(0, h1)
	for i := 0; i < n; i++ {
		a1.Send(0, mk(a1, b1, i))
	}
	if _, err := s1.RunAll(); err != nil {
		t.Fatal(err)
	}

	s2, net2, a2, b2 := buildLine(t, 3)
	h2 := &batchDropOdd{}
	net2.AddHook(0, h2)
	pkts := make([]*packet.Packet, n)
	for i := range pkts {
		pkts[i] = mk(a2, b2, i)
	}
	a2.SendBatch(0, pkts)
	if _, err := s2.RunAll(); err != nil {
		t.Fatal(err)
	}

	if h2.batched == 0 || h2.single != 0 {
		t.Errorf("batched hook invoked single=%d batched=%d, want batched only", h2.single, h2.batched)
	}
	if d1, d2 := net1.Stats.Delivered[packet.KindLegit].Packets, net2.Stats.Delivered[packet.KindLegit].Packets; d1 != d2 || d2 != n/2 {
		t.Errorf("delivered per-packet=%d batched=%d, want %d", d1, d2, n/2)
	}
	if f1, f2 := net1.Stats.DropTotal(DropFilter), net2.Stats.DropTotal(DropFilter); f1 != f2 || f2 != n/2 {
		t.Errorf("filter drops per-packet=%d batched=%d, want %d", f1, f2, n/2)
	}
	if b1.Delivered[packet.KindLegit] != b2.Delivered[packet.KindLegit] {
		t.Errorf("per-host delivery diverged: %d vs %d", b1.Delivered[packet.KindLegit], b2.Delivered[packet.KindLegit])
	}
	if net1.Stats.Sent[packet.KindLegit].Packets != net2.Stats.Sent[packet.KindLegit].Packets {
		t.Error("sent accounting diverged")
	}
}

func TestPacketPoolRoundTrip(t *testing.T) {
	s := sim.New(1)
	n, err := New(s, topology.Line(2), DefaultLink)
	if err != nil {
		t.Fatal(err)
	}
	p := n.GetPacket()
	p.Src, p.TTL, p.Size = 42, 7, 999
	n.PutPacket(p)
	q := n.GetPacket()
	if q != p {
		t.Fatal("pool did not recycle the returned packet")
	}
	if q.Src != 0 || q.TTL != 0 || q.Size != 0 {
		t.Fatalf("recycled packet not zeroed: %+v", q)
	}
}

// Once routing trees, event free lists, pooled link queues and the event
// heap have reached their high-water marks, forwarding must not allocate:
// a closed relay ring over the hubs keeps the packet population constant,
// so every further window of simulated time exercises the same per-hop
// path. Alongside it, constant-rate sources on stub nodes send pooled
// packets to a sink over links that drain between packets, so links keep
// going idle -> busy -> idle, taking in-flight state from the pool and
// returning it, and the sources' shared FIFO keeps cycling.
func TestSteadyStateZeroAlloc(t *testing.T) {
	g, err := topology.BarabasiAlbert(300, 2, sim.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(11)
	n, err := New(s, g, LinkConfig{Bandwidth: 1e10, Delay: sim.Millisecond, QueueCap: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	byDegree := g.NodesByDegree()
	hubs := byDegree[:24]
	hosts := make([]*Host, len(hubs))
	for i, node := range hubs {
		if hosts[i], err = n.AttachHost(node); err != nil {
			t.Fatal(err)
		}
	}
	for i, h := range hosts {
		h, next := h, hosts[(i+1)%len(hosts)].Addr
		h.Recv = func(now sim.Time, pkt *packet.Packet) {
			pkt.Src, pkt.Dst, pkt.TTL = h.Addr, next, 64
			h.Send(now, pkt)
		}
		for k := 0; k < 64; k++ {
			p := n.GetPacket()
			p.Src, p.Dst, p.Kind, p.Size = h.Addr, next, packet.KindLegit, 400
			h.Send(sim.Time(k)*sim.Microsecond, p)
		}
	}
	// 200 pps through 1ms links: a source's first link carries one packet
	// for 1ms out of every 5ms, the phases keeping it idle at multiples
	// of 10ms.
	sink, err := n.AttachHost(hubs[0])
	if err != nil {
		t.Fatal(err)
	}
	sink.Recv = func(_ sim.Time, pkt *packet.Packet) { n.PutPacket(pkt) }
	stubs := byDegree[len(byDegree)-16:]
	for i, node := range stubs {
		h, err := n.AttachHost(node)
		if err != nil {
			t.Fatal(err)
		}
		h.StartCBR(2*sim.Millisecond+sim.Time(i)*100*sim.Microsecond, 200, func(uint64) *packet.Packet {
			p := n.GetPacket()
			p.Src, p.Dst, p.Kind, p.Size = h.Addr, sink.Addr, packet.KindAttack, 400
			return p
		})
	}
	hop, ok := n.Table.NextHop(stubs[0], sink.Node)
	if !ok {
		t.Fatal("no route from a stub to the sink")
	}
	first := n.links[[2]int{stubs[0], hop}] // idle at every window's end
	until := 200 * sim.Millisecond
	if _, err := s.Run(until); err != nil {
		t.Fatal(err)
	}
	delivered := n.Stats.Delivered[packet.KindLegit].Packets
	sunk := n.Stats.Delivered[packet.KindAttack].Packets
	carried := first.stats.Packets
	idle := 0
	avg := testing.AllocsPerRun(20, func() {
		until += 10 * sim.Millisecond
		if _, err := s.Run(until); err != nil {
			t.Fatal(err)
		}
		if first.q == nil {
			idle++
		}
	})
	if n.Stats.Delivered[packet.KindLegit].Packets == delivered {
		t.Fatal("relay ring delivered nothing while measured")
	}
	if n.Stats.Delivered[packet.KindAttack].Packets == sunk || first.stats.Packets == carried || idle == 0 {
		t.Fatalf("constant-rate traffic did not cycle a link idle -> busy -> idle (%d carried, idle at %d window ends)",
			first.stats.Packets-carried, idle)
	}
	if avg != 0 {
		t.Errorf("steady-state forwarding allocates %v per 10ms window, want 0", avg)
	}
}
