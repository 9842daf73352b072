package device_test

// Fuzz-style property tests: arbitrary service graphs built from the
// standard module library, processing arbitrary packets, can never
// violate the §4.5 safety rules — src/dst/TTL immutable, size never
// grows, foreign traffic untouched — and never panic.

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"dtc/internal/device"
	"dtc/internal/device/modules"
	"dtc/internal/packet"
	"dtc/internal/sim"
)

// randomComponent builds one arbitrary module instance.
func randomComponent(rng *sim.RNG, i int) device.TypedComponent {
	label := fmt.Sprintf("c%d", i)
	switch rng.Intn(10) {
	case 0:
		return &modules.Filter{Label: label, Rules: []modules.Match{
			{DstPort: uint16(rng.Intn(1024))},
			{Proto: packet.Proto([]packet.Proto{packet.TCP, packet.UDP, packet.ICMP}[rng.Intn(3)])},
		}, AllowMode: rng.Intn(2) == 0}
	case 1:
		return &modules.Classifier{Label: label, Rules: []modules.Match{
			{MinSize: rng.Intn(200)},
		}}
	case 2:
		return &modules.RateLimiter{Label: label, Rate: 1 + float64(rng.Intn(1000)), Burst: 1 + float64(rng.Intn(50)), ByteMode: rng.Intn(2) == 0}
	case 3:
		b := modules.NewBlacklist(label)
		for j := 0; j < rng.Intn(5); j++ {
			b.Add(packet.Addr(rng.Uint32()))
		}
		return b
	case 4:
		return &modules.AntiSpoof{Label: label, Strict: rng.Intn(2) == 0}
	case 5:
		return &modules.PayloadScrub{Label: label}
	case 6:
		return modules.NewLogger(label, 1+rng.Intn(16))
	case 7:
		return modules.NewStats(label, modules.Match{Proto: packet.UDP})
	case 8:
		return &modules.Trigger{Label: label, Window: sim.Millisecond * sim.Time(1+rng.Intn(100)), Threshold: uint64(1 + rng.Intn(10))}
	default:
		return &modules.Switch{Label: label}
	}
}

// randomGraph wires size random components into a random DAG (forward
// edges only, so acyclicity holds by construction).
func randomGraph(rng *sim.RNG, size int) *device.Graph {
	g := device.NewGraph("fuzz")
	comps := make([]device.TypedComponent, size)
	for i := 0; i < size; i++ {
		comps[i] = randomComponent(rng, i)
		g.Add(comps[i])
	}
	for i := 0; i < size; i++ {
		for p := 0; p < comps[i].Ports(); p++ {
			// Wire each port to a later node or to Exit.
			choices := size - i // later nodes + exit
			pick := rng.Intn(choices)
			to := device.Exit
			if pick > 0 {
				to = i + pick
			}
			if err := g.Wire(i, p, to); err != nil {
				panic(err)
			}
		}
	}
	return g
}

func randomPacket(rng *sim.RNG) *packet.Packet {
	p := &packet.Packet{
		Src:      packet.Addr(rng.Uint32()),
		Dst:      packet.Addr(rng.Uint32()),
		Proto:    packet.Proto(rng.Intn(20)),
		TTL:      uint8(1 + rng.Intn(255)),
		SrcPort:  uint16(rng.Uint32()),
		DstPort:  uint16(rng.Uint32()),
		Flags:    uint8(rng.Uint32()),
		ICMPCode: uint8(rng.Uint32()),
		Seq:      rng.Uint32(),
		Size:     packet.MinHeaderBytes + rng.Intn(1400),
		Kind:     packet.Kind(rng.Intn(5)),
	}
	if payload := rng.Intn(3); payload == 0 {
		n := rng.Intn(p.Size - packet.MinHeaderBytes + 1)
		p.Payload = make([]byte, n)
		for i := range p.Payload {
			p.Payload[i] = byte(rng.Uint32())
		}
	}
	return p
}

func TestFuzzRandomGraphsRespectSafetyRules(t *testing.T) {
	f := func(seed uint64, sizeRaw, pktsRaw uint8) bool {
		rng := sim.NewRNG(seed)
		size := 1 + int(sizeRaw)%8
		nPkts := 1 + int(pktsRaw)%64

		reg := modules.NewRegistry()
		dev := device.New(0, reg, rng.Fork())
		ownedPfx := packet.MustParsePrefix("10.0.0.0/8")
		if err := dev.BindOwner(ownedPfx, "owner"); err != nil {
			return false
		}
		g := randomGraph(rng, size)
		if err := g.Validate(reg); err != nil {
			return false // library graphs must always validate
		}
		if err := dev.Install("owner", device.StageDest, g); err != nil {
			return false
		}
		g2 := randomGraph(rng, size)
		if err := dev.Install("owner", device.StageSource, g2); err != nil {
			return false
		}

		now := sim.Time(0)
		for i := 0; i < nPkts; i++ {
			p := randomPacket(rng)
			// Half the packets are owned (dst in 10/8), half foreign.
			if rng.Intn(2) == 0 {
				p.Dst = packet.Addr(0x0A000000 | rng.Uint32()&0xFFFFFF)
			}
			before := *p
			beforePayload := append([]byte(nil), p.Payload...)
			dev.Process(now, p, -1)
			now += sim.Time(rng.Intn(1000)) * sim.Microsecond

			// Safety invariants hold whether the packet was owned or not.
			if p.Src != before.Src || p.Dst != before.Dst || p.TTL != before.TTL {
				return false
			}
			if p.Size > before.Size {
				return false
			}
			if p.Validate() != nil {
				return false
			}
			// Foreign packets are fully untouched (scrub may only shrink
			// owned packets).
			owned := ownedPfx.Contains(before.Dst) || ownedPfx.Contains(before.Src)
			if !owned {
				if p.Size != before.Size || len(p.Payload) != len(beforePayload) {
					return false
				}
			}
		}
		// The library modules are all compliant: no violations expected.
		return dev.Stats().Violations == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestFuzzQuarantineContainsHostileModules mixes one hostile component
// into otherwise-random graphs and verifies the monitor always contains
// it without collateral.
func TestFuzzQuarantineContainsHostileModules(t *testing.T) {
	f := func(seed uint64, mutKind uint8) bool {
		rng := sim.NewRNG(seed)
		reg := modules.NewRegistry()
		if err := reg.Register(device.Manifest{Type: "hostile", MayModifyPayload: true, SecurityChecked: true}); err != nil {
			return false
		}
		dev := device.New(0, reg, rng.Fork())
		if err := dev.BindOwner(packet.MustParsePrefix("10.0.0.0/8"), "evil"); err != nil {
			return false
		}
		mutate := []func(*packet.Packet){
			func(p *packet.Packet) { p.Src++ },
			func(p *packet.Packet) { p.Dst-- },
			func(p *packet.Packet) { p.TTL += 7 },
			func(p *packet.Packet) { p.Size += 1 + int(mutKind) },
		}[int(mutKind)%4]
		g := device.Chain("h", &hostileComp{mutate: mutate})
		if err := dev.Install("evil", device.StageDest, g); err != nil {
			return false
		}
		for i := 0; i < 10; i++ {
			p := randomPacket(rng)
			p.Dst = packet.Addr(0x0A000000 | rng.Uint32()&0xFFFFFF)
			before := *p
			dev.Process(0, p, -1)
			if p.Src != before.Src || p.Dst != before.Dst || p.TTL != before.TTL || p.Size > before.Size {
				return false
			}
		}
		return dev.Quarantined("evil", device.StageDest) && dev.Stats().Violations == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// clonePacket deep-copies a packet (payload included) so the same logical
// packet can be fed to two devices independently.
func clonePacket(p *packet.Packet) *packet.Packet {
	q := *p
	if p.Payload != nil {
		q.Payload = append([]byte(nil), p.Payload...)
	}
	return &q
}

// samePacket compares the full post-processing packet state.
func samePacket(a, b *packet.Packet) bool {
	if a.Src != b.Src || a.Dst != b.Dst || a.Proto != b.Proto || a.TTL != b.TTL ||
		a.SrcPort != b.SrcPort || a.DstPort != b.DstPort || a.Flags != b.Flags ||
		a.ICMPCode != b.ICMPCode || a.Seq != b.Seq || a.Size != b.Size || a.Kind != b.Kind {
		return false
	}
	return bytes.Equal(a.Payload, b.Payload)
}

// buildDifferentialDevice constructs a device from seed: two owners with
// random graphs on both stages, optionally a hostile (safety-violating)
// module on the second owner's dest stage. Called twice with the same seed
// it produces behaviourally identical devices.
func buildDifferentialDevice(seed uint64, size int, hostile bool) (*device.Device, *[]device.Event, error) {
	rng := sim.NewRNG(seed)
	reg := modules.NewRegistry()
	if err := reg.Register(device.Manifest{Type: "hostile", MayModifyPayload: true, SecurityChecked: true}); err != nil {
		return nil, nil, err
	}
	dev := device.New(0, reg, rng.Fork())
	events := &[]device.Event{}
	dev.SetEventBus(func(e device.Event) { *events = append(*events, e) })
	if err := dev.BindOwner(packet.MustParsePrefix("10.0.0.0/8"), "owner"); err != nil {
		return nil, nil, err
	}
	if err := dev.BindOwner(packet.MustParsePrefix("20.0.0.0/8"), "peer"); err != nil {
		return nil, nil, err
	}
	if err := dev.Install("owner", device.StageSource, randomGraph(rng, size)); err != nil {
		return nil, nil, err
	}
	if err := dev.Install("owner", device.StageDest, randomGraph(rng, size)); err != nil {
		return nil, nil, err
	}
	if err := dev.Install("peer", device.StageSource, randomGraph(rng, size)); err != nil {
		return nil, nil, err
	}
	peerDst := randomGraph(rng, size)
	if hostile {
		peerDst = device.Chain("h", &hostileComp{mutate: func(p *packet.Packet) { p.TTL += 3 }})
	}
	if err := dev.Install("peer", device.StageDest, peerDst); err != nil {
		return nil, nil, err
	}
	return dev, events, nil
}

// differentialPacket derives one packet biased so that redirected traffic,
// fused two-owner pipelines, and fast-path misses all occur.
func differentialPacket(rng *sim.RNG) *packet.Packet {
	p := randomPacket(rng)
	switch rng.Intn(5) {
	case 0:
		p.Src = packet.Addr(0x0A000000 | rng.Uint32()&0xFFFFFF)
	case 1:
		p.Dst = packet.Addr(0x0A000000 | rng.Uint32()&0xFFFFFF)
	case 2:
		p.Src = packet.Addr(0x0A000000 | rng.Uint32()&0xFFFFFF)
		p.Dst = packet.Addr(0x14000000 | rng.Uint32()&0xFFFFFF)
	case 3:
		p.Dst = packet.Addr(0x14000000 | rng.Uint32()&0xFFFFFF)
	}
	return p
}

// checkBatchVsSingle builds two identical devices from seed, feeds the same
// packet stream to one through Process and to the other through
// ProcessBatch, and reports the first difference: a packet that broke a
// §4.5 rule (src/dst/TTL changed, size grown, invalid), or a divergence in
// verdicts, packets, Stats, per-service counters or events.
func checkBatchVsSingle(seed uint64, sizeRaw, pktsRaw uint8, hostile bool) error {
	size := 1 + int(sizeRaw)%8
	nPkts := 1 + int(pktsRaw)%64

	devS, evS, err := buildDifferentialDevice(seed, size, hostile)
	if err != nil {
		return err
	}
	devB, evB, err := buildDifferentialDevice(seed, size, hostile)
	if err != nil {
		return err
	}

	pktRNG := sim.NewRNG(seed ^ 0xD1B54A32D192ED03)
	orig := make([]*packet.Packet, nPkts)
	single := make([]*packet.Packet, nPkts)
	batch := make([]*packet.Packet, nPkts)
	for i := range orig {
		orig[i] = differentialPacket(pktRNG)
		single[i], batch[i] = clonePacket(orig[i]), clonePacket(orig[i])
	}
	wantKeep := make([]bool, nPkts)
	for i, p := range single {
		wantKeep[i] = devS.Process(0, p, -1)
	}
	gotKeep := make([]bool, nPkts)
	devB.ProcessBatch(0, batch, -1, gotKeep)

	for i, o := range orig {
		for _, p := range []*packet.Packet{single[i], batch[i]} {
			if p.Src != o.Src || p.Dst != o.Dst || p.TTL != o.TTL || p.Size > o.Size || p.Validate() != nil {
				return fmt.Errorf("seed %d pkt %d: safety rule broken: before %+v after %+v", seed, i, o, p)
			}
		}
		if wantKeep[i] != gotKeep[i] || !samePacket(single[i], batch[i]) {
			return fmt.Errorf("seed %d pkt %d: single keep=%v batch keep=%v", seed, i, wantKeep[i], gotKeep[i])
		}
	}
	if devS.Stats() != devB.Stats() {
		return fmt.Errorf("seed %d: stats single=%+v batch=%+v", seed, devS.Stats(), devB.Stats())
	}
	if ss, sb := devS.Services(), devB.Services(); !slices.Equal(ss, sb) {
		return fmt.Errorf("seed %d: services single=%+v batch=%+v", seed, ss, sb)
	}
	if !slices.Equal(*evS, *evB) {
		return fmt.Errorf("seed %d: events single=%+v batch=%+v", seed, *evS, *evB)
	}
	return nil
}

// TestFuzzBatchMatchesSingle checks ProcessBatch against per-packet
// Process on identically-built devices: same verdicts, same counters, same
// per-service state, same events — batching is an optimization, never a
// semantic change.
func TestFuzzBatchMatchesSingle(t *testing.T) {
	f := func(seed uint64, sizeRaw, pktsRaw uint8, hostile bool) bool {
		if err := checkBatchVsSingle(seed, sizeRaw, pktsRaw, hostile); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// FuzzDeviceGraphs is the device engine's native fuzz target: the fuzz
// input seeds two owners' random graphs (optionally with a hostile module)
// and a packet stream biased toward redirected traffic, checked by
// checkBatchVsSingle.
func FuzzDeviceGraphs(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(0), false)
	f.Add(uint64(42), uint8(3), uint8(31), true)
	f.Add(uint64(0x9E3779B97F4A7C15), uint8(7), uint8(63), false)
	f.Fuzz(func(t *testing.T, seed uint64, sizeRaw, pktsRaw uint8, hostile bool) {
		if err := checkBatchVsSingle(seed, sizeRaw, pktsRaw, hostile); err != nil {
			t.Fatal(err)
		}
	})
}

type hostileComp struct {
	mutate func(*packet.Packet)
}

func (h *hostileComp) Name() string { return "hostile" }
func (h *hostileComp) Type() string { return "hostile" }
func (h *hostileComp) Ports() int   { return 1 }
func (h *hostileComp) Process(p *packet.Packet, _ *device.Env) (int, device.Result) {
	h.mutate(p)
	return 0, device.Forward
}
