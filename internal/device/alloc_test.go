package device_test

// Zero-allocation regression guards for the per-packet dispatch path. The
// fast path (no bound owner matches) runs for every packet crossing every
// hooked router, so a single allocation here multiplies across whole
// experiments.

import (
	"testing"

	"dtc/internal/device"
	"dtc/internal/device/modules"
	"dtc/internal/packet"
	"dtc/internal/sim"
)

func TestProcessFastPathZeroAllocs(t *testing.T) {
	dev := device.New(0, modules.NewRegistry(), sim.NewRNG(1))
	if err := dev.BindOwner(packet.MustParsePrefix("10.0.0.0/8"), "acme"); err != nil {
		t.Fatal(err)
	}
	p := &packet.Packet{
		Src: packet.MustParseAddr("30.0.0.1"),
		Dst: packet.MustParseAddr("40.0.0.1"),
		TTL: 60, Size: 100,
	}
	// Warm up: the first Process compiles the owner trie.
	if !dev.Process(0, p, -1) {
		t.Fatal("fast-path packet dropped")
	}
	avg := testing.AllocsPerRun(1000, func() { dev.Process(0, p, -1) })
	if avg != 0 {
		t.Errorf("fast path allocates %v per packet, want 0", avg)
	}
}

// twoStageDevice builds the canonical fused-pipeline workload: a source
// owner with a filter+rate-limit chain and a destination owner with a
// stats chain, so a 10/8 -> 20/8 packet runs both stages.
func twoStageDevice(t testing.TB) *device.Device {
	t.Helper()
	dev := device.New(0, modules.NewRegistry(), sim.NewRNG(1))
	if err := dev.BindOwner(packet.MustParsePrefix("10.0.0.0/8"), "src-own"); err != nil {
		t.Fatal(err)
	}
	if err := dev.BindOwner(packet.MustParsePrefix("20.0.0.0/8"), "dst-own"); err != nil {
		t.Fatal(err)
	}
	srcG := device.Chain("src-chain",
		&modules.Filter{Label: "f", Rules: []modules.Match{{DstPort: 9}}},
		&modules.RateLimiter{Label: "rl", Rate: 1e12, Burst: 1e12})
	if err := dev.Install("src-own", device.StageSource, srcG); err != nil {
		t.Fatal(err)
	}
	dstG := device.Chain("dst-chain",
		modules.NewStats("st", modules.Match{Proto: packet.UDP}))
	if err := dev.Install("dst-own", device.StageDest, dstG); err != nil {
		t.Fatal(err)
	}
	return dev
}

// The full two-stage redirected path — owner lookups, pipeline cache hit,
// two frozen-graph walks — must be allocation-free once warm.
func TestProcessTwoStageZeroAllocs(t *testing.T) {
	dev := twoStageDevice(t)
	p := &packet.Packet{
		Src:   packet.MustParseAddr("10.0.0.1"),
		Dst:   packet.MustParseAddr("20.0.0.1"),
		Proto: packet.UDP, TTL: 60, Size: 100, DstPort: 80,
	}
	if !dev.Process(0, p, -1) {
		t.Fatal("two-stage packet dropped")
	}
	avg := testing.AllocsPerRun(1000, func() { dev.Process(0, p, -1) })
	if avg != 0 {
		t.Errorf("two-stage path allocates %v per packet, want 0", avg)
	}
}

// ProcessBatch with a preallocated verdict slice must also be
// allocation-free: batching exists to amortize work, not to hide it.
func TestProcessBatchZeroAllocs(t *testing.T) {
	dev := twoStageDevice(t)
	const batch = 16
	pkts := make([]*packet.Packet, batch)
	for i := range pkts {
		pkts[i] = &packet.Packet{
			Src:   packet.MustParseAddr("10.0.0.1"),
			Dst:   packet.MustParseAddr("20.0.0.1"),
			Proto: packet.UDP, TTL: 60, Size: 100, DstPort: 80,
		}
	}
	keep := make([]bool, batch)
	dev.ProcessBatch(0, pkts, -1, keep)
	avg := testing.AllocsPerRun(200, func() { dev.ProcessBatch(0, pkts, -1, keep) })
	if avg != 0 {
		t.Errorf("batch path allocates %v per batch, want 0", avg)
	}
}

// A redirected packet whose owner has no installed service graph must also
// stay allocation-free: redirection alone is not an excuse to allocate.
func TestProcessRedirectNoServiceZeroAllocs(t *testing.T) {
	dev := device.New(0, modules.NewRegistry(), sim.NewRNG(1))
	if err := dev.BindOwner(packet.MustParsePrefix("10.0.0.0/8"), "acme"); err != nil {
		t.Fatal(err)
	}
	p := &packet.Packet{
		Src: packet.MustParseAddr("10.0.0.1"),
		Dst: packet.MustParseAddr("40.0.0.1"),
		TTL: 60, Size: 100,
	}
	dev.Process(0, p, -1)
	avg := testing.AllocsPerRun(1000, func() { dev.Process(0, p, -1) })
	if avg != 0 {
		t.Errorf("redirect-without-service path allocates %v per packet, want 0", avg)
	}
}
