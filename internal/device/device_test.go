package device

import (
	"fmt"
	"strings"
	"testing"

	"dtc/internal/packet"
	"dtc/internal/sim"
)

// testComp is a configurable component for exercising the device core.
type testComp struct {
	name    string
	typ     string
	ports   int
	process func(pkt *packet.Packet, env *Env) (int, Result)
}

func (c *testComp) Name() string { return c.name }
func (c *testComp) Type() string { return c.typ }
func (c *testComp) Ports() int   { return c.ports }
func (c *testComp) Process(pkt *packet.Packet, env *Env) (int, Result) {
	return c.process(pkt, env)
}

func passComp(name string) *testComp {
	return &testComp{name: name, typ: "test-pass", ports: 1,
		process: func(*packet.Packet, *Env) (int, Result) { return 0, Forward }}
}

func testRegistry(t *testing.T) *Registry {
	t.Helper()
	reg := NewRegistry()
	for _, m := range []Manifest{
		{Type: "test-pass", SecurityChecked: true},
		{Type: "test-drop", MayDrop: true, SecurityChecked: true},
		{Type: "test-mutate", MayModifyPayload: true, SecurityChecked: true},
		{Type: "test-unchecked", SecurityChecked: false},
	} {
		if err := reg.Register(m); err != nil {
			t.Fatal(err)
		}
	}
	return reg
}

func mkPkt(src, dst string) *packet.Packet {
	return &packet.Packet{
		Src: packet.MustParseAddr(src), Dst: packet.MustParseAddr(dst),
		Proto: packet.UDP, TTL: 60, Size: 100,
	}
}

func TestRegistryDuplicateAndEmpty(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Register(Manifest{Type: "x"}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(Manifest{Type: "x"}); err == nil {
		t.Error("duplicate registration accepted")
	}
	if err := reg.Register(Manifest{}); err == nil {
		t.Error("empty type accepted")
	}
	if reg.Types() != 1 {
		t.Errorf("Types = %d", reg.Types())
	}
}

func TestGraphValidate(t *testing.T) {
	reg := testRegistry(t)

	if err := NewGraph("empty").Validate(reg); err == nil {
		t.Error("empty graph validated")
	}

	ok := Chain("ok", passComp("a"), passComp("b"))
	if err := ok.Validate(reg); err != nil {
		t.Errorf("valid chain rejected: %v", err)
	}

	unknown := Chain("unknown", &testComp{name: "u", typ: "never-registered", ports: 1,
		process: func(*packet.Packet, *Env) (int, Result) { return 0, Forward }})
	if err := unknown.Validate(reg); err == nil {
		t.Error("unregistered type validated")
	}

	unchecked := Chain("unchecked", &testComp{name: "u", typ: "test-unchecked", ports: 1,
		process: func(*packet.Packet, *Env) (int, Result) { return 0, Forward }})
	if err := unchecked.Validate(reg); err == nil || !strings.Contains(err.Error(), "security review") {
		t.Errorf("unreviewed type validated: %v", err)
	}

	// Cycle: a -> b -> a.
	cyc := NewGraph("cycle")
	a := cyc.Add(passComp("a"))
	b := cyc.Add(passComp("b"))
	if err := cyc.Wire(a, 0, b); err != nil {
		t.Fatal(err)
	}
	if err := cyc.Wire(b, 0, a); err != nil {
		t.Fatal(err)
	}
	if err := cyc.Validate(reg); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("cyclic graph validated: %v", err)
	}

	zeroPorts := Chain("zp", &testComp{name: "z", typ: "test-pass", ports: 0,
		process: func(*packet.Packet, *Env) (int, Result) { return 0, Forward }})
	if err := zeroPorts.Validate(reg); err == nil {
		t.Error("zero-port component validated")
	}
}

// TestGraphValidateDeepChain pins the cycle check to bounded stack depth:
// a 100k-node linear chain must validate without overflowing the goroutine
// stack (the check is an explicit worklist, not recursion — a chain this
// deep blew the stack under the recursive formulation).
func TestGraphValidateDeepChain(t *testing.T) {
	reg := testRegistry(t)
	const n = 100_000
	g := NewGraph("deep")
	for i := 0; i < n; i++ {
		g.Add(passComp(fmt.Sprintf("c%d", i)))
	}
	for i := 0; i < n-1; i++ {
		if err := g.Wire(i, 0, i+1); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Wire(n-1, 0, Exit); err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(reg); err != nil {
		t.Fatalf("deep chain rejected: %v", err)
	}
	// Close the loop at the far end: the worklist must still find it.
	if err := g.Wire(n-1, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(reg); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("deep cycle not detected: %v", err)
	}
}

func TestGraphWireErrors(t *testing.T) {
	g := NewGraph("w")
	a := g.Add(passComp("a"))
	if err := g.Wire(99, 0, a); err == nil {
		t.Error("wire from unknown node accepted")
	}
	if err := g.Wire(a, 5, Exit); err == nil {
		t.Error("wire from unknown port accepted")
	}
	if err := g.Wire(a, 0, 99); err == nil {
		t.Error("wire to unknown node accepted")
	}
	if err := g.Wire(a, 0, Exit); err != nil {
		t.Errorf("wire to Exit rejected: %v", err)
	}
	if g.Len() != 1 || g.Component(0).Name() != "a" {
		t.Error("graph accessors wrong")
	}
}

func TestDeviceFastPath(t *testing.T) {
	reg := testRegistry(t)
	d := New(7, reg, sim.NewRNG(1))
	ran := false
	g := Chain("svc", &testComp{name: "spy", typ: "test-pass", ports: 1,
		process: func(*packet.Packet, *Env) (int, Result) { ran = true; return 0, Forward }})
	if err := d.Install("acme", StageDest, g); err != nil {
		t.Fatal(err)
	}
	if err := d.BindOwner(packet.MustParsePrefix("10.0.0.0/16"), "acme"); err != nil {
		t.Fatal(err)
	}

	// Unowned traffic takes the fast path: graph must not run.
	if !d.Process(0, mkPkt("1.2.3.4", "5.6.7.8"), Local) {
		t.Error("unowned packet dropped")
	}
	if ran {
		t.Error("graph ran on unowned packet")
	}
	st := d.Stats()
	if st.Seen != 1 || st.Redirected != 0 {
		t.Errorf("stats = %+v", st)
	}

	// Owned destination: redirected, stage runs.
	if !d.Process(0, mkPkt("1.2.3.4", "10.0.1.1"), Local) {
		t.Error("owned packet dropped by pass-through graph")
	}
	if !ran {
		t.Error("graph did not run for owned packet")
	}
	if d.Stats().Redirected != 1 {
		t.Errorf("redirected = %d", d.Stats().Redirected)
	}
}

const testLocal = -1

// Local mirrors netsim.Local without importing it (device must not depend
// on netsim).
const Local = testLocal

func TestDeviceTwoStageOrder(t *testing.T) {
	reg := testRegistry(t)
	d := New(0, reg, sim.NewRNG(1))
	var order []string
	mk := func(tag string) *Graph {
		return Chain(tag, &testComp{name: tag, typ: "test-pass", ports: 1,
			process: func(_ *packet.Packet, env *Env) (int, Result) {
				order = append(order, tag+":"+env.Owner+":"+env.Stage.String())
				return 0, Forward
			}})
	}
	if err := d.BindOwner(packet.MustParsePrefix("10.0.0.0/16"), "src-owner"); err != nil {
		t.Fatal(err)
	}
	if err := d.BindOwner(packet.MustParsePrefix("20.0.0.0/16"), "dst-owner"); err != nil {
		t.Fatal(err)
	}
	if err := d.Install("src-owner", StageSource, mk("s")); err != nil {
		t.Fatal(err)
	}
	if err := d.Install("dst-owner", StageDest, mk("d")); err != nil {
		t.Fatal(err)
	}
	// Cross-owner packet: source stage must run before destination stage
	// (paper §4.1: control handover source -> destination).
	if !d.Process(0, mkPkt("10.0.0.1", "20.0.0.1"), Local) {
		t.Fatal("packet dropped")
	}
	if len(order) != 2 || order[0] != "s:src-owner:source" || order[1] != "d:dst-owner:dest" {
		t.Errorf("stage order = %v", order)
	}
}

func TestDeviceOwnershipConfinement(t *testing.T) {
	reg := testRegistry(t)
	d := New(0, reg, sim.NewRNG(1))
	dropAll := Chain("drop-all", &testComp{name: "d", typ: "test-drop", ports: 1,
		process: func(*packet.Packet, *Env) (int, Result) { return 0, Discard }})
	if err := d.BindOwner(packet.MustParsePrefix("10.0.0.0/16"), "acme"); err != nil {
		t.Fatal(err)
	}
	if err := d.Install("acme", StageSource, dropAll); err != nil {
		t.Fatal(err)
	}
	if err := d.Install("acme", StageDest, dropAll); err != nil {
		t.Fatal(err)
	}
	// acme's aggressive drop-all service must not touch foreign traffic.
	for i := 0; i < 100; i++ {
		if !d.Process(0, mkPkt("1.1.1.1", "2.2.2.2"), Local) {
			t.Fatal("foreign packet dropped by acme's service")
		}
	}
	// But acme's own traffic is dropped in both directions.
	if d.Process(0, mkPkt("10.0.0.5", "2.2.2.2"), Local) {
		t.Error("acme-sourced packet not dropped")
	}
	if d.Process(0, mkPkt("2.2.2.2", "10.0.0.5"), Local) {
		t.Error("acme-destined packet not dropped")
	}
	if d.Stats().Discarded != 2 {
		t.Errorf("discarded = %d", d.Stats().Discarded)
	}
}

func TestDeviceSafetyMonitorRevertsAndQuarantines(t *testing.T) {
	reg := testRegistry(t)
	d := New(0, reg, sim.NewRNG(1))
	var events []Event
	d.SetEventBus(func(e Event) { events = append(events, e) })

	evil := Chain("evil", &testComp{name: "rewrite", typ: "test-mutate", ports: 1,
		process: func(p *packet.Packet, _ *Env) (int, Result) {
			p.Dst = packet.MustParseAddr("66.66.66.66") // rerouting attempt
			return 0, Forward
		}})
	if err := d.BindOwner(packet.MustParsePrefix("10.0.0.0/16"), "mallory"); err != nil {
		t.Fatal(err)
	}
	if err := d.Install("mallory", StageSource, evil); err != nil {
		t.Fatal(err)
	}

	pkt := mkPkt("10.0.0.1", "20.0.0.1")
	if !d.Process(0, pkt, Local) {
		t.Fatal("packet dropped instead of reverted")
	}
	if pkt.Dst != packet.MustParseAddr("20.0.0.1") {
		t.Error("destination mutation not reverted")
	}
	st := d.Stats()
	if st.Violations != 1 || st.Quarantines != 1 {
		t.Errorf("stats = %+v", st)
	}
	if !d.Quarantined("mallory", StageSource) {
		t.Error("service not quarantined")
	}
	if len(events) != 1 || !strings.Contains(events[0].Message, "quarantined") {
		t.Errorf("events = %v", events)
	}

	// Quarantined service no longer runs.
	pkt2 := mkPkt("10.0.0.1", "20.0.0.1")
	if !d.Process(0, pkt2, Local) {
		t.Fatal("packet dropped")
	}
	if d.Stats().Violations != 1 {
		t.Error("quarantined service ran again")
	}
}

func TestDeviceSafetyMonitorCatchesEachField(t *testing.T) {
	reg := testRegistry(t)
	mutations := map[string]func(*packet.Packet){
		"src":  func(p *packet.Packet) { p.Src++ },
		"dst":  func(p *packet.Packet) { p.Dst++ },
		"ttl":  func(p *packet.Packet) { p.TTL = 255 },
		"grow": func(p *packet.Packet) { p.Size += 1000 },
	}
	for field, mutate := range mutations {
		d := New(0, reg, sim.NewRNG(1))
		g := Chain("m-"+field, &testComp{name: field, typ: "test-mutate", ports: 1,
			process: func(p *packet.Packet, _ *Env) (int, Result) { mutate(p); return 0, Forward }})
		if err := d.BindOwner(packet.MustParsePrefix("10.0.0.0/16"), "o"); err != nil {
			t.Fatal(err)
		}
		if err := d.Install("o", StageSource, g); err != nil {
			t.Fatal(err)
		}
		before := mkPkt("10.0.0.1", "20.0.0.1")
		want := *before
		if !d.Process(0, before, Local) {
			t.Fatalf("%s: dropped", field)
		}
		if before.Src != want.Src || before.Dst != want.Dst || before.TTL != want.TTL || before.Size != want.Size {
			t.Errorf("%s mutation not reverted: %+v", field, before)
		}
		if d.Stats().Violations != 1 {
			t.Errorf("%s: violations = %d", field, d.Stats().Violations)
		}
	}
}

func TestDeviceShrinkIsAllowed(t *testing.T) {
	reg := testRegistry(t)
	d := New(0, reg, sim.NewRNG(1))
	g := Chain("shrink", &testComp{name: "s", typ: "test-mutate", ports: 1,
		process: func(p *packet.Packet, _ *Env) (int, Result) {
			p.Payload = nil
			p.Size = packet.MinHeaderBytes
			return 0, Forward
		}})
	if err := d.BindOwner(packet.MustParsePrefix("10.0.0.0/16"), "o"); err != nil {
		t.Fatal(err)
	}
	if err := d.Install("o", StageSource, g); err != nil {
		t.Fatal(err)
	}
	pkt := mkPkt("10.0.0.1", "20.0.0.1")
	pkt.Size = 500
	pkt.Payload = []byte("secret")
	if !d.Process(0, pkt, Local) {
		t.Fatal("dropped")
	}
	if pkt.Size != packet.MinHeaderBytes || pkt.Payload != nil {
		t.Error("legitimate shrink reverted")
	}
	if d.Stats().Violations != 0 {
		t.Error("shrink counted as violation")
	}
}

func TestDeviceInstallValidation(t *testing.T) {
	reg := testRegistry(t)
	d := New(0, reg, sim.NewRNG(1))
	if err := d.Install("", StageSource, Chain("x", passComp("a"))); err == nil {
		t.Error("empty owner accepted")
	}
	if err := d.Install("o", numStages, Chain("x", passComp("a"))); err == nil {
		t.Error("invalid stage accepted")
	}
	if err := d.Install("o", StageSource, NewGraph("empty")); err == nil {
		t.Error("invalid graph accepted")
	}
}

func TestDeviceBindConflictsAndUnbind(t *testing.T) {
	reg := testRegistry(t)
	d := New(0, reg, sim.NewRNG(1))
	p := packet.MustParsePrefix("10.0.0.0/16")
	if err := d.BindOwner(p, "a"); err != nil {
		t.Fatal(err)
	}
	if err := d.BindOwner(p, "b"); err == nil {
		t.Error("rebinding to different owner accepted")
	}
	if err := d.BindOwner(p, "a"); err != nil {
		t.Error("idempotent rebind rejected")
	}
	if err := d.BindOwner(packet.MustParsePrefix("20.0.0.0/16"), ""); err == nil {
		t.Error("empty owner accepted")
	}
	if o, ok := d.OwnerOf(packet.MustParseAddr("10.0.5.5")); !ok || o != "a" {
		t.Errorf("OwnerOf = %q,%v", o, ok)
	}
	d.UnbindOwner(p)
	if _, ok := d.OwnerOf(packet.MustParseAddr("10.0.5.5")); ok {
		t.Error("owner survives unbind")
	}
}

func TestDeviceEnableDisableRemove(t *testing.T) {
	reg := testRegistry(t)
	d := New(0, reg, sim.NewRNG(1))
	drop := Chain("drop", &testComp{name: "d", typ: "test-drop", ports: 1,
		process: func(*packet.Packet, *Env) (int, Result) { return 0, Discard }})
	if err := d.BindOwner(packet.MustParsePrefix("10.0.0.0/16"), "o"); err != nil {
		t.Fatal(err)
	}
	if err := d.Install("o", StageDest, drop); err != nil {
		t.Fatal(err)
	}
	if d.Process(0, mkPkt("1.1.1.1", "10.0.0.1"), Local) {
		t.Error("enabled drop service passed packet")
	}
	if err := d.SetEnabled("o", StageDest, false); err != nil {
		t.Fatal(err)
	}
	if !d.Process(0, mkPkt("1.1.1.1", "10.0.0.1"), Local) {
		t.Error("disabled service still dropping")
	}
	if err := d.SetEnabled("o", StageDest, true); err != nil {
		t.Fatal(err)
	}
	if d.Process(0, mkPkt("1.1.1.1", "10.0.0.1"), Local) {
		t.Error("re-enabled service not dropping")
	}
	proc, disc, ok := d.ServiceCounters("o", StageDest)
	if !ok || proc != 2 || disc != 2 {
		t.Errorf("counters = %d,%d,%v", proc, disc, ok)
	}
	d.Remove("o", StageDest)
	if !d.Process(0, mkPkt("1.1.1.1", "10.0.0.1"), Local) {
		t.Error("removed service still dropping")
	}
	if err := d.SetEnabled("o", StageDest, true); err == nil {
		t.Error("SetEnabled on removed service succeeded")
	}
	if _, _, ok := d.ServiceCounters("o", StageDest); ok {
		t.Error("counters for removed service")
	}
	if _, _, ok := d.ServiceCounters("nobody", StageSource); ok {
		t.Error("counters for unknown owner")
	}
}

func TestGraphBranching(t *testing.T) {
	reg := testRegistry(t)
	d := New(0, reg, sim.NewRNG(1))
	// Branching graph: port 1 of the classifier discards, port 0 passes.
	g := NewGraph("branch")
	cls := g.Add(&testComp{name: "cls", typ: "test-pass", ports: 2,
		process: func(p *packet.Packet, _ *Env) (int, Result) {
			if p.DstPort == 666 {
				return 1, Forward
			}
			return 0, Forward
		}})
	sink := g.Add(&testComp{name: "sink", typ: "test-drop", ports: 1,
		process: func(*packet.Packet, *Env) (int, Result) { return 0, Discard }})
	if err := g.Wire(cls, 1, sink); err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(reg); err != nil {
		t.Fatal(err)
	}
	if err := d.BindOwner(packet.MustParsePrefix("10.0.0.0/16"), "o"); err != nil {
		t.Fatal(err)
	}
	if err := d.Install("o", StageDest, g); err != nil {
		t.Fatal(err)
	}
	bad := mkPkt("1.1.1.1", "10.0.0.1")
	bad.DstPort = 666
	good := mkPkt("1.1.1.1", "10.0.0.1")
	good.DstPort = 80
	if d.Process(0, good, Local) != true {
		t.Error("good packet dropped")
	}
	if d.Process(0, bad, Local) != false {
		t.Error("bad packet passed")
	}
}

func TestStageString(t *testing.T) {
	if StageSource.String() != "source" || StageDest.String() != "dest" {
		t.Error("stage strings wrong")
	}
}

func TestEnvEmitNilSafe(t *testing.T) {
	e := &Env{}
	e.EmitEvent("c", "m") // must not panic
}

func TestCapabilityEnforcementDrop(t *testing.T) {
	reg := testRegistry(t)
	d := New(0, reg, sim.NewRNG(1))
	// "test-pass" is registered WITHOUT MayDrop; a rogue instance that
	// discards anyway must be caught and quarantined, and the packet
	// forwarded rather than silently dropped.
	rogue := Chain("rogue", &testComp{name: "rogue", typ: "test-pass", ports: 1,
		process: func(*packet.Packet, *Env) (int, Result) { return 0, Discard }})
	if err := d.BindOwner(packet.MustParsePrefix("10.0.0.0/8"), "o"); err != nil {
		t.Fatal(err)
	}
	if err := d.Install("o", StageDest, rogue); err != nil {
		t.Fatal(err)
	}
	var events []Event
	d.SetEventBus(func(e Event) { events = append(events, e) })
	pkt := mkPkt("1.1.1.1", "10.0.0.1")
	if !d.Process(0, pkt, Local) {
		t.Error("packet dropped by component lacking MayDrop")
	}
	if !d.Quarantined("o", StageDest) {
		t.Error("capability violation not quarantined")
	}
	if d.Stats().Violations != 1 {
		t.Errorf("violations = %d", d.Stats().Violations)
	}
	if len(events) != 1 || !strings.Contains(events[0].Message, "MayDrop") {
		t.Errorf("events = %v", events)
	}
}

func TestCapabilityEnforcementPayload(t *testing.T) {
	reg := testRegistry(t)
	d := New(0, reg, sim.NewRNG(1))
	// "test-drop" has MayDrop but NOT MayModifyPayload.
	rogue := Chain("rogue", &testComp{name: "rogue", typ: "test-drop", ports: 1,
		process: func(p *packet.Packet, _ *Env) (int, Result) {
			p.Size = packet.MinHeaderBytes // illegal shrink for this type
			return 0, Forward
		}})
	if err := d.BindOwner(packet.MustParsePrefix("10.0.0.0/8"), "o"); err != nil {
		t.Fatal(err)
	}
	if err := d.Install("o", StageDest, rogue); err != nil {
		t.Fatal(err)
	}
	pkt := mkPkt("1.1.1.1", "10.0.0.1")
	want := pkt.Size
	if !d.Process(0, pkt, Local) {
		t.Error("packet dropped")
	}
	if pkt.Size != want {
		t.Errorf("size not restored: %d", pkt.Size)
	}
	if !d.Quarantined("o", StageDest) {
		t.Error("payload-capability violation not quarantined")
	}
}

func TestCapabilityAllowsDeclaredBehaviour(t *testing.T) {
	reg := testRegistry(t)
	d := New(0, reg, sim.NewRNG(1))
	// "test-mutate" declares MayModifyPayload: shrinking is fine.
	ok := Chain("ok", &testComp{name: "ok", typ: "test-mutate", ports: 1,
		process: func(p *packet.Packet, _ *Env) (int, Result) {
			p.Size = packet.MinHeaderBytes
			p.Payload = nil
			return 0, Forward
		}})
	if err := d.BindOwner(packet.MustParsePrefix("10.0.0.0/8"), "o"); err != nil {
		t.Fatal(err)
	}
	if err := d.Install("o", StageDest, ok); err != nil {
		t.Fatal(err)
	}
	pkt := mkPkt("1.1.1.1", "10.0.0.1")
	pkt.Size = 500
	if !d.Process(0, pkt, Local) {
		t.Error("packet dropped")
	}
	if d.Stats().Violations != 0 || d.Quarantined("o", StageDest) {
		t.Error("declared payload modification flagged as violation")
	}
}

// TestInstallFreezesGraph edits a graph through the caller's *Graph after
// Install: the device must keep running the graph it validated, with
// capability checks intact.
func TestInstallFreezesGraph(t *testing.T) {
	for _, target := range []string{"test-pass", "unregistered"} {
		t.Run(target, func(t *testing.T) {
			d := New(0, testRegistry(t), sim.NewRNG(1))
			var events []Event
			d.SetEventBus(func(e Event) { events = append(events, e) })
			if err := d.BindOwner(packet.MustParsePrefix("10.0.0.0/8"), "o"); err != nil {
				t.Fatal(err)
			}
			var entered int
			g := Chain("g", &testComp{name: "entry", typ: "test-pass", ports: 1,
				process: func(*packet.Packet, *Env) (int, Result) { entered++; return 0, Forward }})
			if err := d.Install("o", StageDest, g); err != nil {
				t.Fatal(err)
			}

			// "test-pass" lacks MayDrop; "unregistered" was never reviewed.
			// Either dropper, if it ran, would discard every packet.
			var dropped int
			dropper := func(typ string) *testComp {
				return &testComp{name: typ + "-dropper", typ: typ, ports: 1,
					process: func(*packet.Packet, *Env) (int, Result) { dropped++; return 0, Discard }}
			}
			noDrop := g.Add(dropper("test-pass"))
			unregistered := g.Add(dropper("unregistered"))
			to := noDrop
			if target == "unregistered" {
				to = unregistered
			}
			if err := g.Wire(0, 0, to); err != nil {
				t.Fatal(err)
			}

			const n = 5
			for i := 0; i < n; i++ {
				if !d.Process(sim.Time(i), mkPkt("1.1.1.1", "10.0.0.1"), Local) {
					t.Fatalf("packet %d dropped by a node added after install", i)
				}
			}
			if entered != n || dropped != 0 {
				t.Errorf("entry ran %d times, added nodes %d; want %d and 0", entered, dropped, n)
			}
			if want := (Stats{Seen: n, Redirected: n}); d.Stats() != want {
				t.Errorf("stats = %+v, want %+v", d.Stats(), want)
			}
			if len(events) != 0 || d.Quarantined("o", StageDest) {
				t.Errorf("events = %v, quarantined = %v", events, d.Quarantined("o", StageDest))
			}
			if processed, discarded, _ := d.ServiceCounters("o", StageDest); processed != n || discarded != 0 {
				t.Errorf("service counters = %d/%d, want %d/0", processed, discarded, n)
			}
		})
	}
}
