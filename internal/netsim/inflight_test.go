package netsim

import (
	"fmt"
	"testing"

	"dtc/internal/packet"
	"dtc/internal/sim"
	"dtc/internal/topology"
)

// These tests pin the link's drop-tail and arrival behaviour at the edges
// where counting the backlog by passed dequeue keys, and parking arrivals
// behind one heap entry per link, could drift from one event per dequeue
// and one per arrival. Every expectation below is what the per-event
// model gives.

// oneNsPerByte serializes a byte per nanosecond: a 1000-byte packet takes
// exactly 1µs on the wire.
const oneNsPerByte = 8e9

// pair builds the line 0-1 with host a on node 0 and host b on node 1,
// and records what b receives as "port@time".
func pair(t *testing.T, cfg LinkConfig) (*sim.Simulation, *Network, *Host, *[]string) {
	t.Helper()
	s := sim.New(1)
	n, err := New(s, topology.Line(2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := n.AttachHost(0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.AttachHost(1)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	b.Recv = func(now sim.Time, p *packet.Packet) {
		got = append(got, fmt.Sprintf("%d@%d", p.SrcPort, int64(now)))
	}
	return s, n, a, &got
}

// pkt is a 1000-byte packet from a to pair's host b, the first on node 1.
func pkt(a *Host, port uint16) *packet.Packet {
	return &packet.Packet{Src: a.Addr, Dst: NodePrefix(1).Nth(1), SrcPort: port, Size: 1000}
}

func expectRecv(t *testing.T, got []string, want ...string) {
	t.Helper()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("received %v, want %v", got, want)
	}
}

// A send at the very nanosecond a queued packet finishes serializing sees
// that packet still queued if the send's event is ordered before the
// packet's dequeue, and gone if it is ordered after or comes between two
// runs.
func TestSendAtDequeueInstant(t *testing.T) {
	cfg := LinkConfig{Bandwidth: oneNsPerByte, Delay: sim.Microsecond, QueueCap: 1}
	t.Run("before", func(t *testing.T) {
		s, n, a, got := pair(t, cfg)
		s.At(1000, sim.EventFunc(func(now sim.Time) { a.Send(now, pkt(a, 2)) }))
		a.Send(0, pkt(a, 1)) // dequeue key (1000ns, later than the event's)
		if _, err := s.RunAll(); err != nil {
			t.Fatal(err)
		}
		expectRecv(t, *got, "1@2000")
		if d := n.Stats.DropTotal(DropQueue); d != 1 {
			t.Fatalf("queue drops = %d, want 1", d)
		}
	})
	t.Run("after", func(t *testing.T) {
		s, n, a, got := pair(t, cfg)
		a.Send(0, pkt(a, 1))
		s.At(1000, sim.EventFunc(func(now sim.Time) { a.Send(now, pkt(a, 2)) }))
		if _, err := s.RunAll(); err != nil {
			t.Fatal(err)
		}
		expectRecv(t, *got, "1@2000", "2@3000")
		if d := n.Stats.DropTotal(DropQueue); d != 0 {
			t.Fatalf("queue drops = %d, want 0", d)
		}
	})
	// A Run that stops at the dequeue instant has dequeued the packet even
	// though no event fired, so a send between runs finds the queue empty.
	t.Run("between runs", func(t *testing.T) {
		s, n, a, got := pair(t, cfg)
		a.Send(0, pkt(a, 1))
		if _, err := s.Run(1000); err != nil {
			t.Fatal(err)
		}
		a.Send(s.Now(), pkt(a, 2))
		if _, err := s.RunAll(); err != nil {
			t.Fatal(err)
		}
		expectRecv(t, *got, "1@2000", "2@3000")
		if d := n.Stats.DropTotal(DropQueue); d != 0 {
			t.Fatalf("queue drops = %d, want 0", d)
		}
	})
}

// A burst injected before Run holds the whole queue: nothing has been
// serialized yet, so everything past QueueCap drops.
func TestBurstBeyondQueueCapBeforeRun(t *testing.T) {
	s, n, a, got := pair(t, LinkConfig{Bandwidth: oneNsPerByte, Delay: sim.Microsecond, QueueCap: 4})
	for i := 1; i <= 10; i++ {
		a.Send(0, pkt(a, uint16(i)))
	}
	if _, err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	expectRecv(t, *got, "1@2000", "2@3000", "3@4000", "4@5000")
	if d := n.Stats.DropTotal(DropQueue); d != 6 {
		t.Fatalf("queue drops = %d, want 6", d)
	}
}

// Lowering a link's Delay while packets are in flight lets later packets
// overtake earlier ones. Their arrivals cannot wait behind the link's
// earlier ones, yet they still count in the drop-tail backlog until they
// finish serializing.
func TestLoweredDelayWhileInFlight(t *testing.T) {
	slow := LinkConfig{Bandwidth: oneNsPerByte, Delay: 10 * sim.Microsecond, QueueCap: 2}
	fast, slower := slow, slow
	fast.Delay = sim.Microsecond
	slower.Delay = 20 * sim.Microsecond
	s, n, a, got := pair(t, slow)
	sendAt := func(at sim.Time, port uint16, cfg *LinkConfig) {
		s.At(at, sim.EventFunc(func(now sim.Time) {
			if cfg != nil {
				if err := n.SetLinkConfig(0, 1, *cfg); err != nil {
					t.Error(err)
				}
			}
			a.Send(now, pkt(a, port))
		}))
	}
	a.Send(0, pkt(a, 1))     // serialized 0-1000, arrives 11000
	sendAt(500, 2, &fast)    // queued behind 1: 1000-2000, arrives 3000
	sendAt(600, 3, nil)      // 1 and 2 queued: dropped
	sendAt(1500, 4, nil)     // 2 queued: 2000-3000, arrives 4000
	sendAt(2500, 5, nil)     // 4 queued: 3000-4000, arrives 5000
	sendAt(6000, 6, &slower) // idle: 6000-7000, arrives 27000
	if _, err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	expectRecv(t, *got, "2@3000", "4@4000", "5@5000", "1@11000", "6@27000")
	if d := n.Stats.DropTotal(DropQueue); d != 1 {
		t.Fatalf("queue drops = %d, want 1", d)
	}
}

// Packets already on a link when it fails still arrive and are forwarded
// on; nothing new is sent over it.
func TestFailLinkWithPacketsInFlight(t *testing.T) {
	s := sim.New(1)
	n, err := New(s, topology.Line(3), DefaultLink)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := n.AttachHost(0)
	b, _ := n.AttachHost(2)
	var got []string
	b.Recv = func(now sim.Time, p *packet.Packet) {
		got = append(got, fmt.Sprintf("%d@%v", p.SrcPort, now))
	}
	send := func(now sim.Time, port uint16) {
		a.Send(now, &packet.Packet{Src: a.Addr, Dst: b.Addr, SrcPort: port, Size: 1000})
	}
	for i := 1; i <= 3; i++ {
		send(0, uint16(i)) // 80µs each on the wire, 1ms delay, two hops
	}
	s.At(500*sim.Microsecond, sim.EventFunc(func(now sim.Time) {
		if err := n.FailLink(0, 1); err != nil {
			t.Error(err)
		}
		send(now, 4)
	}))
	if _, err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	expectRecv(t, got, "1@2.16ms", "2@2.24ms", "3@2.32ms")
	if d := n.Stats.DropTotal(DropNoRoute); d != 1 {
		t.Fatalf("no-route drops = %d, want 1 (the send after the failure)", d)
	}
	if d := n.Stats.DropTotal(DropQueue); d != 0 {
		t.Fatalf("queue drops = %d, want 0", d)
	}
}

// Pending counts every event waiting to fire, those parked behind a
// link's or a constant-rate group's single heap entry included.
func TestPendingCountsParkedEvents(t *testing.T) {
	s, n, a, _ := pair(t, LinkConfig{Bandwidth: 1e9, Delay: 10 * sim.Millisecond, QueueCap: 1 << 10})
	const sources = 3
	var srcs []*Source
	for i := 0; i < sources; i++ {
		srcs = append(srcs, a.StartCBR(sim.Time(i)*100*sim.Microsecond, 1000, func(uint64) *packet.Packet {
			return pkt(a, 7)
		}))
	}
	s.At(20*sim.Millisecond, sim.EventFunc(func(sim.Time) {
		for _, src := range srcs {
			src.Stop()
		}
	}))
	inFlight := func() int {
		return int(n.Stats.Sent[packet.KindLegit].Packets - n.Stats.Delivered[packet.KindLegit].Packets)
	}
	if got, want := s.Pending(), sources+1; got != want {
		t.Fatalf("before Run: Pending = %d, want %d (first ticks + stop)", got, want)
	}
	for _, until := range []sim.Time{5500 * sim.Microsecond, 12 * sim.Millisecond, 25 * sim.Millisecond} {
		if _, err := s.Run(until); err != nil {
			t.Fatal(err)
		}
		ticks, stop := sources, 1
		if until > 20*sim.Millisecond {
			ticks, stop = 0, 0
		}
		if inFlight() == 0 || n.Stats.Sent[packet.KindLegit].Packets == 0 {
			t.Fatalf("Run(%v): nothing in flight", until)
		}
		if got, want := s.Pending(), ticks+stop+inFlight(); got != want {
			t.Fatalf("Run(%v): Pending = %d, want %d ticks + %d stop + %d in flight", until, got, ticks, stop, inFlight())
		}
	}
	if _, err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if s.Pending() != 0 || inFlight() != 0 {
		t.Fatalf("after RunAll: Pending = %d, in flight %d", s.Pending(), inFlight())
	}
	if n.links[[2]int{0, 1}].q != nil {
		t.Fatal("link still holds in-flight state after draining")
	}
}
