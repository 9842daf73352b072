package netsim

import (
	"dtc/internal/packet"
	"dtc/internal/sim"
)

// Source generates packets from a host until stopped. Make is invoked per
// packet so callers can vary addresses (e.g. rotate spoofed sources).
type Source struct {
	host    *Host
	make    func(i uint64) *packet.Packet
	stopped bool
	sent    uint64
}

// Sent returns the number of packets emitted so far.
func (s *Source) Sent() uint64 { return s.sent }

// Stop ends generation after any in-flight event.
func (s *Source) Stop() { s.stopped = true }

// StartCBR emits packets at a constant rate (packets/second) starting at
// `start`, until Stop is called or the simulation ends.
//
// The first tick is an ordinary event, so staggered starts cost nothing
// extra. Every later tick is stamped one period after the tick that
// schedules it, and ticks fire in key order, so all sources sharing a
// period reschedule in key order too: they share one FIFO and occupy one
// heap entry between them.
func (h *Host) StartCBR(start sim.Time, rate float64, mk func(i uint64) *packet.Packet) *Source {
	if rate <= 0 {
		panic("netsim: CBR rate must be positive")
	}
	s := &Source{host: h, make: mk}
	interval := sim.Time(float64(sim.Second) / rate)
	if interval < 1 {
		interval = 1
	}
	next := h.net.cbrFIFO(interval)
	var tick func(now sim.Time)
	tick = func(now sim.Time) {
		if s.stopped {
			return
		}
		pkt := s.make(s.sent)
		s.sent++
		h.Send(now, pkt)
		next.Append(h.net.Sim.Stamp(now+interval), sim.EventFunc(tick))
	}
	h.net.Sim.At(start, sim.EventFunc(tick))
	return s
}

// cbrFIFO returns the FIFO constant-rate sources with period interval
// reschedule through.
func (n *Network) cbrFIFO(interval sim.Time) *sim.FIFO {
	f := n.cbr[interval]
	if f == nil {
		if n.cbr == nil {
			n.cbr = make(map[sim.Time]*sim.FIFO)
		}
		f = n.Sim.NewFIFO()
		n.cbr[interval] = f
	}
	return f
}

// StartPoisson emits packets with exponential inter-arrival times at the
// given mean rate (packets/second), using the simulation RNG.
func (h *Host) StartPoisson(start sim.Time, rate float64, mk func(i uint64) *packet.Packet) *Source {
	return h.StartPoissonRNG(start, rate, h.net.Sim.RNG().Fork(), mk)
}

// StartPoissonRNG is StartPoisson drawing inter-arrival times from an
// explicit generator. Forking the simulation RNG ties a host's stream to
// how many forks preceded it, while a caller-supplied sim.RNG.Substream
// keyed by the host's node ID is identical whatever order sources start in.
func (h *Host) StartPoissonRNG(start sim.Time, rate float64, rng *sim.RNG, mk func(i uint64) *packet.Packet) *Source {
	if rate <= 0 {
		panic("netsim: Poisson rate must be positive")
	}
	s := &Source{host: h, make: mk}
	mean := float64(sim.Second) / rate
	var tick func(now sim.Time)
	tick = func(now sim.Time) {
		if s.stopped {
			return
		}
		pkt := s.make(s.sent)
		s.sent++
		h.Send(now, pkt)
		d := sim.Time(rng.Exp(mean))
		if d < 1 {
			d = 1
		}
		h.net.Sim.AfterFunc(d, tick)
	}
	first := sim.Time(rng.Exp(mean))
	h.net.Sim.At(start+first, sim.EventFunc(tick))
	return s
}

// SendBurst emits n identical-shape packets back to back starting at start.
func (h *Host) SendBurst(start sim.Time, n int, mk func(i uint64) *packet.Packet) {
	for i := 0; i < n; i++ {
		i := uint64(i)
		h.net.Sim.At(start, sim.EventFunc(func(now sim.Time) {
			h.Send(now, mk(i))
		}))
	}
}
